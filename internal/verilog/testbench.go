package verilog

import (
	"bufio"
	"fmt"
	"io"

	"simgen/internal/network"
	"simgen/internal/sim"
)

// WriteTestbench emits a self-checking Verilog testbench that applies the
// given vectors to the module produced by Write and compares every output
// against the golden values computed by this repository's simulator. Run it
// in any Verilog simulator to cross-validate the two implementations:
//
//	iverilog -o tb design.v design_tb.v && ./tb
func WriteTestbench(w io.Writer, net *network.Network, vectors [][]bool) error {
	bw := bufio.NewWriter(w)
	name, wireName, poName := identifiers(net)

	npis, npos := net.NumPIs(), net.NumPOs()
	fmt.Fprintf(bw, "`timescale 1ns/1ps\nmodule %s_tb;\n", name)
	fmt.Fprintf(bw, "  reg  [%d:0] in;\n", npis-1)
	fmt.Fprintf(bw, "  wire [%d:0] out;\n", npos-1)
	fmt.Fprintf(bw, "  integer errors = 0;\n\n")
	fmt.Fprintf(bw, "  %s dut (\n", name)
	for i, pi := range net.PIs() {
		fmt.Fprintf(bw, "    .%s(in[%d]),\n", wireName[pi], i)
	}
	for i := 0; i < npos; i++ {
		sep := ","
		if i == npos-1 {
			sep = ""
		}
		fmt.Fprintf(bw, "    .%s(out[%d])%s\n", poName[i], i, sep)
	}
	fmt.Fprintln(bw, "  );")

	fmt.Fprintln(bw, "\n  task check;")
	fmt.Fprintf(bw, "    input [%d:0] stimulus;\n", npis-1)
	fmt.Fprintf(bw, "    input [%d:0] expected;\n", npos-1)
	fmt.Fprintln(bw, "    begin")
	fmt.Fprintln(bw, "      in = stimulus; #1;")
	fmt.Fprintln(bw, "      if (out !== expected) begin")
	bw.WriteString("        $display(\"MISMATCH in=%b out=%b expected=%b\", stimulus, out, expected);\n")
	fmt.Fprintln(bw, "        errors = errors + 1;")
	fmt.Fprintln(bw, "      end")
	fmt.Fprintln(bw, "    end")
	fmt.Fprintln(bw, "  endtask")

	// One packed simulation of every vector gives the golden outputs:
	// vector k is lane k of the output drivers' words.
	var golden []sim.Words
	if len(vectors) > 0 {
		inputs, nwords := sim.PackVectors(net, vectors)
		golden = sim.PO(net, sim.NewSimulator(net).Simulate(inputs, nwords))
	}
	fmt.Fprintln(bw, "\n  initial begin")
	for k, vec := range vectors {
		fmt.Fprintf(bw, "    check(%d'b", npis)
		for i := npis - 1; i >= 0; i-- {
			fmt.Fprint(bw, b2i(vec[i]))
		}
		fmt.Fprintf(bw, ", %d'b", npos)
		for i := npos - 1; i >= 0; i-- {
			fmt.Fprint(bw, golden[i][k/64]>>uint(k%64)&1)
		}
		fmt.Fprintln(bw, ");")
	}
	fmt.Fprintln(bw, "    if (errors == 0) $display(\"ALL TESTS PASSED\");")
	bw.WriteString("    else $display(\"%0d MISMATCHES\", errors);\n")
	fmt.Fprintln(bw, "    $finish;")
	fmt.Fprintln(bw, "  end")
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}
