// Package verilog writes LUT networks as synthesizable structural Verilog:
// one `assign` per LUT in sum-of-products form over its fanin wires. The
// output simulates identically to the network in any Verilog simulator,
// giving a path from generated/swept circuits into standard EDA flows.
package verilog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// Write emits the network as a single Verilog module.
func Write(w io.Writer, net *network.Network) error {
	bw := bufio.NewWriter(w)
	name, wireName, poName := identifiers(net)

	fmt.Fprintf(bw, "module %s (\n", name)
	for _, pi := range net.PIs() {
		fmt.Fprintf(bw, "  input  %s,\n", wireName[pi])
	}
	for i := range net.POs() {
		sep := ","
		if i == net.NumPOs()-1 {
			sep = ""
		}
		fmt.Fprintf(bw, "  output %s%s\n", poName[i], sep)
	}
	fmt.Fprintln(bw, ");")

	for id := 0; id < net.NumNodes(); id++ {
		nid := network.NodeID(id)
		nd := net.Node(nid)
		switch nd.Kind {
		case network.KindConst:
			fmt.Fprintf(bw, "  wire %s = 1'b%d;\n", wireName[id], b2i(nd.Func.IsConst1()))
		case network.KindLUT:
			fmt.Fprintf(bw, "  wire %s = %s;\n", wireName[id], sopExpr(net, nid, wireName))
		}
	}
	for i, po := range net.POs() {
		fmt.Fprintf(bw, "  assign %s = %s;\n", poName[i], wireName[po.Driver])
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// identifiers assigns the module name and a unique Verilog identifier to
// every node (its wire or input port) and every primary output port, in
// node order then output order. Write and WriteTestbench both name ports
// from it, so a testbench connects exactly the ports the module declares.
func identifiers(net *network.Network) (module string, wireName, poName []string) {
	module = nonEmpty(sanitize(net.Name), "top")
	used := map[string]bool{}
	uniq := func(base string) string {
		base = sanitize(base)
		if base == "" || used[base] {
			for i := 0; ; i++ {
				cand := fmt.Sprintf("%s_%d", nonEmpty(base, "n"), i)
				if !used[cand] {
					base = cand
					break
				}
			}
		}
		used[base] = true
		return base
	}
	wireName = make([]string, net.NumNodes())
	for id := range wireName {
		wireName[id] = uniq(nonEmpty(net.Node(network.NodeID(id)).Name, fmt.Sprintf("n%d", id)))
	}
	poName = make([]string, net.NumPOs())
	for i, po := range net.POs() {
		poName[i] = uniq(nonEmpty(sanitize(po.Name), fmt.Sprintf("po%d", i)))
	}
	return module, wireName, poName
}

// sopExpr renders the node function as a sum of products over its fanins.
func sopExpr(net *network.Network, id network.NodeID, wireName []string) string {
	nd := net.Node(id)
	on := tt.ISOP(nd.Func)
	if len(on) == 0 {
		return "1'b0"
	}
	var terms []string
	for _, cube := range on {
		var lits []string
		for i, f := range nd.Fanins {
			v, cared := cube.Has(i)
			if !cared {
				continue
			}
			lit := wireName[f]
			if !v {
				lit = "~" + lit
			}
			lits = append(lits, lit)
		}
		if len(lits) == 0 {
			return "1'b1" // tautology cube
		}
		terms = append(terms, strings.Join(lits, " & "))
	}
	if len(terms) == 1 {
		return terms[0]
	}
	for i, t := range terms {
		terms[i] = "(" + t + ")"
	}
	return strings.Join(terms, " | ")
}

// sanitize turns arbitrary signal names into Verilog identifiers.
func sanitize(s string) string {
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func nonEmpty(s, alt string) string {
	if s == "" {
		return alt
	}
	return s
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
