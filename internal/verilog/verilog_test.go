package verilog

import (
	"bytes"
	"strings"
	"testing"

	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/tt"
)

func TestWriteBasicStructure(t *testing.T) {
	n := network.New("half adder") // space forces sanitization
	a := n.AddPI("a")
	b := n.AddPI("b")
	xor2 := tt.Var(2, 0).Xor(tt.Var(2, 1))
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	s := n.AddLUT("sum", []network.NodeID{a, b}, xor2)
	c := n.AddLUT("carry", []network.NodeID{a, b}, and2)
	n.AddPO("s", s)
	n.AddPO("c", c)

	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	v := buf.String()
	for _, want := range []string{
		"module half_adder (",
		"input  a,",
		"input  b,",
		"output s,",
		"output c",
		"endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Fatalf("missing %q in:\n%s", want, v)
		}
	}
	// XOR SOP: (a & ~b) | (~a & b) in some order.
	if !strings.Contains(v, "~") || !strings.Contains(v, "|") {
		t.Fatalf("sum expression not SOP:\n%s", v)
	}
}

// collidingNet is an unnamed network whose LUT and first output reuse its
// input's name "x"; its outputs are ~x and the constant 1.
func collidingNet() *network.Network {
	n := network.New("")
	a := n.AddPI("x")
	k := n.AddConst(true)
	inv := tt.Var(1, 0).Not()
	g := n.AddLUT("x", []network.NodeID{a}, inv) // name collides with PI
	n.AddPO("x", g)                              // PO collides too
	n.AddPO("k", k)
	return n
}

func TestWriteConstantsAndCollisions(t *testing.T) {
	n := collidingNet()
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	v := buf.String()
	if !strings.Contains(v, "module top (") {
		t.Fatalf("default module name missing:\n%s", v)
	}
	if !strings.Contains(v, "1'b1") {
		t.Fatalf("constant missing:\n%s", v)
	}
	// All declared identifiers must be unique.
	seen := map[string]bool{}
	for _, line := range strings.Split(v, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && (fields[0] == "wire" || fields[0] == "input" || fields[0] == "output") {
			name := strings.TrimRight(fields[1], ",;")
			if seen[name] {
				t.Fatalf("duplicate identifier %q:\n%s", name, v)
			}
			seen[name] = true
		}
	}
}

func TestWriteBenchmarkParsesStructurally(t *testing.T) {
	// Smoke test on a real benchmark: output is non-trivial and every LUT
	// produced exactly one wire definition.
	b, _ := genbench.ByName("misex3c")
	net, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, net); err != nil {
		t.Fatal(err)
	}
	v := buf.String()
	wires := strings.Count(v, "\n  wire ")
	if wires < net.NumLUTs() {
		t.Fatalf("only %d wires for %d LUTs", wires, net.NumLUTs())
	}
	if strings.Count(v, "endmodule") != 1 {
		t.Fatal("malformed module")
	}
}

// TestVerilogSemantics interprets the emitted SOP expressions with a tiny
// evaluator and compares against network simulation — a semantic check
// without an external Verilog simulator.
func TestVerilogSemantics(t *testing.T) {
	n := network.New("sem")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	maj := tt.Var(3, 0).And(tt.Var(3, 1)).Or(tt.Var(3, 0).And(tt.Var(3, 2))).Or(tt.Var(3, 1).And(tt.Var(3, 2)))
	m := n.AddLUT("m", []network.NodeID{a, b, c}, maj)
	n.AddPO("o", m)

	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	// Extract "wire m = <expr>;".
	var expr string
	for _, line := range strings.Split(buf.String(), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "wire m = ") {
			expr = strings.TrimSuffix(strings.TrimPrefix(line, "wire m = "), ";")
		}
	}
	if expr == "" {
		t.Fatalf("wire m not found:\n%s", buf.String())
	}
	for mnt := 0; mnt < 8; mnt++ {
		env := map[string]bool{
			"a": mnt&1 != 0,
			"b": mnt&2 != 0,
			"c": mnt&4 != 0,
		}
		got := evalSOP(t, expr, env)
		ones := 0
		for _, v := range env {
			if v {
				ones++
			}
		}
		if got != (ones >= 2) {
			t.Fatalf("minterm %d: verilog %v, want %v (expr %q)", mnt, got, ones >= 2, expr)
		}
	}
}

// evalSOP evaluates a ( lit & lit ) | ( ... ) expression.
func evalSOP(t *testing.T, expr string, env map[string]bool) bool {
	t.Helper()
	for _, term := range strings.Split(expr, "|") {
		term = strings.Trim(strings.TrimSpace(term), "()")
		val := true
		for _, lit := range strings.Split(term, "&") {
			lit = strings.TrimSpace(lit)
			neg := strings.HasPrefix(lit, "~")
			lit = strings.TrimPrefix(lit, "~")
			v, ok := env[lit]
			if !ok {
				t.Fatalf("unknown identifier %q", lit)
			}
			if neg {
				v = !v
			}
			val = val && v
		}
		if val {
			return true
		}
	}
	return false
}

func TestWriteTestbench(t *testing.T) {
	n := network.New("ha")
	a := n.AddPI("a")
	b := n.AddPI("b")
	xor2 := tt.Var(2, 0).Xor(tt.Var(2, 1))
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	n.AddPO("s", n.AddLUT("sum", []network.NodeID{a, b}, xor2))
	n.AddPO("c", n.AddLUT("carry", []network.NodeID{a, b}, and2))
	vectors := [][]bool{
		{false, false}, {true, false}, {false, true}, {true, true},
	}
	tb := testbenchOf(t, n, vectors)
	for _, want := range []string{
		"module ha_tb;",
		"ha dut (",
		".a(in[0])",
		".b(in[1])",
		"check(2'b00, 2'b00);", // 0+0 = s0 c0
		"check(2'b01, 2'b01);", // a=1: s1 c0
		"check(2'b11, 2'b10);", // a=b=1: s0 c1
		"ALL TESTS PASSED",
	} {
		if !strings.Contains(tb, want) {
			t.Fatalf("testbench missing %q:\n%s", want, tb)
		}
	}

	// Colliding names: the testbench must connect the renamed ports the
	// module declares, and the golden outputs are ~x and 1.
	tb = testbenchOf(t, collidingNet(), [][]bool{{false}, {true}})
	for _, want := range []string{
		"module top_tb;",
		"top dut (",
		"check(1'b0, 2'b11);",
		"check(1'b1, 2'b10);",
	} {
		if !strings.Contains(tb, want) {
			t.Fatalf("testbench missing %q:\n%s", want, tb)
		}
	}
}

// TestWriteTestbenchVectorLength: a vector shorter or longer than the
// network's inputs is an error naming the vector, and nothing is written.
func TestWriteTestbenchVectorLength(t *testing.T) {
	n := collidingNet() // one primary input
	for _, c := range []struct {
		vectors [][]bool
		want    string
	}{
		{[][]bool{{true}, {}}, "vector 1 has 0 values, want 1"},
		{[][]bool{{false, true}}, "vector 0 has 2 values, want 1"},
	} {
		var buf bytes.Buffer
		err := WriteTestbench(&buf, n, c.vectors)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("vectors %v: error %v, want one containing %q", c.vectors, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("vectors %v: wrote %d bytes before failing", c.vectors, buf.Len())
		}
	}
}

// testbenchOf writes the network's module and its testbench over vectors,
// checks that the testbench connects every port the module declares
// exactly once (".port(in[i])" to an input, ".port(out[i])" to an
// output), and returns the testbench.
func testbenchOf(t *testing.T, n *network.Network, vectors [][]bool) string {
	t.Helper()
	var mod, buf bytes.Buffer
	if err := Write(&mod, n); err != nil {
		t.Fatal(err)
	}
	if err := WriteTestbench(&buf, n, vectors); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{} // port -> "input" or "output"
	for _, line := range strings.Split(mod.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && (f[0] == "input" || f[0] == "output") {
			declared[strings.TrimRight(f[1], ",")] = f[0]
		}
	}
	tb := buf.String()
	for _, line := range strings.Split(tb, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, ".") {
			continue
		}
		port, sig, _ := strings.Cut(line[1:], "(")
		dir := "output"
		if strings.HasPrefix(sig, "in[") {
			dir = "input"
		}
		if declared[port] != dir {
			t.Fatalf("testbench connects %s port %q, which the module does not declare as one:\n%s\n%s",
				dir, port, mod.String(), tb)
		}
		delete(declared, port)
	}
	if len(declared) != 0 {
		t.Fatalf("testbench leaves declared ports %v unconnected:\n%s", declared, tb)
	}
	return tb
}
