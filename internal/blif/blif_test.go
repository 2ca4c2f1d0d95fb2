package blif

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"simgen/internal/network"
	"simgen/internal/sim"
	"simgen/internal/tt"
)

const sampleBLIF = `
# full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
`

func TestParseFullAdder(t *testing.T) {
	net, err := Parse(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if net.Name != "fa" || net.NumPIs() != 3 || net.NumPOs() != 2 || net.NumLUTs() != 2 {
		t.Fatalf("structure wrong: %v", net.Stats())
	}
	for m := 0; m < 8; m++ {
		a, b, c := m&1 != 0, m&2 != 0, m&4 != 0
		out := sim.SimulateVector(net, []bool{a, b, c})
		ones := 0
		for _, v := range []bool{a, b, c} {
			if v {
				ones++
			}
		}
		sum := out[net.POs()[0].Driver]
		cout := out[net.POs()[1].Driver]
		if sum != (ones%2 == 1) {
			t.Fatalf("m=%d: sum wrong", m)
		}
		if cout != (ones >= 2) {
			t.Fatalf("m=%d: cout wrong", m)
		}
	}
}

func TestParseOffsetPhase(t *testing.T) {
	// Function given by its off-set: f=0 iff a=1,b=1 → f = NAND.
	src := `
.model nandphase
.inputs a b
.outputs f
.names a b f
11 0
.end
`
	net, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		a, b := m&1 != 0, m&2 != 0
		out := sim.SimulateVector(net, []bool{a, b})
		if out[net.POs()[0].Driver] != !(a && b) {
			t.Fatalf("m=%d: NAND wrong", m)
		}
	}
}

func TestParseConstants(t *testing.T) {
	src := `
.model consts
.inputs a
.outputs k1 k0 f
.names k1
1
.names k0
.names a k1 f
11 1
.end
`
	net, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out := sim.SimulateVector(net, []bool{true})
	if !out[net.POs()[0].Driver] || out[net.POs()[1].Driver] {
		t.Fatal("constants wrong")
	}
	if !out[net.POs()[2].Driver] {
		t.Fatal("AND with const-1 wrong")
	}
}

func TestParseOutOfOrderDefinitions(t *testing.T) {
	// g uses h, which is defined later in the file.
	src := `
.model ooo
.inputs a b
.outputs g
.names h a g
11 1
.names a b h
1- 1
-1 1
.end
`
	net, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out := sim.SimulateVector(net, []bool{true, false})
	if !out[net.POs()[0].Driver] {
		t.Fatal("out-of-order network wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"undefined output", ".model m\n.inputs a\n.outputs zz\n.end\n"},
		{"bad pattern", ".model m\n.inputs a\n.outputs f\n.names a f\n2 1\n.end\n"},
		{"bad width", ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end\n"},
		{"mixed phase", ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n"},
		{"duplicate signal", ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n"},
		{"cycle", ".model m\n.inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n"},
		{"row outside names", ".model m\n.inputs a\n.outputs a\n11 1\n.end\n"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	net, err := Parse(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, net); err != nil {
		t.Fatal(err)
	}
	net2, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if net2.NumPIs() != net.NumPIs() || net2.NumPOs() != net.NumPOs() {
		t.Fatal("round-trip changed interface")
	}
	// Functional equivalence on all 8 input vectors.
	for m := 0; m < 8; m++ {
		assign := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		o1 := sim.SimulateVector(net, assign)
		o2 := sim.SimulateVector(net2, assign)
		for p := range net.POs() {
			if o1[net.POs()[p].Driver] != o2[net2.POs()[p].Driver] {
				t.Fatalf("m=%d PO %d differs after round-trip", m, p)
			}
		}
	}
}

const sampleBench = `
# c17-like
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(f)
OUTPUT(g)
u = NAND(a, b)
v = NAND(b, c)
f = NAND(u, v)
w = NOT(c)
g = OR(v, w)
`

func TestParseBench(t *testing.T) {
	net, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if net.NumPIs() != 3 || net.NumPOs() != 2 || net.NumLUTs() != 5 {
		t.Fatalf("structure: %v", net.Stats())
	}
	for m := 0; m < 8; m++ {
		a, b, c := m&1 != 0, m&2 != 0, m&4 != 0
		u := !(a && b)
		v := !(b && c)
		f := !(u && v)
		g := v || !c
		out := sim.SimulateVector(net, []bool{a, b, c})
		if out[net.POs()[0].Driver] != f || out[net.POs()[1].Driver] != g {
			t.Fatalf("m=%d: bench semantics wrong", m)
		}
	}
}

func TestParseBenchGateTypes(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(o1)
OUTPUT(o2)
OUTPUT(o3)
OUTPUT(o4)
o1 = XOR(a, b, c)
o2 = XNOR(a, b)
o3 = NOR(a, b, c)
o4 = BUF(a)
`
	net, err := ParseBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 8; m++ {
		a, b, c := m&1 != 0, m&2 != 0, m&4 != 0
		out := sim.SimulateVector(net, []bool{a, b, c})
		xor3 := a != b != c
		if out[net.POs()[0].Driver] != xor3 {
			t.Fatalf("m=%d XOR3 wrong", m)
		}
		if out[net.POs()[1].Driver] != (a == b) {
			t.Fatalf("m=%d XNOR wrong", m)
		}
		if out[net.POs()[2].Driver] != !(a || b || c) {
			t.Fatalf("m=%d NOR wrong", m)
		}
		if out[net.POs()[3].Driver] != a {
			t.Fatalf("m=%d BUF wrong", m)
		}
	}
}

func TestParseBenchDFF(t *testing.T) {
	// q = DFF(d): q becomes a PI, q_next a PO driven by d's logic.
	src := `
INPUT(a)
OUTPUT(f)
q = DFF(d)
d = AND(a, q)
f = NOT(q)
`
	net, err := ParseBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if net.NumPIs() != 2 {
		t.Fatalf("PIs = %d, want 2 (a + q)", net.NumPIs())
	}
	if net.NumPOs() != 2 {
		t.Fatalf("POs = %d, want 2 (f + q_next)", net.NumPOs())
	}
	out := sim.SimulateVector(net, []bool{true, true}) // a=1, q=1
	if !out[net.POs()[1].Driver] {
		t.Fatal("q_next = AND(a,q) wrong")
	}
	if out[net.POs()[0].Driver] {
		t.Fatal("f = NOT(q) wrong")
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown gate", "INPUT(a)\nOUTPUT(f)\nf = FROB(a)\n"},
		{"cycle", "INPUT(a)\nOUTPUT(f)\nf = AND(a, g)\ng = AND(a, f)\n"},
		{"undefined output", "INPUT(a)\nOUTPUT(zz)\n"},
		{"bad line", "INPUT(a)\nOUTPUT(a)\nwhat is this\n"},
		{"dup signal", "INPUT(a)\nOUTPUT(f)\nf = NOT(a)\nf = BUF(a)\n"},
		{"NOT arity", "INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = NOT(a, b)\n"},
	}
	for _, c := range cases {
		if _, err := ParseBench(strings.NewReader(c.name + "\n" + c.src)); err == nil {
			// Note: first line is a junk comment-like token; use src only.
			if _, err2 := ParseBench(strings.NewReader(c.src)); err2 == nil {
				t.Errorf("%s: expected parse error", c.name)
			}
		}
	}
}

func TestWriteUnnamedNodes(t *testing.T) {
	n := network.New("")
	a := n.AddPI("a")
	g := n.AddLUT("", []network.NodeID{a}, tt.Var(1, 0).Not())
	n.AddPO("out", g)
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	re, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-parse unnamed: %v\n%s", err, buf.String())
	}
	out := sim.SimulateVector(re, []bool{false})
	if !out[re.POs()[0].Driver] {
		t.Fatal("inverter lost in round-trip")
	}
}

func TestParseLatchCombinationalCut(t *testing.T) {
	src := `
.model seqcir
.inputs a
.outputs f
.latch d q 2
.names a q d
11 1
.names q f
0 1
.end
`
	net, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// q becomes a PI; q_next (driven by d's logic) becomes a PO.
	if net.NumPIs() != 2 {
		t.Fatalf("PIs = %d, want 2 (a + q)", net.NumPIs())
	}
	if net.NumPOs() != 2 {
		t.Fatalf("POs = %d, want 2 (f + q_next)", net.NumPOs())
	}
	out := sim.SimulateVector(net, []bool{true, true}) // a=1, q=1
	if !out[net.POs()[1].Driver] {
		t.Fatal("q_next = a AND q wrong")
	}
	if out[net.POs()[0].Driver] {
		t.Fatal("f = NOT q wrong")
	}
	// Malformed latch still rejected.
	if _, err := Parse(strings.NewReader(".model m\n.inputs a\n.outputs a\n.latch d\n.end\n")); err == nil {
		t.Fatal("malformed .latch accepted")
	}
	// Undefined latch data rejected.
	if _, err := Parse(strings.NewReader(".model m\n.inputs a\n.outputs a\n.latch zz q\n.end\n")); err == nil {
		t.Fatal("undefined latch input accepted")
	}
}

// fill is an endless reader of one byte value.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// longLine reads as prefix, n copies of b and a newline, then rest.
func longLine(prefix string, b byte, n int, rest string) io.Reader {
	return io.MultiReader(strings.NewReader(prefix), io.LimitReader(fill(b), int64(n)), strings.NewReader("\n"+rest))
}

// TestLongLines checks that both readers, whose line buffer starts small,
// take a line longer than 1 MiB and still refuse one over their 16 MiB cap.
func TestLongLines(t *testing.T) {
	for name, c := range map[string]struct {
		parse func(io.Reader) (*network.Network, error)
		src   string
	}{
		"blif":  {Parse, sampleBLIF},
		"bench": {ParseBench, sampleBench},
	} {
		if _, err := c.parse(longLine("# ", 'x', 1<<20, c.src)); err != nil {
			t.Errorf("%s: 1 MiB comment: %v", name, err)
		}
		if _, err := c.parse(longLine("# ", 'x', 1<<24, c.src)); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: 16 MiB comment: err %v, want %v", name, err, bufio.ErrTooLong)
		}
	}
}
