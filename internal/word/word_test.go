package word

import (
	"math/rand"
	"testing"

	"simgen/internal/network"
	"simgen/internal/tt"
)

func TestSplitIndexed(t *testing.T) {
	cases := []struct {
		in     string
		prefix string
		idx    int
		ok     bool
	}{
		{"a[0]", "a", 0, true},
		{"a[13]", "a", 13, true},
		{"x7", "x", 7, true},
		{"data_12", "data", 12, true},
		{"cin", "", 0, false},
		{"[3]", "", 0, false},
		{"42", "", 0, false},
		{"", "", 0, false},
		{"a[b]", "", 0, false},
	}
	for _, c := range cases {
		prefix, idx, ok := splitIndexed(c.in)
		if ok != c.ok || (ok && (prefix != c.prefix || idx != c.idx)) {
			t.Errorf("splitIndexed(%q) = (%q, %d, %v), want (%q, %d, %v)",
				c.in, prefix, idx, ok, c.prefix, c.idx, c.ok)
		}
	}
}

// adderNet builds a mapped-network-shaped ripple adder directly: sum[i]
// depends on a[0..i], b[0..i] through a carry chain.
func adderNet(w int) *network.Network {
	net := network.New("adder")
	a := make([]network.NodeID, w)
	b := make([]network.NodeID, w)
	for i := 0; i < w; i++ {
		a[i] = net.AddPI("a[" + itoa(i) + "]")
	}
	for i := 0; i < w; i++ {
		b[i] = net.AddPI("b[" + itoa(i) + "]")
	}
	xor2 := tt.FromWords(2, []uint64{6}) // a ^ b over vars 0,1: minterms 01,10
	maj2 := tt.FromWords(2, []uint64{8}) // a & b
	xor3 := tt.FromWords(3, []uint64{0x96})
	maj3 := tt.FromWords(3, []uint64{0xE8})
	carry := network.NodeID(-1)
	for i := 0; i < w; i++ {
		var sum, cout network.NodeID
		if i == 0 {
			sum = net.AddLUT("s0", []network.NodeID{a[0], b[0]}, xor2)
			cout = net.AddLUT("c0", []network.NodeID{a[0], b[0]}, maj2)
		} else {
			sum = net.AddLUT("s"+itoa(i), []network.NodeID{a[i], b[i], carry}, xor3)
			cout = net.AddLUT("c"+itoa(i), []network.NodeID{a[i], b[i], carry}, maj3)
		}
		net.AddPO("sum["+itoa(i)+"]", sum)
		carry = cout
	}
	return net
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestDetectAdder(t *testing.T) {
	net := adderNet(6)
	st := Detect(net)
	if st.PIWords != 2 {
		t.Fatalf("detected %d PI words, want 2 (a, b)", st.PIWords)
	}
	cands, bits := st.Counts()
	if cands == 0 || bits == 0 {
		t.Fatalf("no candidates on a ripple adder (cands=%d bits=%d)", cands, bits)
	}
	// Every sum and carry node depends on prefix ranges of a and b: all of
	// them must be word members, with slice = max operand index.
	inWord := 0
	for id := 0; id < net.NumNodes(); id++ {
		if net.Node(network.NodeID(id)).Kind != network.KindLUT {
			continue
		}
		if _, _, ok := st.Member(network.NodeID(id)); ok {
			inWord++
		}
	}
	if inWord != net.NumLUTs() {
		t.Fatalf("%d of %d adder LUTs in words", inWord, net.NumLUTs())
	}
	// The slice of sum bit i and carry bit i must be i.
	for _, c := range st.Cands {
		for _, b := range c.Bits {
			if name := net.Node(b.Node).Name; name[1:] != itoa(b.Slice) {
				t.Errorf("%s has slice %d (words=%v)", name, b.Slice, c.Words)
			}
		}
	}
}

func TestDetectIgnoresUnindexedPIs(t *testing.T) {
	net := network.New("ctrl")
	x := net.AddPI("enable")
	y := net.AddPI("reset")
	and2 := tt.FromWords(2, []uint64{8})
	o := net.AddLUT("o", []network.NodeID{x, y}, and2)
	net.AddPO("o", o)
	st := Detect(net)
	if cands, _ := st.Counts(); cands != 0 {
		t.Fatalf("control net produced %d word candidates", cands)
	}
	if st.InWord(o) {
		t.Fatal("control node claimed by a word")
	}
	if st.PIWords != 0 {
		t.Fatalf("PIWords = %d on unindexed names", st.PIWords)
	}
}

func TestDetectRejectsSparseFootprint(t *testing.T) {
	// A node using a[0] and a[5] but not a[1..4] is random logic, not a
	// slice: the contiguity filter must reject it.
	net := network.New("sparse")
	a := make([]network.NodeID, 6)
	for i := range a {
		a[i] = net.AddPI("a[" + itoa(i) + "]")
	}
	and2 := tt.FromWords(2, []uint64{8})
	sparse := net.AddLUT("sp", []network.NodeID{a[0], a[5]}, and2)
	dense1 := net.AddLUT("d1", []network.NodeID{a[0], a[1]}, and2)
	dense2 := net.AddLUT("d2", []network.NodeID{a[1], a[2]}, and2)
	net.AddPO("sp", sparse)
	net.AddPO("d1", dense1)
	net.AddPO("d2", dense2)
	st := Detect(net)
	if st.InWord(sparse) {
		t.Fatal("sparse-footprint node accepted as a word slice")
	}
	if !st.InWord(dense1) || !st.InWord(dense2) {
		t.Fatal("contiguous-footprint nodes rejected")
	}
}

func TestDetectMux(t *testing.T) {
	// w-bit 2:1 mux: out[i] = s ? t[i] : e[i] — one loose select, two
	// words, single-index footprints.
	net := network.New("mux")
	s := net.AddPI("sel")
	tw := make([]network.NodeID, 4)
	ew := make([]network.NodeID, 4)
	for i := range tw {
		tw[i] = net.AddPI("t[" + itoa(i) + "]")
	}
	for i := range ew {
		ew[i] = net.AddPI("e[" + itoa(i) + "]")
	}
	// mux(s, t, e) over fanins (t, e, s): m = s ? t : e.
	var muxTT tt.Table
	{
		var bits uint64
		for m := 0; m < 8; m++ {
			tv := m&1 != 0
			ev := m&2 != 0
			sv := m&4 != 0
			v := ev
			if sv {
				v = tv
			}
			if v {
				bits |= 1 << uint(m)
			}
		}
		muxTT = tt.FromWords(3, []uint64{bits})
	}
	for i := range tw {
		o := net.AddLUT("m"+itoa(i), []network.NodeID{tw[i], ew[i], s}, muxTT)
		net.AddPO("m["+itoa(i)+"]", o)
	}
	st := Detect(net)
	cands, bits := st.Counts()
	if cands != 1 || bits != 4 {
		t.Fatalf("mux word: cands=%d bits=%d, want 1 candidate with 4 bits", cands, bits)
	}
	if st.Cands[0].Loose != 1 {
		t.Errorf("mux candidate loose=%d, want 1", st.Cands[0].Loose)
	}
}

func TestDetectDeterministic(t *testing.T) {
	net := adderNet(8)
	a := Detect(net)
	b := Detect(net)
	if len(a.Cands) != len(b.Cands) {
		t.Fatal("non-deterministic candidate count")
	}
	for i := range a.Cands {
		if len(a.Cands[i].Bits) != len(b.Cands[i].Bits) ||
			a.Cands[i].Loose != b.Cands[i].Loose {
			t.Fatalf("candidate %d differs between runs", i)
		}
		for j := range a.Cands[i].Bits {
			if a.Cands[i].Bits[j] != b.Cands[i].Bits[j] {
				t.Fatalf("candidate %d bit %d differs", i, j)
			}
		}
	}
}

func TestDetectScalesOnRandomLogic(t *testing.T) {
	// Random logic over an indexed PI word must not explode into
	// candidates: most nodes have sparse footprints.
	rng := rand.New(rand.NewSource(7))
	net := network.New("rand")
	pool := make([]network.NodeID, 16)
	for i := range pool {
		pool[i] = net.AddPI("x" + itoa(i))
	}
	for i := 0; i < 200; i++ {
		k := 2 + rng.Intn(3)
		fan := make([]network.NodeID, k)
		for j := range fan {
			fan[j] = pool[rng.Intn(len(pool))]
		}
		var bits uint64
		for m := 0; m < 1<<uint(k); m++ {
			if rng.Intn(2) == 1 {
				bits |= 1 << uint(m)
			}
		}
		id := net.AddLUT("n"+itoa(i%90), fan, tt.FromWords(k, []uint64{bits}))
		pool = append(pool, id)
	}
	net.AddPO("o", pool[len(pool)-1])
	st := Detect(net) // must terminate promptly and stay consistent
	for _, c := range st.Cands {
		if len(c.Bits) < 2 {
			t.Fatal("candidate with fewer than 2 bits")
		}
	}
}
