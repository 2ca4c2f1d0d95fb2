package mapper

import (
	"testing"

	"simgen/internal/aig"
	"simgen/internal/network"
	"simgen/internal/sim"
)

// FuzzMap decodes the input into an and-inverter graph and a LUT size,
// maps it, and checks the network against the graph on every input
// vector. Byte 0 picks 1–10 PIs, byte 1 picks K in [2, 8], and each later
// byte pair adds one AND over two earlier literals: the high bits count
// back from the newest literal, the low bit complements it. The last four
// literals are POs.
func FuzzMap(f *testing.F) {
	// Seeds: one AND at K=2, constant fanins at K=3, and longer graphs at
	// K=6 and at K=8, where cut functions span several words.
	f.Add([]byte{2, 0, 2, 4})
	f.Add([]byte{0, 1, 0, 2, 1, 3})
	f.Add([]byte{5, 4, 2, 5, 4, 7, 9, 12, 14, 17, 3, 10, 20, 23})
	f.Add([]byte{9, 6, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 25, 27, 29, 31, 33, 35, 37, 39, 41, 43, 45})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		npis, k := 1+int(data[0])%10, 2+int(data[1])%7
		g := aig.New("fuzz")
		lits := []aig.Lit{aig.False}
		for i := 0; i < npis; i++ {
			lits = append(lits, g.AddPI(""))
		}
		for body := data[2:]; len(body) >= 2 && len(lits) < 512; body = body[2:] {
			pick := func(b byte) aig.Lit { return lits[len(lits)-1-int(b>>1)%len(lits)].NotIf(b&1 == 1) }
			lits = append(lits, g.And(pick(body[0]), pick(body[1])))
		}
		for i := 0; i < 4 && i < len(lits); i++ {
			g.AddPO("", lits[len(lits)-1-i])
		}
		net, err := Map(g, Options{K: k, CutsPerNode: 8})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		for id := 0; id < net.NumNodes(); id++ {
			if nd := net.Node(network.NodeID(id)); nd.Kind == network.KindLUT && len(nd.Fanins) > k {
				t.Fatalf("K=%d violated: LUT with %d inputs", k, len(nd.Fanins))
			}
		}
		checkExhaustive(t, g, net)
	})
}

// checkExhaustive compares every PO of the mapped network against the
// graph on all 2^PIs input vectors, 64 per simulated word.
func checkExhaustive(t *testing.T, g *aig.Graph, net *network.Network) {
	t.Helper()
	npis := g.NumPIs()
	for w := 0; w < max(1, (1<<npis)/64); w++ {
		aigIn := make([]uint64, npis)
		netIn := make([]sim.Words, npis)
		for i := range aigIn {
			for b := 0; b < 64; b++ {
				if (w*64+b)>>i&1 != 0 {
					aigIn[i] |= 1 << b
				}
			}
			netIn[i] = sim.Words{aigIn[i]}
		}
		aigVals := g.Simulate(aigIn)
		netVals := sim.Simulate(net, netIn, 1)
		for p, po := range g.POs() {
			want := aig.LitValue(aigVals, po.Lit)
			if got := netVals[net.POs()[p].Driver][0]; got != want {
				t.Fatalf("word %d PO %d: aig=%016x net=%016x", w, p, want, got)
			}
		}
	}
}
