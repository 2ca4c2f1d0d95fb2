package sweep_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simgen/internal/blif"
	"simgen/internal/core"
	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/pcache"
	"simgen/internal/sweep"
	"simgen/internal/tt"
)

func loadBench(t *testing.T, name string) *network.Network {
	t.Helper()
	b, ok := genbench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	net, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func writeBLIF(t *testing.T, net *network.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := blif.Write(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmSweepZeroSAT is the headline cross-run property: re-sweeping an
// unchanged circuit against the cache it filled performs zero SAT and BDD
// prover calls — every obligation settles from cache hits (revalidated by
// simulation) — and the swept output is byte-identical to the cold run's.
func TestWarmSweepZeroSAT(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Cold run: fill the cache.
	netC := loadBench(t, "alu4")
	runC := core.NewRunner(netC, 1, 42)
	stC, err := pcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sessC := pcache.NewSession(stC, netC, nil)
	swC := sweep.New(netC, runC.Classes, sweep.Options{Cache: sessC})
	resC := swC.Run()
	if resC.Proved == 0 {
		t.Fatal("cold sweep proved nothing; test circuit unsuitable")
	}
	blifC := writeBLIF(t, sweep.Apply(netC, swC.Rep))
	if err := stC.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm run: fresh network, fresh runner with the same seed, replayed
	// patterns, then the sweep.
	netW := loadBench(t, "alu4")
	runW := core.NewRunner(netW, 1, 42)
	stW, err := pcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stW.Close()
	if stW.Recovered() {
		t.Fatal("cold journal did not reopen cleanly")
	}
	sessW := pcache.NewSession(stW, netW, nil)
	if n := sessW.Replay(ctx, runW); n == 0 {
		t.Fatal("no pattern batches replayed; cold run recorded nothing")
	}
	swW := sweep.New(netW, runW.Classes, sweep.Options{Cache: sessW})
	resW := swW.Run()

	if resW.SATCalls != 0 || resW.BDDChecks != 0 {
		t.Fatalf("warm sweep not free of prover calls: SATCalls=%d BDDChecks=%d (hits=%d misses=%d revalfails=%d)",
			resW.SATCalls, resW.BDDChecks, resW.CacheHits, resW.CacheMisses, resW.CacheRevalFails)
	}
	if resW.CacheHits == 0 {
		t.Fatal("warm sweep hit nothing in the cache")
	}
	if resW.Proved != resC.Proved {
		t.Fatalf("warm Proved=%d, cold Proved=%d", resW.Proved, resC.Proved)
	}
	if blifW := writeBLIF(t, sweep.Apply(netW, swW.Rep)); !bytes.Equal(blifW, blifC) {
		t.Fatal("warm swept network differs from cold swept network")
	}
}

// diamondNet builds a circuit with redundant cones on separate branches: a
// shared pair of equivalent AND cones fed by (a,b), and an independent
// pair of equivalent OR cones fed by (c,d). Editing one branch must leave
// the other settleable from cache alone.
func diamondNet() (*network.Network, [3]network.NodeID) {
	n := network.New("diamond")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	d := n.AddPI("d")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	g1 := n.AddLUT("g1", []network.NodeID{a, b}, and2)
	g2 := n.AddLUT("g2", []network.NodeID{b, a}, and2)
	h1 := n.AddLUT("h1", []network.NodeID{c, d}, or2)
	h2 := n.AddLUT("h2", []network.NodeID{d, c}, or2)
	top := n.AddLUT("top", []network.NodeID{g1, h1}, or2)
	n.AddPO("o1", top)
	n.AddPO("o2", g2)
	n.AddPO("o3", h2)
	return n, [3]network.NodeID{g1, g2, h1}
}

// TestIncrementalTFO checks the incremental pre-pass: after a one-LUT
// edit, a warm run given the diff's TFO mask schedules obligations only
// for pairs touching the mask; untouched pairs settle from the cache.
func TestIncrementalTFO(t *testing.T) {
	dir := t.TempDir()

	// Cold run on the base circuit.
	base, _ := diamondNet()
	runC := core.NewRunner(base, 4, 7)
	stC, err := pcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sessC := pcache.NewSession(stC, base, nil)
	resC := sweep.New(base, runC.Classes, sweep.Options{Cache: sessC}).Run()
	if resC.Proved == 0 {
		t.Fatal("cold sweep proved nothing")
	}
	if err := stC.Close(); err != nil {
		t.Fatal(err)
	}

	// Edit one LUT (h1: OR -> XOR) and re-run incrementally.
	cur, ids := diamondNet()
	g1, g2, h1 := ids[0], ids[1], ids[2]
	cur.Node(h1).Func = tt.Var(2, 0).Xor(tt.Var(2, 1))
	cur.Invalidate()

	baseAgain, _ := diamondNet()
	changed := pcache.Diff(baseAgain, cur)
	if len(changed) == 0 {
		t.Fatal("diff missed the edit")
	}
	mask := pcache.TFOMask(cur, changed)

	runW := core.NewRunner(cur, 4, 7)
	stW, err := pcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stW.Close()
	sessW := pcache.NewSession(stW, cur, nil)
	rec := &obs.Recorder{}
	swW := sweep.New(cur, runW.Classes, sweep.Options{
		Cache:   sessW,
		TFOMask: mask,
		Tracer:  rec,
	})
	resW := swW.Run()

	// Every scheduled obligation must touch the edit's fanout; pairs
	// wholly outside it are settled by the pre-pass.
	for _, ev := range rec.Events() {
		if ev.Kind != obs.KindObligation {
			continue
		}
		aIn := int(ev.A) < len(mask) && mask[ev.A]
		bIn := int(ev.B) < len(mask) && mask[ev.B]
		if !aIn && !bIn {
			t.Fatalf("obligation (%d, %d) scheduled wholly outside the TFO mask", ev.A, ev.B)
		}
	}
	if resW.CacheMerged == 0 {
		t.Fatal("pre-pass merged nothing from the cache")
	}
	// The untouched equivalent pair (g1, g2) must have merged from the
	// cache without becoming an obligation.
	if swW.Rep(g1) != swW.Rep(g2) {
		t.Fatal("untouched equivalence not merged by the cache pre-pass")
	}
}

// TestCacheJournalGolden pins the compacted journal a default cold run
// leaves behind: the flow of `sweep -benchmark pdc -cache-dir d` (simgen
// guided simulation, seed 1, one worker, the CLI's default ladder), with
// the store closed and the file hashed. It holds 19 eq, 2 neq and 331 pat
// records. A change to what the cache records, or to how Close lays the
// journal out, moves the hash.
func TestCacheJournalGolden(t *testing.T) {
	const want = "8f72c33a3d99557d2f7ea457a046ccb321d713132481ae0321a0610ec70d5f5d"
	dir := t.TempDir()
	ctx := context.Background()
	net := loadBench(t, "pdc")
	st, err := pcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := sweep.CECOptions{
		Sweep: sweep.Options{
			EscalationFactor: 4,
			MaxEscalations:   2,
			BDDNodeLimit:     1 << 20,
			Cache:            pcache.NewSession(st, net, nil),
		},
		GuidedIterations: 20,
		Method:           "simgen",
		Seed:             1,
		Workers:          1,
	}
	ref, err := sweep.Refine(ctx, net, opts)
	if err != nil {
		t.Fatal(err)
	}
	sweep.New(net, ref.Run.Classes, opts.Sweep).RunParallelContext(ctx, opts.Workers)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		kinds := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			kind, _, _ := strings.Cut(strings.TrimPrefix(line, `{"t":"`), `"`)
			kinds[kind]++
		}
		t.Fatalf("journal sha256 %s, want %s (record kinds %v)", got, want, kinds)
	}
}
