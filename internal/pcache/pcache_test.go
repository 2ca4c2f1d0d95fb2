package pcache

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"simgen/internal/network"
	"simgen/internal/prover"
	"simgen/internal/tt"
)

// and2Net builds a net with two structurally distinct but equivalent
// AND cones (g = a&b, h = !(!a|!b)) plus an inequivalent OR node.
func and2Net(t *testing.T) (*network.Network, network.NodeID, network.NodeID, network.NodeID) {
	t.Helper()
	n := network.New("and2")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	g := n.AddLUT("g", []network.NodeID{a, b}, and2)
	na := n.AddLUT("na", []network.NodeID{a}, tt.Var(1, 0).Not())
	nb := n.AddLUT("nb", []network.NodeID{b}, tt.Var(1, 0).Not())
	o := n.AddLUT("o", []network.NodeID{na, nb}, or2)
	h := n.AddLUT("h", []network.NodeID{o}, tt.Var(1, 0).Not())
	w := n.AddLUT("w", []network.NodeID{a, b}, or2)
	n.AddPO("p1", g)
	n.AddPO("p2", h)
	n.AddPO("p3", w)
	return n, g, h, w
}

func TestKeyNPNInvariance(t *testing.T) {
	// f1 = a & !b over fanins [a, b]; f2 = !x & y over fanins [b, a].
	// Same function of the same cone, different fanin order and input
	// polarity bookkeeping — the NPN-canonical structural keys must agree.
	n1 := network.New("k1")
	a1 := n1.AddPI("a")
	b1 := n1.AddPI("b")
	f1 := n1.AddLUT("f", []network.NodeID{a1, b1}, tt.Var(2, 0).And(tt.Var(2, 1).Not()))
	n1.AddPO("o", f1)

	n2 := network.New("k2")
	a2 := n2.AddPI("a")
	b2 := n2.AddPI("b")
	f2 := n2.AddLUT("f", []network.NodeID{b2, a2}, tt.Var(2, 0).Not().And(tt.Var(2, 1)))
	n2.AddPO("o", f2)

	k1 := NewKeyer(n1).NodeKey(f1)
	k2 := NewKeyer(n2).NodeKey(f2)
	if k1 != k2 {
		t.Fatalf("NPN-equivalent cones keyed differently: %016x vs %016x", k1, k2)
	}

	// A genuinely different function over the same fanins must not collide.
	n3 := network.New("k3")
	a3 := n3.AddPI("a")
	b3 := n3.AddPI("b")
	f3 := n3.AddLUT("f", []network.NodeID{a3, b3}, tt.Var(2, 0).Or(tt.Var(2, 1)))
	n3.AddPO("o", f3)
	if k3 := NewKeyer(n3).NodeKey(f3); k3 == k1 {
		t.Fatalf("AND and OR cones share a key: %016x", k3)
	}
}

func TestKeyRenumberInvariance(t *testing.T) {
	// The same circuit built with interleaved unrelated nodes (different
	// node ids for the cone) must key identically: keys depend on cone
	// structure and PI ordinals, not node numbering.
	n1 := network.New("r1")
	a1 := n1.AddPI("a")
	b1 := n1.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	g1 := n1.AddLUT("g", []network.NodeID{a1, b1}, and2)
	n1.AddPO("o", g1)

	n2 := network.New("r2")
	a2 := n2.AddPI("a")
	b2 := n2.AddPI("b")
	// Unrelated padding shifts node ids before the cone is built.
	pad := n2.AddLUT("pad", []network.NodeID{a2}, tt.Var(1, 0).Not())
	g2 := n2.AddLUT("g", []network.NodeID{a2, b2}, and2)
	n2.AddPO("o1", pad)
	n2.AddPO("o2", g2)

	if k1, k2 := (NewKeyer(n1).NodeKey(g1)), (NewKeyer(n2).NodeKey(g2)); k1 != k2 {
		t.Fatalf("renumbered cone keyed differently: %016x vs %016x", k1, k2)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.AddEqual(1, 2, 100)
	st.AddEqual(2, 3, 101) // transitive: 1~3 via the key union-find
	st.AddDiffer(7, 8, 200, []bool{true, false, true})
	st.AddPattern([]bool{true, true, false}, 5)
	st.AddPattern([]bool{false, true, true}, 9)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Recovered() {
		t.Fatal("clean journal reported recovered")
	}
	if hit := st2.Lookup(1, 2, 100); hit.kind != hitEqual {
		t.Fatalf("direct equal lookup: kind %d", hit.kind)
	}
	if hit := st2.Lookup(1, 3, 999); hit.kind != hitEqual {
		t.Fatalf("transitive equal lookup: kind %d", hit.kind)
	}
	hit := st2.Lookup(7, 8, 200)
	if hit.kind != hitDiffer || len(hit.cex) != 3 || !hit.cex[0] || hit.cex[1] || !hit.cex[2] {
		t.Fatalf("differ lookup: kind %d cex %v", hit.kind, hit.cex)
	}
	pats := st2.Patterns(3)
	if len(pats) != 2 || pats[0].Score != 9 || pats[1].Score != 5 {
		t.Fatalf("patterns not score-ordered: %+v", pats)
	}
}

// TestJournalDropsSolverHints loads a version-1 journal written before
// solver hints were dropped: its eq and neq records carry "rung" fields
// and it holds a "clause" record. The verdicts and the pattern must load,
// and Close must compact the hint and the rungs away.
func TestJournalDropsSolverHints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	old := `{"t":"hdr","v":1}
{"t":"eq","a":"0000000000000001","b":"0000000000000002","c":"0000000000000064","rung":1}
{"t":"eq","a":"0000000000000002","b":"0000000000000003","c":"0000000000000065"}
{"t":"neq","a":"0000000000000007","b":"0000000000000008","c":"00000000000000c8","cex":"05","npi":3,"rung":2}
{"t":"clause","a":"0000000000000001","b":"0000000000000002","c":"0000000000000064","rung":2}
{"t":"pat","vec":"03","npi":3,"sc":5}
`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered() {
		t.Fatal("journal with solver hints reported recovered")
	}
	if hit := st.Lookup(1, 2, 100); hit.kind != hitEqual {
		t.Fatalf("direct equal lookup: kind %d", hit.kind)
	}
	if hit := st.Lookup(1, 3, 999); hit.kind != hitEqual {
		t.Fatalf("transitive equal lookup: kind %d", hit.kind)
	}
	hit := st.Lookup(7, 8, 200)
	if hit.kind != hitDiffer || len(hit.cex) != 3 || !hit.cex[0] || hit.cex[1] || !hit.cex[2] {
		t.Fatalf("differ lookup: kind %d cex %v", hit.kind, hit.cex)
	}
	pats := st.Patterns(3)
	if len(pats) != 1 || pats[0].Score != 5 || !pats[0].Bits[0] || !pats[0].Bits[1] || pats[0].Bits[2] {
		t.Fatalf("patterns = %+v, want [110] with score 5", pats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"t":"clause"`)) || bytes.Contains(data, []byte(`"rung"`)) {
		t.Fatalf("compacted journal keeps solver hints:\n%s", data)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if eq, neq, pats, _ := st2.Counts(); eq != 2 || neq != 1 || pats != 1 {
		t.Fatalf("compacted journal holds eq=%d neq=%d pats=%d, want 2, 1, 1", eq, neq, pats)
	}
}

func TestStoreChkCollisionDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.AddEqual(1, 2, 100)
	if hit := st.Lookup(1, 2, 555); hit.kind != hitCollision {
		t.Fatalf("mismatched check hash: kind %d, want collision", hit.kind)
	}
	st.AddDiffer(7, 8, 200, []bool{true})
	if hit := st.Lookup(7, 8, 201); hit.kind != hitCollision {
		t.Fatalf("mismatched differ check hash: kind %d, want collision", hit.kind)
	}
}

func TestStoreTruncatedJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.AddEqual(1, 2, 100)
	st.AddDiffer(7, 8, 200, []bool{true, false})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-record: the last line loses its closing bytes.
	path := filepath.Join(dir, journalName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("corrupted journal must not fail open: %v", err)
	}
	defer st2.Close()
	if !st2.Recovered() {
		t.Fatal("truncated journal not reported as recovered")
	}
	if eq, neq, pats, _ := st2.Counts(); eq+neq+pats != 0 {
		t.Fatalf("recovered store not cold: eq=%d neq=%d pats=%d", eq, neq, pats)
	}
	if hit := st2.Lookup(1, 2, 100); hit.kind != hitNone {
		t.Fatal("recovered store answered from corrupted journal")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupted journal not preserved: %v", err)
	}
	// The recovered store must be writable and survive a clean cycle.
	st2.AddEqual(4, 5, 300)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Recovered() {
		t.Fatal("rewritten journal reported recovered")
	}
	if hit := st3.Lookup(4, 5, 300); hit.kind != hitEqual {
		t.Fatal("post-recovery record lost")
	}
}

func TestStoreGarbageJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("garbage journal must not fail open: %v", err)
	}
	defer st.Close()
	if !st.Recovered() {
		t.Fatal("garbage journal not reported as recovered")
	}
}

func TestPatternEviction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.PatternCap = 2
	evicted := 0
	evicted += st.AddPattern([]bool{true, false, false}, 3)
	evicted += st.AddPattern([]bool{false, true, false}, 1)
	evicted += st.AddPattern([]bool{false, false, true}, 7)
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	pats := st.Patterns(3)
	if len(pats) != 2 || pats[0].Score != 7 || pats[1].Score != 3 {
		t.Fatalf("lowest-score pattern not evicted: %+v", pats)
	}
	// Rescoring an existing pattern reorders without growing.
	st.Rescore([]bool{true, false, false}, 11)
	pats = st.Patterns(3)
	if len(pats) != 2 || pats[0].Score != 11 {
		t.Fatalf("rescore not applied: %+v", pats)
	}
}

func TestPoisonedEqualCompactedAway(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.AddEqual(1, 2, 100)
	st.AddEqual(10, 11, 110)
	if dropped := st.PoisonEqual(1, 2); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if hit := st.Lookup(1, 2, 100); hit.kind == hitEqual {
		t.Fatal("poisoned class still answers")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if hit := st2.Lookup(1, 2, 100); hit.kind == hitEqual {
		t.Fatal("poisoned record survived compaction")
	}
	if hit := st2.Lookup(10, 11, 110); hit.kind != hitEqual {
		t.Fatal("healthy record lost in compaction")
	}
}

func TestSessionRevalidationRejectsPoison(t *testing.T) {
	net, g, h, w := and2Net(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess := NewSession(st, net, nil)
	ctx := context.Background()

	// A poisoned entry: an Equal record for functionally different cones
	// (g = a&b vs w = a|b). Revalidation must reject it.
	sess.RecordProof(g, w, prover.Equal, nil)
	cp := sess.Probe(ctx, g, w)
	if cp.Hit {
		t.Fatal("poisoned equal record accepted")
	}
	if !cp.RevalFailed {
		t.Fatal("poisoned equal record not flagged as revalidation failure")
	}

	// A genuine record: g and h are equivalent and must hit.
	sess.RecordProof(g, h, prover.Equal, nil)
	cp = sess.Probe(ctx, g, h)
	if !cp.Hit || cp.Verdict != prover.Equal {
		t.Fatalf("genuine equal record missed: %+v", cp)
	}

	// A genuine differ record with its counterexample replays exactly.
	sess.RecordProof(g, w, prover.Differ, []bool{true, false})
	cp = sess.Probe(ctx, g, w)
	if !cp.Hit || cp.Verdict != prover.Differ {
		t.Fatalf("genuine differ record missed: %+v", cp)
	}
	if len(cp.Cex) != 2 || !cp.Cex[0] || cp.Cex[1] {
		t.Fatalf("differ cex mangled: %v", cp.Cex)
	}

	// A differ record whose stored cex does not separate the pair (g vs h
	// are equal, so no vector can) must be evicted, not trusted.
	sess.RecordProof(g, h, prover.Differ, []bool{true, true})
	cp = sess.Probe(ctx, g, h)
	// The equal-class record for (g, h) still answers after the bogus
	// differ record is rejected — the probe falls back to the key
	// union-find, whose record revalidates fine.
	if cp.Hit && cp.Verdict == prover.Differ {
		t.Fatal("bogus differ record accepted")
	}

	// Multi-word exhaustive revalidation: over 10 PIs (16 words) a
	// poisoned Equal record for cones that differ only on the all-ones
	// minterm — the top lane of the last word — must be rejected, and the
	// genuine twin must hit.
	pnet, chain, tree, poisoned := parityNet(10)
	psess := NewSession(st, pnet, nil)
	psess.RecordProof(chain, poisoned, prover.Equal, nil)
	if cp := psess.Probe(ctx, chain, poisoned); cp.Hit || !cp.RevalFailed {
		t.Fatalf("poisoned one-minterm equal record: %+v, want a revalidation failure", cp)
	}
	psess.RecordProof(chain, tree, prover.Equal, nil)
	if cp := psess.Probe(ctx, chain, tree); !cp.Hit || cp.Verdict != prover.Equal {
		t.Fatalf("genuine 10-PI equal record missed: %+v", cp)
	}
}

// parityNet builds the parity of n PIs twice — a linear XOR chain and a
// balanced XOR tree — plus a third cone that XORs the chain with the AND
// of all PIs, so it differs from the parity on the all-ones minterm only.
func parityNet(n int) (net *network.Network, chain, tree, poisoned network.NodeID) {
	net = network.New("parity")
	xor2 := tt.Var(2, 0).Xor(tt.Var(2, 1))
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	pis := make([]network.NodeID, n)
	for i := range pis {
		pis[i] = net.AddPI("")
	}
	chain, all := pis[0], pis[0]
	for _, pi := range pis[1:] {
		chain = net.AddLUT("", []network.NodeID{chain, pi}, xor2)
		all = net.AddLUT("", []network.NodeID{all, pi}, and2)
	}
	level := pis
	for len(level) > 1 {
		var next []network.NodeID
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, net.AddLUT("", []network.NodeID{level[i], level[i+1]}, xor2))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	tree = level[0]
	poisoned = net.AddLUT("", []network.NodeID{chain, all}, xor2)
	net.AddPO("chain", chain)
	net.AddPO("tree", tree)
	net.AddPO("poisoned", poisoned)
	return net, chain, tree, poisoned
}

func TestDiffAndTFOMask(t *testing.T) {
	build := func(orTop bool) *network.Network {
		n := network.New("d")
		a := n.AddPI("a")
		b := n.AddPI("b")
		c := n.AddPI("c")
		and2 := tt.Var(2, 0).And(tt.Var(2, 1))
		or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
		g := n.AddLUT("g", []network.NodeID{a, b}, and2)
		fn := and2
		if orTop {
			fn = or2
		}
		hn := n.AddLUT("h", []network.NodeID{b, c}, fn)
		top := n.AddLUT("top", []network.NodeID{g, hn}, or2)
		side := n.AddLUT("side", []network.NodeID{a}, tt.Var(1, 0).Not())
		n.AddPO("o1", top)
		n.AddPO("o2", side)
		return n
	}
	base := build(false)
	cur := build(true)

	changed := Diff(base, cur)
	if len(changed) == 0 {
		t.Fatal("diff found no changed nodes")
	}
	mask := TFOMask(cur, changed)

	// h changed; top is in its fanout. g and side are untouched.
	names := map[string]bool{}
	for id := 0; id < cur.NumNodes(); id++ {
		if mask[id] {
			names[cur.Node(network.NodeID(id)).Name] = true
		}
	}
	if !names["h"] || !names["top"] {
		t.Fatalf("TFO mask misses the edit cone: %v", names)
	}
	if names["g"] || names["side"] {
		t.Fatalf("TFO mask covers untouched logic: %v", names)
	}

	// An identical rebuild diffs empty.
	if ch := Diff(base, build(false)); len(ch) != 0 {
		t.Fatalf("identical circuits diff non-empty: %v", ch)
	}
}
