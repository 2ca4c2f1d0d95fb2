package core

import (
	"math/rand"
	"slices"
	"testing"

	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/sim"
	"simgen/internal/tt"
)

// refEntry is the reference summary of the rows consistent with a ternary
// state, computed position by position without any cube masks.
type refEntry struct {
	conflict, single, justified bool
	outAgree, outVal            bool
	mask, val                   uint32
}

// refRows lists the function's rows in the kernel's order: on-set cubes,
// then off-set cubes.
func refRows(fn tt.Table) []row {
	on, off := tt.OnOffCovers(fn)
	var rows []row
	for _, c := range on {
		rows = append(rows, row{cube: c, out: true})
	}
	for _, c := range off {
		rows = append(rows, row{cube: c, out: false})
	}
	return rows
}

func refScan(rows []row, in []value, out value) refEntry {
	var cons []row
	for _, r := range rows {
		ok := out == unassigned || boolValue(r.out) == out
		for i := range in {
			if v, cared := r.cube.Has(i); ok && cared && in[i] != unassigned && boolValue(v) != in[i] {
				ok = false
			}
		}
		if ok {
			cons = append(cons, r)
		}
	}
	ref := refEntry{conflict: len(cons) == 0, single: len(cons) == 1}
	if ref.conflict {
		return ref
	}
	ref.outAgree, ref.outVal = true, cons[0].out
	for _, r := range cons {
		if r.out != ref.outVal {
			ref.outAgree = false
		}
		full := true
		for i := range in {
			if _, cared := r.cube.Has(i); cared && in[i] == unassigned {
				full = false
			}
		}
		ref.justified = ref.justified || full
	}
	for i := range in {
		v0, agree := cons[0].cube.Has(i)
		for _, r := range cons[1:] {
			if v, cared := r.cube.Has(i); !cared || v != v0 {
				agree = false
			}
		}
		if agree {
			ref.mask |= 1 << uint(i)
			if v0 {
				ref.val |= 1 << uint(i)
			}
		}
	}
	if !ref.outAgree {
		ref.outVal = false
	}
	return ref
}

// refPropagate applies the reference implication of one node to fixpoint,
// updating in and out; it reports false on conflict.
func refPropagate(rows []row, in []value, out *value, strategy ImplicationStrategy) bool {
	for {
		ref := refScan(rows, in, *out)
		if ref.conflict {
			return false
		}
		if !ref.single && strategy == ImplSimple {
			return true
		}
		changed := false
		if ref.outAgree && *out == unassigned {
			*out, changed = boolValue(ref.outVal), true
		}
		for i := range in {
			if ref.mask&(1<<uint(i)) != 0 && in[i] == unassigned {
				in[i], changed = boolValue(ref.val&(1<<uint(i)) != 0), true
			}
		}
		if !changed {
			return true
		}
	}
}

// refPropagateTied is refPropagate for a LUT whose fanin list may repeat a
// node: positions naming one node hold one value, so after each fixpoint a
// position the reference left free takes the value of an assigned twin,
// and twins holding different values are a conflict.
func refPropagateTied(rows []row, fanins []network.NodeID, in []value, out *value, strategy ImplicationStrategy) bool {
	for {
		if !refPropagate(rows, in, out, strategy) {
			return false
		}
		changed := false
		for i, f := range fanins {
			j := slices.Index(fanins, f)
			if in[i] == in[j] {
				continue
			}
			if in[i] != unassigned && in[j] != unassigned {
				return false
			}
			in[i], in[j] = max(in[i], in[j]), max(in[i], in[j])
			changed = true
		}
		if !changed {
			return true
		}
	}
}

// checkState recomputes every node's ternary state index from the node
// values and the network's fanin lists and compares it with the one the
// engine's assignment keeps: the node's own output digit, then its fanin
// digits, most significant first. A PI and a node wider than memoArity
// have index 0.
func checkState(t *testing.T, net *network.Network, e *engine) {
	t.Helper()
	for id := range e.vals.state {
		nd := net.Node(network.NodeID(id))
		want := int32(0)
		if nd.Kind != network.KindPI && len(nd.Fanins) <= memoArity {
			want = int32(e.vals.vals[id] + 1)
			for i := len(nd.Fanins) - 1; i >= 0; i-- {
				want = want*3 + int32(e.vals.vals[nd.Fanins[i]]+1)
			}
		}
		if got := e.vals.state[id]; got != want {
			t.Fatalf("node %d: state index %d, recomputed %d", id, got, want)
		}
	}
}

func entryAsRef(x implEntry) refEntry {
	return refEntry{
		conflict:  x.has(entConflict),
		single:    x.has(entSingle),
		justified: x.has(entJustified),
		outAgree:  x.has(entOutAgree),
		outVal:    x.has(entOutAgree) && x.has(entOutVal),
		mask:      x.mask(),
		val:       x.val(),
	}
}

// singleLUT builds a network of one LUT over distinct PIs.
func singleLUT(fn tt.Table) (*network.Network, network.NodeID) {
	n := network.New("kernel")
	fanins := make([]network.NodeID, fn.NumVars())
	for i := range fanins {
		fanins[i] = n.AddPI("")
	}
	id := n.AddLUT("f", fanins, fn)
	n.AddPO("o", id)
	return n, id
}

// setState assigns the distinct fanins and the output of a LUT from the
// base-3 digits of s (digit 0 unassigned, 1 for 0, 2 for 1; the output
// last) and sets in to each fanin position's value.
func setState(e *engine, id network.NodeID, s int, in []value) value {
	e.reset()
	fanins := e.fanins(id)
	for i, f := range fanins {
		if j := slices.Index(fanins, f); j < i {
			in[i] = in[j]
			continue
		}
		in[i] = value(s%3) - 1
		s /= 3
		if in[i] != unassigned {
			e.vals.set(f, in[i] == val1)
		}
	}
	out := value(s%3) - 1
	if out != unassigned {
		e.vals.set(id, out == val1)
	}
	return out
}

// checkKernel compares the kernel against the reference on every ternary
// state of fn over distinct fanins; with propagate it also runs both
// implication strategies.
func checkKernel(t *testing.T, fn tt.Table, propagate bool) {
	t.Helper()
	net, id := singleLUT(fn)
	checkLUT(t, net, id, propagate)
}

// checkLUT compares the kernel against the reference on every reachable
// ternary state of LUT id, whose fanins must be PIs, and checks the state
// index after every step.
func checkLUT(t *testing.T, net *network.Network, id network.NodeID, propagate bool) {
	t.Helper()
	fn, fanins := net.Node(id).Func, net.Node(id).Fanins
	e := newEngine(net)
	rows := refRows(fn)
	nstates := 3
	for i, f := range fanins {
		if slices.Index(fanins, f) == i {
			nstates *= 3
		}
	}
	in := make([]value, len(fanins))
	for s := 0; s < nstates; s++ {
		out := setState(e, id, s, in)
		checkState(t, net, e)
		want := refScan(rows, in, out)
		// The entry holds only what is new: no assigned input position.
		for i := range in {
			if in[i] != unassigned {
				want.mask &^= 1 << uint(i)
			}
		}
		want.val &= want.mask
		for pass := 0; pass < 2; pass++ { // fill, then hit
			x := e.entry(id)
			if got := entryAsRef(x); got != want {
				t.Fatalf("%v state %d pass %d: entry %+v, reference %+v", fn, s, pass, got, want)
			}
			if free := want.outAgree && !want.conflict && out == unassigned; x.has(entOutFree) != free {
				t.Fatalf("%v state %d pass %d: output-free flag %v, want %v", fn, s, pass, x.has(entOutFree), free)
			}
		}
		if !propagate {
			continue
		}
		for _, strategy := range []ImplicationStrategy{ImplSimple, ImplAdvanced} {
			out := setState(e, id, s, in)
			wantOK := refPropagateTied(rows, fanins, in, &out, strategy)
			setState(e, id, s, make([]value, len(fanins)))
			e.enqueue(id)
			if ok := e.propagate(strategy); ok != wantOK {
				t.Fatalf("%v state %d %v: propagate %v, reference %v", fn, s, strategy, ok, wantOK)
			}
			checkState(t, net, e)
			if !wantOK {
				continue
			}
			if got := e.vals.vals[id]; got != out {
				t.Fatalf("%v state %d %v: output %d, reference %d", fn, s, strategy, got, out)
			}
			for i, f := range fanins {
				if got := e.vals.vals[f]; got != in[i] {
					t.Fatalf("%v state %d %v: input %d is %d, reference %d", fn, s, strategy, i, got, in[i])
				}
			}
		}
	}
}

// TestKernelAllSmallFunctions checks every function of up to 3 inputs.
func TestKernelAllSmallFunctions(t *testing.T) {
	for k := 0; k <= 3; k++ {
		for bits := 0; bits < 1<<(1<<k); bits++ {
			fn := tt.New(k)
			for m := 0; m < 1<<k; m++ {
				fn.SetBit(m, bits&(1<<m) != 0)
			}
			checkKernel(t, fn, true)
		}
	}
}

// TestKernelRandomFunctions checks 200 random 4- to 6-input functions and a
// few 7-input ones, which take the uncached fill path.
func TestKernelRandomFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 203; trial++ {
		k := 4 + rng.Intn(3)
		if trial >= 200 {
			k = memoArity + 1
		}
		fn := tt.New(k)
		for m := 0; m < 1<<k; m++ {
			fn.SetBit(m, rng.Intn(2) == 1)
		}
		checkKernel(t, fn, true)
	}
}

// TestKernelSuiteFunctions checks every distinct LUT function the mapper
// produces on the genbench suite.
func TestKernelSuiteFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the whole suite")
	}
	seen := map[funcKey]bool{}
	for _, b := range genbench.Registry() {
		net, err := b.LUTNetwork()
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < net.NumNodes(); id++ {
			nd := net.Node(network.NodeID(id))
			if nd.Kind != network.KindLUT {
				continue
			}
			key := funcKey{nd.Func.NumVars(), nd.Func.Words()[0]}
			if !seen[key] {
				seen[key] = true
				checkKernel(t, nd.Func, false)
			}
		}
	}
}

// TestKernelDuplicateFanin checks LUTs whose fanin list repeats a node, as
// network.ReplaceFanin leaves when a merge makes two fanins equal: every
// 3-input function over each way of naming two or one node, and random
// 4-input functions over [a, b, b, a].
func TestKernelDuplicateFanin(t *testing.T) {
	check := func(fn tt.Table, pattern ...int) {
		n := network.New("dup")
		pis := []network.NodeID{n.AddPI("a"), n.AddPI("b")}
		fanins := make([]network.NodeID, len(pattern))
		for i, p := range pattern {
			fanins[i] = pis[p]
		}
		checkLUT(t, n, n.AddLUT("f", fanins, fn), true)
	}
	for bits := 0; bits < 1<<8; bits++ {
		fn := tt.New(3)
		for m := 0; m < 8; m++ {
			fn.SetBit(m, bits&(1<<m) != 0)
		}
		check(fn, 0, 0, 1)
		check(fn, 0, 1, 0)
		check(fn, 1, 0, 0)
		check(fn, 0, 0, 0)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		fn := tt.New(4)
		for m := 0; m < 16; m++ {
			fn.SetBit(m, rng.Intn(2) == 1)
		}
		check(fn, 0, 1, 1, 0)
	}
}

// checkedSource drives a generator as NextBatch does and checks the state
// index after every vector.
type checkedSource struct {
	t *testing.T
	g *Generator
}

func (s checkedSource) Name() string { return "checked" }

func (s checkedSource) NextBatch(classes *sim.Classes, max int) [][]bool {
	g, classIdx := s.g, classes.NonSingleton()
	var out [][]bool
	for i := 0; len(classIdx) > 0 && len(out) < max && i < 2*max; i++ {
		members := classes.Members(classIdx[i%len(classIdx)])
		if len(members) > targetCap {
			members = g.sampleMembers(members, targetCap)
		}
		targets, gold := OutGoldPhase(members, (i/len(classIdx))%2 == 1)
		vec, _, ok := g.VectorForTargets(targets, gold)
		checkState(s.t, g.net, g.eng)
		if ok {
			out = append(out, vec)
		}
	}
	return out
}

// TestStateIndexInvariant refines three suite circuits' classes with the
// generator and recomputes every node's state index after each vector. A
// conflict undoes the target's assignments to its mark, so the run must
// meet conflicts for that undo path to be exercised.
func TestStateIndexInvariant(t *testing.T) {
	conflicts := 0
	for _, name := range []string{"alu4", "apex2", "pdc"} {
		b, _ := genbench.ByName(name)
		net, err := b.LUTNetwork()
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(net, StrategySimGen, 1)
		NewRunner(net, 1, 42).Run(checkedSource{t, g}, 10)
		conflicts += g.Conflicts
	}
	if conflicts == 0 {
		t.Fatal("no conflicts: the undo path went unexercised")
	}
}

// TestKernelSharedPerFunction checks that nodes computing one function
// share one rowSet, and that the memo answers for a node other than the
// one that filled it.
func TestKernelSharedPerFunction(t *testing.T) {
	n := network.New("share")
	a, b, c := n.AddPI("a"), n.AddPI("b"), n.AddPI("c")
	g1 := n.AddLUT("g1", []network.NodeID{a, b}, and2())
	g2 := n.AddLUT("g2", []network.NodeID{b, c}, and2())
	g3 := n.AddLUT("g3", []network.NodeID{a, c}, or2())
	n.AddPO("o", g3)
	e := newEngine(n)
	if e.rows.of(g1) != e.rows.of(g2) || e.rows.of(g1) == e.rows.of(g3) {
		t.Fatal("rowSets not shared per function")
	}
	e.assignAndWake(g1, true)
	if !e.propagate(ImplSimple) {
		t.Fatal("conflict")
	}
	e.assignAndWake(g2, false)
	if !e.propagate(ImplAdvanced) {
		t.Fatal("conflict")
	}
	if v, ok := e.vals.get(c); !ok || v {
		t.Fatal("g2=0 with b=1 must imply c=0 from g1's memo")
	}
	if e.memo[g1] == nil || e.memo[g3] == nil {
		t.Fatal("a looked-up node has no memo table")
	}
	if &e.memo[g1][0] != &e.memo[g2][0] || &e.memo[g1][0] == &e.memo[g3][0] {
		t.Fatal("memo tables not shared per function")
	}
}

// TestEngineReset checks that a reset leaves every value unassigned, every
// state index 0 and the queue empty, after a trail longer than half the
// network and after a one-node trail, and that the engine then propagates
// as a fresh one does.
func TestEngineReset(t *testing.T) {
	b, _ := genbench.ByName("alu4")
	net, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	pis := net.PIs()
	// run assigns the first n PIs with propagation, then the last PI
	// without, so its wake list is still queued, and returns the trail.
	run := func(e *engine, n int) []network.NodeID {
		rng := rand.New(rand.NewSource(1))
		for _, pi := range pis[:n] {
			if !e.vals.assigned(pi) {
				e.assignAndWake(pi, rng.Intn(2) == 1)
				if !e.propagate(ImplAdvanced) {
					t.Fatal("conflict under PI assignments")
				}
			}
		}
		e.assignAndWake(pis[len(pis)-1], true)
		if len(e.queue) == 0 {
			t.Fatal("nothing queued before the reset")
		}
		return slices.Clone(e.vals.trail)
	}
	e := newEngine(net)
	for _, n := range []int{len(pis) - 1, 0} {
		want := run(newEngine(net), n)
		if n > 0 && len(want) <= net.NumNodes()/2 {
			t.Fatalf("trail of %d nodes, want more than half of %d", len(want), net.NumNodes())
		}
		run(e, n)
		e.reset()
		for id := range net.NumNodes() {
			if e.vals.vals[id] != unassigned || e.vals.state[id] != 0 || e.queued[id] {
				t.Fatalf("trail %d: node %d after reset: value %d, index %d, queued %v",
					len(want), id, e.vals.vals[id], e.vals.state[id], e.queued[id])
			}
		}
		if len(e.queue) != 0 || len(e.vals.trail) != 0 {
			t.Fatalf("trail %d: queue %d and trail %d long after reset", len(want), len(e.queue), len(e.vals.trail))
		}
		if got := run(e, n); !slices.Equal(got, want) {
			t.Fatalf("trail %d: after reset the trail differs from a fresh engine's", len(want))
		}
		checkState(t, net, e)
	}
}

// TestVectorForTargetsNoAllocs guards the generator's hot path: once the
// memo tables and cone cache are warm, a vector costs one allocation, the
// returned vector itself.
func TestVectorForTargetsNoAllocs(t *testing.T) {
	b, _ := genbench.ByName("apex2")
	net, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	run := NewRunner(net, 1, 42)
	g := NewGenerator(net, StrategySimGen, 1)
	classIdx := run.Classes.NonSingleton()
	if len(classIdx) == 0 {
		t.Fatal("no classes")
	}
	targets, gold := OutGold(run.Classes.Members(classIdx[0]))
	for i := 0; i < 200; i++ {
		g.VectorForTargets(targets, gold)
	}
	if allocs := testing.AllocsPerRun(100, func() { g.VectorForTargets(targets, gold) }); allocs > 1 {
		t.Fatalf("VectorForTargets: %v allocs per run after warm-up, want at most 1", allocs)
	}
}
