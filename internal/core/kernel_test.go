package core

import (
	"math/rand"
	"testing"

	"simgen/internal/genbench"
	"simgen/internal/network"
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

func entryAsRef(x implEntry) refEntry {
	return refEntry{
		conflict:  x.has(entConflict),
		single:    x.has(entSingle),
		justified: x.has(entJustified),
		outAgree:  x.has(entOutAgree),
		outVal:    x.has(entOutAgree) && x.has(entOutVal),
		mask:      uint32(x.mask),
		val:       uint32(x.val),
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

// setState assigns the fanins and output of the single LUT from the base-3
// digits of s (digit 0 unassigned, 1 for 0, 2 for 1; the output last).
func setState(e *engine, id network.NodeID, s int, in []value) value {
	e.vals.reset()
	e.clearQueue()
	for i, f := range e.net.Node(id).Fanins {
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
// state of fn; with propagate it also runs both implication strategies.
func checkKernel(t *testing.T, fn tt.Table, propagate bool) {
	t.Helper()
	net, id := singleLUT(fn)
	e := newEngine(net)
	rows := refRows(fn)
	k := fn.NumVars()
	nstates := 3
	for i := 0; i < k; i++ {
		nstates *= 3
	}
	in := make([]value, k)
	for s := 0; s < nstates; s++ {
		out := setState(e, id, s, in)
		want := refScan(rows, in, out)
		for pass := 0; pass < 2; pass++ { // fill, then hit
			if got := entryAsRef(e.entry(id)); got != want {
				t.Fatalf("%v state %d pass %d: entry %+v, reference %+v", fn, s, pass, got, want)
			}
		}
		if !propagate {
			continue
		}
		for _, strategy := range []ImplicationStrategy{ImplSimple, ImplAdvanced} {
			out := setState(e, id, s, in)
			wantOK := refPropagate(rows, in, &out, strategy)
			setState(e, id, s, make([]value, k))
			e.enqueue(id)
			if ok := e.propagate(strategy); ok != wantOK {
				t.Fatalf("%v state %d %v: propagate %v, reference %v", fn, s, strategy, ok, wantOK)
			}
			if !wantOK {
				continue
			}
			if got := e.vals.vals[id]; got != out {
				t.Fatalf("%v state %d %v: output %d, reference %d", fn, s, strategy, got, out)
			}
			for i, f := range net.Node(id).Fanins {
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
