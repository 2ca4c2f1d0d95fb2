package fuzz

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"simgen/internal/chaos"
	"simgen/internal/network"
	"simgen/internal/sim"
	"simgen/internal/sweep"
	"simgen/internal/tt"
)

// Config tunes the oracles. The zero value is usable.
type Config struct {
	// Seed drives the engines' internal randomness (the initial random
	// simulation round that builds candidate classes). The circuit under
	// test comes from the caller.
	Seed int64
	// Workers is the parallel sweeping engine's worker count (default 4).
	Workers int
	// CoarseVectors is the number of distinct random vectors used to build
	// the engines' initial candidate classes (default 4, max 64). Keeping
	// this small is deliberate: production sweeping starts from a finely
	// refined partition where almost every candidate pair is truly
	// equivalent, which would let a broken prover coast on coincidence. A
	// coarse partition floods the engines with false candidates they must
	// actually refute, so unsound verdicts surface within a few circuits.
	CoarseVectors int
	// SweepOpts is the base sweeping configuration. Budgets are normally
	// unlimited so every engine must fully resolve each circuit; FaultHook
	// can deliberately break the sweeper to prove the oracle catches it.
	SweepOpts sweep.Options
	// PerturbSchedules additionally runs the parallel engine that many
	// times under distinct chaos schedules (timing-only perturbation:
	// injected yields, delays, forced flushes, spurious wakeups). Schedule
	// shaping must never change verdicts, so each perturbed run is held to
	// the full differential oracle. 0 disables perturbed runs.
	PerturbSchedules int
	// ResetFault, when set, is called at the start of every oracle check so
	// a stateful FaultHook (e.g. fire-once unsoundness injection) re-arms
	// for each circuit — the shrinker re-checks candidates many times and
	// needs the fault to reproduce deterministically.
	ResetFault func()
}

func (c Config) resetFault() {
	if c.ResetFault != nil {
		c.ResetFault()
	}
}

func (c Config) workers() int {
	if c.Workers < 2 {
		return 4
	}
	return c.Workers
}

func (c Config) coarseVectors() int {
	if c.CoarseVectors < 1 {
		return 4
	}
	if c.CoarseVectors > 64 {
		return 64
	}
	return c.CoarseVectors
}

// Failure describes one oracle violation. Net is the offending circuit
// (after shrinking, when the campaign shrank it).
type Failure struct {
	Check  string // which oracle invariant broke, e.g. "unsound-merge"
	Detail string
	Net    *network.Network

	// Campaign context, filled by RunCampaign.
	Iteration  int
	Seed       int64
	Shape      string
	CorpusPath string
}

// Error renders the failure for logs.
func (f *Failure) Error() string {
	return fmt.Sprintf("fuzz: %s: %s (seed=%d iteration=%d shape=%q)",
		f.Check, f.Detail, f.Seed, f.Iteration, f.Shape)
}

// NodeTables exhaustively simulates the network and returns every node's
// truth table over the primary inputs — the ground truth all engines are
// compared against. It deliberately uses the naive reference evaluator
// (sim.Reference), not the arena kernel, so the ground truth stays
// independent of the production simulator the engines run on. The network
// must have at most sim.MaxExhaustivePIs inputs.
func NodeTables(net *network.Network) []tt.Table {
	inputs, nwords := sim.ExhaustiveInputs(net)
	vals := sim.Reference(net, inputs, nwords)
	npi := net.NumPIs()
	tables := make([]tt.Table, net.NumNodes())
	for id := range tables {
		tables[id] = tt.FromWords(npi, vals[id])
	}
	return tables
}

// classified reports whether node id is one the candidate classes hold:
// a LUT or a constant.
func classified(net *network.Network, id int) bool {
	k := net.Node(network.NodeID(id)).Kind
	return k == network.KindLUT || k == network.KindConst
}

// tableClasses assigns each classified node (LUT or constant) a canonical
// functional class index; unclassified nodes get -1. Hash buckets are
// resolved with exact comparison, so two nodes share an index iff their
// functions are identical.
func tableClasses(net *network.Network, tables []tt.Table) []int {
	classOf := make([]int, net.NumNodes())
	reps := make(map[uint64][]int) // table hash -> class indices
	var classTables []tt.Table
	for id := range classOf {
		classOf[id] = -1
		if !classified(net, id) {
			continue
		}
		h := tables[id].Hash()
		found := -1
		for _, ci := range reps[h] {
			if classTables[ci].Equal(tables[id]) {
				found = ci
				break
			}
		}
		if found < 0 {
			found = len(classTables)
			classTables = append(classTables, tables[id])
			reps[h] = append(reps[h], found)
		}
		classOf[id] = found
	}
	return classOf
}

// engineRun is one engine's outcome in a form the oracle can cross-check.
type engineRun struct {
	name       string
	rep        func(network.NodeID) network.NodeID
	unresolved int
	incomplete bool
	panics     int
}

// coarseClasses builds a deliberately weak initial candidate partition from
// cfg.coarseVectors() distinct random vectors (replicated to fill a 64-bit
// simulation word — duplicates never split classes). See Config.CoarseVectors
// for why a refined partition would defang the oracle.
func coarseClasses(net *network.Network, cfg Config) *sim.Classes {
	rng := rand.New(rand.NewSource(cfg.Seed))
	inputs := sim.RandomInputs(net, 1, rng)
	nvec := cfg.coarseVectors()
	for i := range inputs {
		for w, word := range inputs[i] {
			var out uint64
			for j := 0; j < 64; j++ {
				out |= (word >> uint(j%nvec) & 1) << uint(j)
			}
			inputs[i][w] = out
		}
	}
	return sim.NewClasses(net, sim.Simulate(net, inputs, 1))
}

// runEngines executes every sweeping engine on its own fresh candidate
// partition (identical seeds, so identical starting classes).
func runEngines(net *network.Network, cfg Config) []engineRun {
	freshClasses := func() *sim.Classes {
		return coarseClasses(net, cfg)
	}
	var runs []engineRun

	seq := sweep.New(net, freshClasses(), cfg.SweepOpts)
	res := seq.Run()
	runs = append(runs, engineRun{
		name: "sat", rep: seq.Rep,
		unresolved: res.Unresolved, incomplete: res.Incomplete,
	})

	par := sweep.New(net, freshClasses(), cfg.SweepOpts)
	pres := par.RunParallel(cfg.workers())
	runs = append(runs, engineRun{
		name: "sat-parallel", rep: par.Rep,
		unresolved: pres.Unresolved, incomplete: pres.Incomplete,
		panics: pres.WorkerPanics,
	})

	bdd := sweep.New(net, freshClasses(), sweep.Options{Engine: sweep.EngineBDD})
	bres := bdd.Run()
	runs = append(runs, engineRun{
		name: "bdd", rep: bdd.Rep,
		unresolved: bres.Unresolved, incomplete: bres.Incomplete,
	})

	portOpts := cfg.SweepOpts
	portOpts.Engine = sweep.EnginePortfolio
	port := sweep.New(net, freshClasses(), portOpts)
	portRes := port.Run()
	runs = append(runs, engineRun{
		name: "portfolio", rep: port.Rep,
		unresolved: portRes.Unresolved, incomplete: portRes.Incomplete,
	})

	// The production flow, as cmd/sweep and sweepd run it: sweep.Refine,
	// then the sweep. On a network of at most prover.DefaultSimPIs inputs
	// Refine enumerates, and the sweep merges every class without an
	// engine call, so this arm holds those merges to ground truth.
	flow := sweep.DefaultCECOptions()
	flow.Sweep, flow.Seed = cfg.SweepOpts, cfg.Seed
	ref, err := sweep.Refine(context.Background(), net, flow)
	if err != nil {
		panic(fmt.Sprintf("fuzz: the production flow refused the sweep options: %v", err))
	}
	prod := sweep.New(net, ref.Run.Classes, cfg.SweepOpts)
	prodRes := prod.Run()
	runs = append(runs, engineRun{
		name: "production", rep: prod.Rep,
		unresolved: prodRes.Unresolved, incomplete: prodRes.Incomplete,
	})

	for i := 0; i < cfg.PerturbSchedules; i++ {
		perturbOpts := cfg.SweepOpts
		perturbOpts.Chaos = chaos.NewSchedule(cfg.Seed+int64(i)*7919+1, chaos.ScheduleProfile())
		p := sweep.New(net, freshClasses(), perturbOpts)
		pr := p.RunParallel(cfg.workers())
		runs = append(runs, engineRun{
			name: fmt.Sprintf("sat-parallel-perturb-%d", i), rep: p.Rep,
			unresolved: pr.Unresolved, incomplete: pr.Incomplete,
			panics: pr.WorkerPanics,
		})
	}
	return runs
}

// CheckDifferential runs the circuit through every engine, and through the
// production flow (sweep.Refine, then the sweep), and fails on any
// disagreement with exhaustive simulation:
//
//   - an engine left pairs unresolved or incomplete despite unlimited
//     budgets ("engine-gave-up"),
//   - two merged nodes compute different functions ("unsound-merge"),
//   - two functionally identical classified nodes were not merged
//     ("missed-merge" — with unlimited budgets each engine must finish its
//     candidate classes, and equal nodes always share candidate classes),
//   - the fraig-style reduction sweep.Apply produced a network that is not
//     exhaustively equivalent to the original ("apply-mismatch") or is
//     structurally invalid ("apply-invalid").
//
// A nil return means every engine agreed with ground truth.
func CheckDifferential(net *network.Network, cfg Config) *Failure {
	cfg.resetFault()
	if err := net.Check(); err != nil {
		return &Failure{Check: "invalid-network", Detail: err.Error(), Net: net}
	}
	if net.NumPIs() > sim.MaxExhaustivePIs {
		return &Failure{Check: "oracle-limit", Detail: "too many PIs for exhaustive oracle", Net: net}
	}
	tables := NodeTables(net)
	truth := tableClasses(net, tables)

	for _, run := range runEngines(net, cfg) {
		if f := checkEngine(net, tables, truth, run); f != nil {
			return f
		}
	}
	return nil
}

// checkEngine validates one engine's verdicts against ground truth.
func checkEngine(net *network.Network, tables []tt.Table, truth []int, run engineRun) *Failure {
	if run.panics > 0 {
		return &Failure{Check: "worker-panic", Net: net,
			Detail: fmt.Sprintf("engine %s recovered %d worker panics", run.name, run.panics)}
	}
	if run.incomplete {
		return &Failure{Check: "engine-gave-up", Net: net,
			Detail: fmt.Sprintf("engine %s reported an incomplete sweep without any deadline", run.name)}
	}
	if run.unresolved > 0 {
		return &Failure{Check: "engine-gave-up", Net: net,
			Detail: fmt.Sprintf("engine %s left %d pairs unresolved despite unlimited budgets", run.name, run.unresolved)}
	}

	// Soundness: every rep group must be functionally uniform.
	// Completeness: every functional class must map to a single rep root.
	repTruth := make(map[network.NodeID]int) // rep root -> functional class
	truthRep := make(map[int]network.NodeID) // functional class -> rep root
	for id := 0; id < net.NumNodes(); id++ {
		nid := network.NodeID(id)
		tc := truth[id]
		if tc < 0 {
			continue
		}
		root := run.rep(nid)
		if prev, ok := repTruth[root]; ok && prev != tc {
			m := firstDiff(tables[id], tables[root])
			return &Failure{Check: "unsound-merge", Net: net,
				Detail: fmt.Sprintf("engine %s merged node %d (function class %d) into representative %d (function class %d): tables differ first at minterm %d, where the node is %d and the representative %d",
					run.name, nid, tc, root, prev, m, b2i(tables[id].Bit(m)), b2i(tables[root].Bit(m)))}
		}
		repTruth[root] = tc
		if prev, ok := truthRep[tc]; ok && prev != root {
			return &Failure{Check: "missed-merge", Net: net,
				Detail: fmt.Sprintf("engine %s left functionally identical nodes %d and %d under distinct representatives %d and %d",
					run.name, nid, prev, root, prev)}
		}
		truthRep[tc] = root
	}

	// The materialized reduction must preserve every output function.
	merged := sweep.Apply(net, run.rep)
	if err := merged.Check(); err != nil {
		return &Failure{Check: "apply-invalid", Net: net,
			Detail: fmt.Sprintf("engine %s: swept network invalid: %v", run.name, err)}
	}
	if merged.NumLUTs() > net.NumLUTs() {
		return &Failure{Check: "apply-grew", Net: net,
			Detail: fmt.Sprintf("engine %s: sweep grew the network: %d -> %d LUTs", run.name, net.NumLUTs(), merged.NumLUTs())}
	}
	mergedTables := NodeTables(merged)
	pos, mpos := net.POs(), merged.POs()
	for i := range pos {
		if !tables[pos[i].Driver].Equal(mergedTables[mpos[i].Driver]) {
			return &Failure{Check: "apply-mismatch", Net: net,
				Detail: fmt.Sprintf("engine %s: output %q changed function after sweep.Apply", run.name, pos[i].Name)}
		}
	}
	return nil
}

// firstDiff returns the lowest minterm at which two tables over the same
// inputs differ; the caller knows they do.
func firstDiff(a, b tt.Table) int {
	bw := b.Words()
	for w, x := range a.Words() {
		if d := x ^ bw[w]; d != 0 {
			return w*64 + bits.TrailingZeros64(d)
		}
	}
	panic("fuzz: firstDiff on equal tables")
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
