package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"

	"simgen/internal/blif"
	"simgen/internal/core"
	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/pcache"
	"simgen/internal/sim"
	"simgen/internal/sweep"
)

// The eco workload is incremental re-verification after a small edit: each
// op re-sweeps an edited circuit against its base revision with a cache
// the base run filled, as `cmd/sweep -method none -seed <seed> -cache-dir
// d -base base.blif edit.blif` does. pcache owns its wall (diff, journal
// load, probes and revalidation, compaction); SAT and generation do
// almost nothing. It is the sweep layer used the opposite way from suite.

// ecoCircuits are the genbench circuits the workload edits, cheapest
// first. The set is sized so that three cold prefills fit the set-up
// budget; the ITC'99 circuits, whose prefill costs the most, are left out
// for that reason. Several edits per circuit give a pass more ops without
// more prefills.
var ecoCircuits = []string{"alu4", "apex2", "priority", "dalu", "e64", "log2", "k2", "m_ctrl"}

const (
	ecoEdits = 4 // edits per circuit
	ecoFlips = 4 // LUTs one edit changes, one truth-table bit each
)

// ecoCircuit is one base revision and the cache its cold run filled.
type ecoCircuit struct {
	name  string
	base  []byte // BLIF text
	cache string
}

// ecoEdit is one op: an edited revision of a base circuit.
type ecoEdit struct {
	c    *ecoCircuit
	k    int
	edit []byte // BLIF text
}

type eco struct {
	cfg config
	dir string
	ops []ecoEdit
}

func setupEco(cfg config) (instance, error) { return newEco(cfg, ecoCircuits) }

// newEco writes each circuit's base and ecoEdits edits of it, and fills
// each circuit's cache with a cold sweep of its base.
func newEco(cfg config, names []string) (*eco, error) {
	if cfg.maxOps > 0 && cfg.maxOps < len(names) {
		names = names[:cfg.maxOps] // the first ops edit the first circuits
	}
	dir, err := os.MkdirTemp("", "simgen-bench-eco-")
	if err != nil {
		return nil, err
	}
	e := &eco{cfg: cfg, dir: dir}
	bits := rand.New(rand.NewSource(cfg.seed))
	var circuits []*ecoCircuit
	edits := map[*ecoCircuit][][]byte{}
	for _, name := range names {
		c, ed, err := e.prepare(name, bits)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		circuits = append(circuits, c)
		edits[c] = ed
	}
	for k := 0; k < ecoEdits; k++ {
		for _, c := range circuits {
			e.ops = append(e.ops, ecoEdit{c: c, k: k, edit: edits[c][k]})
		}
	}
	if cfg.maxOps > 0 && cfg.maxOps < len(e.ops) {
		e.ops = e.ops[:cfg.maxOps]
	}
	return e, nil
}

func (e *eco) prepare(name string, bits *rand.Rand) (*ecoCircuit, [][]byte, error) {
	c := &ecoCircuit{name: name, cache: filepath.Join(e.dir, name)}
	b, ok := genbench.ByName(name)
	if !ok {
		return nil, nil, errors.New("unknown benchmark")
	}
	net, err := b.LUTNetwork()
	if err != nil {
		return nil, nil, err
	}
	if c.base, err = blifText(net); err != nil {
		return nil, nil, err
	}
	var edits [][]byte
	for k := 0; k < ecoEdits; k++ {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d", name, k)
		sites := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
		text, err := blifText(edit(net, sites, bits))
		if err != nil {
			return nil, nil, err
		}
		edits = append(edits, text)
	}
	return c, edits, prefill(c.cache, c.base, e.cfg.seed)
}

// edit returns a copy of net with one truth-table bit flipped in each of
// ecoFlips LUTs, the way fuzz.Mutate flips one. The LUTs come from sites,
// which the circuit's name and the edit's index seed, so every run edits
// the same places and re-verifies a region of the same size; bits, which
// the run's seed drives, picks the bit each flip changes.
func edit(net *network.Network, sites, bits *rand.Rand) *network.Network {
	var luts []network.NodeID
	for id := 0; id < net.NumNodes(); id++ {
		if net.Node(network.NodeID(id)).Kind == network.KindLUT {
			luts = append(luts, network.NodeID(id))
		}
	}
	out := net.Clone()
	for i := 0; i < ecoFlips; i++ {
		nd := out.Node(luts[sites.Intn(len(luts))])
		fn := nd.Func.Clone()
		m := bits.Intn(fn.NumMinterms())
		fn.SetBit(m, !fn.Bit(m))
		nd.Func = fn
	}
	out.Invalidate()
	return out
}

func blifText(net *network.Network) ([]byte, error) {
	var buf bytes.Buffer
	err := blif.Write(&buf, net)
	return buf.Bytes(), err
}

// prefill runs what `cmd/sweep -cache-dir dir -seed <seed> base.blif`
// runs: a cold simgen-guided sweep that records its patterns and proofs.
func prefill(dir string, base []byte, seed int64) error {
	net, err := blif.Parse(bytes.NewReader(base))
	if err != nil {
		return err
	}
	store, err := pcache.Open(dir)
	if err != nil {
		return err
	}
	sess := pcache.NewSession(store, net, nil)
	run := core.NewRunner(net, 1, seed)
	sess.Replay(context.Background(), run)
	src := &recordingSource{inner: core.NewGenerator(net, core.StrategySimGen, seed+1)}
	for i := 0; i < guidedIters; i++ {
		before := run.Classes.NumClasses()
		run.Step(src, i)
		sess.RecordPatterns(src.batch, run.Classes.NumClasses()-before)
		src.batch = src.batch[:0]
	}
	opts := cliSweepOptions()
	opts.Cache = sess
	res := sweep.New(net, run.Classes, opts).Run()
	if err := store.Close(); err != nil {
		return err
	}
	if res.Incomplete || res.Unresolved > 0 {
		return fmt.Errorf("cold sweep left %d pairs unresolved", res.Unresolved)
	}
	return nil
}

// recordingSource keeps a copy of each batch so it can be recorded in the
// cache, as cmd/sweep does for cache-enabled runs.
type recordingSource struct {
	inner core.VectorSource
	batch [][]bool
}

func (s *recordingSource) Name() string { return s.inner.Name() }

func (s *recordingSource) NextBatch(classes *sim.Classes, max int) [][]bool {
	b := s.inner.NextBatch(classes, max)
	s.batch = append(s.batch, b...)
	return b
}

func (e *eco) close() error { return os.RemoveAll(e.dir) }

func (e *eco) pass(p *pass) {
	for _, op := range e.ops {
		name := fmt.Sprintf("%s edit %d", op.c.name, op.k)
		// Each op starts from a fresh copy of the filled cache (untimed).
		dir := filepath.Join(e.dir, "op")
		if err := copyDir(op.c.cache, dir); err != nil {
			p.record(name, 0, fmt.Errorf("copying the cache: %w", err))
			continue
		}
		p.op(name, func(ctx context.Context, root int32) (func() error, error) {
			out, err := ecoOp(ctx, p.tr, root, op.c.base, op.edit, dir, e.cfg.seed)
			if err != nil {
				return nil, err
			}
			p.addSweep(out.res)
			p.add("sweep.out_luts", float64(out.reduced.NumLUTs()))
			p.add("pcache.masked", float64(out.masked))
			p.add("pcache.nodes", float64(out.net.NumNodes()))
			return func() error {
				return checkSwept(out.res, out.net, p.planted(out.net, out.rep, out.reduced, e.cfg.seed), e.cfg.seed)
			}, nil
		})
		if err := os.RemoveAll(dir); err != nil {
			p.record(name, 0, err)
		}
	}
}

type ecoOut struct {
	net     *network.Network
	res     sweep.Result
	rep     func(network.NodeID) network.NodeID
	reduced *network.Network
	masked  int
	cost    int // Eq. 5 cost before sweeping
}

// ecoOp re-sweeps an edit against its base with the cache in dir, in
// cmd/sweep's order: parse, open, session, parse base, diff and mask,
// random simulation, pattern replay, masked sweep, apply, close.
func ecoOp(ctx context.Context, tr *tracer, root int32, baseText, editText []byte, dir string, seed int64) (out ecoOut, err error) {
	sp := tr.begin(root, "blif")
	net, err := blif.Parse(bytes.NewReader(editText))
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.net = net

	sp = tr.begin(root, "pcache.open")
	store, err := pcache.Open(dir)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	closed := false
	defer func() {
		if !closed {
			store.Close()
		}
	}()
	sp = tr.begin(root, "pcache.session")
	sess := pcache.NewSession(store, net, nil)
	tr.end(sp)

	sp = tr.begin(root, "blif")
	base, err := blif.Parse(bytes.NewReader(baseText))
	tr.end(sp)
	if err != nil {
		return out, err
	}
	sp = tr.begin(root, "pcache.diff")
	mask := pcache.TFOMask(net, pcache.Diff(base, net))
	tr.end(sp)
	for _, in := range mask {
		if in {
			out.masked++
		}
	}

	sp = tr.begin(root, "sim.random")
	run := core.NewRunner(net, 1, seed)
	tr.end(sp)
	batches := &batchTimer{}
	if tr != nil {
		run.SetTracer(batches)
	}
	sp = tr.begin(root, "pcache.replay")
	sess.Replay(ctx, run)
	tr.end(sp)
	tr.aggregate(sp, "sim", batches.dur)
	out.cost = run.Classes.Cost()

	opts := cliSweepOptions()
	opts.Cache = sess
	opts.TFOMask = mask
	sp = tr.begin(root, "sweep")
	sw := sweep.New(net, run.Classes, opts)
	out.res = sw.RunContext(ctx)
	tr.end(sp)
	tr.aggregate(sp, "prover", out.res.SATTime)
	out.rep = sw.Rep

	sp = tr.begin(root, "sweep.apply")
	out.reduced = sweep.Apply(net, sw.Rep)
	tr.end(sp)

	sp = tr.begin(root, "pcache.close")
	closed = true
	err = store.Close()
	tr.end(sp)
	return out, err
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
