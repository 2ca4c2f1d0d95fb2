package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"simgen/internal/blif"
	"simgen/internal/network"
	"simgen/internal/sweep"
)

// The datapath workload checks the committed testdata/datapath pairs with
// the word-staged adaptive portfolio, one op per pair: what `cmd/sweep
// -engine portfolio -word -adaptive -seed <seed> a.blif b.blif` runs. The prover, the SAT solver and the word stage own its wall; its
// input comes from the BLIF parser, not the mapper.

// dpPair is one CEC op's circuits and known verdict.
type dpPair struct {
	a, b  string
	equal bool
}

// datapathPairs are the corpus pairs, cheapest first. Every _a/_b pair is
// equivalent; mul8x8_a against mul8x8_neq is not.
var datapathPairs = []dpPair{
	{"cmp16_a", "cmp16_b", true},
	{"bshift8_a", "bshift8_b", true},
	{"alu8red_a", "alu8red_b", true},
	{"add16csel_a", "add16csel_b", true},
	{"mul8x8_a", "mul8x8_b", true},
	{"mul8x8_a", "mul8x8_neq", false},
	{"mul10x10_a", "mul10x10_b", true},
	{"mulbooth8_a", "mulbooth8_b", true},
}

type dpOp struct {
	pair dpPair
	a, b []byte // BLIF text
}

type datapath struct {
	cfg config
	ops []dpOp
}

// setupDatapath reads the corpus and warms up on its cheapest pairs.
func setupDatapath(cfg config) (instance, error) {
	d := &datapath{cfg: cfg}
	read := func(name string) ([]byte, error) {
		return os.ReadFile(filepath.Join(cfg.root, "testdata", "datapath", name+".blif"))
	}
	for _, pr := range datapathPairs {
		a, err := read(pr.a)
		if err != nil {
			return nil, err
		}
		b, err := read(pr.b)
		if err != nil {
			return nil, err
		}
		d.ops = append(d.ops, dpOp{pair: pr, a: a, b: b})
	}
	if cfg.maxOps > 0 && cfg.maxOps < len(d.ops) {
		d.ops = d.ops[:cfg.maxOps]
	}
	for _, op := range d.ops[:min(warmups, len(d.ops))] {
		if _, err := datapathOp(context.Background(), nil, -1, op, cfg.seed); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return d, nil
}

func (d *datapath) close() error { return nil }

func (d *datapath) pass(p *pass) {
	for _, op := range d.ops {
		p.op(op.pair.a+"/"+op.pair.b, func(ctx context.Context, root int32) (func() error, error) {
			out, err := datapathOp(ctx, p.tr, root, op, d.cfg.seed)
			if err != nil {
				return nil, err
			}
			res := out.res
			p.addSweep(res.Sweep)
			p.satCalls += res.POCalls
			p.add("sweep.po_calls", float64(res.POCalls))
			p.addGen(out.batches.gen)
			return func() error {
				equal := res.Equivalent
				if p.plant.flipVerdict {
					equal = !equal
				}
				switch {
				case res.Undecided:
					return fmt.Errorf("undecided on output %s", res.UndecidedPO)
				case equal != op.pair.equal:
					return fmt.Errorf("verdict equivalent=%v, known answer %v", equal, op.pair.equal)
				case !equal:
					return checkCounterexample(out.a, out.b, res.Counterexample)
				}
				return nil
			}, nil
		})
	}
}

type dpOut struct {
	a, b    *network.Network
	res     sweep.CECResult
	batches *batchTimer
}

// datapathOp parses both circuits and checks them with CEC.
func datapathOp(ctx context.Context, tr *tracer, root int32, op dpOp, seed int64) (dpOut, error) {
	var out dpOut
	sp := tr.begin(root, "blif")
	a, err := blif.Parse(bytes.NewReader(op.a))
	tr.end(sp)
	if err != nil {
		return out, err
	}
	sp = tr.begin(root, "blif")
	b, err := blif.Parse(bytes.NewReader(op.b))
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.a, out.b = a, b
	opts := cliSweepOptions()
	opts.Engine = sweep.EnginePortfolio
	opts.WordStage = true
	opts.Adaptive = true
	out.batches = &batchTimer{}
	if tr != nil {
		opts.Tracer = out.batches
	}
	sp = tr.begin(root, "sweep.cec")
	out.res, err = sweep.CECContext(ctx, a, b, sweep.CECOptions{
		Sweep:            opts,
		GuidedIterations: guidedIters,
		Method:           "simgen",
		Seed:             seed,
		Workers:          1,
	})
	tr.end(sp)
	tr.aggregate(sp, "core.gen", out.batches.dur)
	tr.aggregate(sp, "prover", out.res.Sweep.SATTime)
	tr.aggregate(sp, "sweep.po", out.res.POTime)
	return out, err
}
