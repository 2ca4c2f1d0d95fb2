package prover

import (
	"context"
	"runtime"

	"simgen/internal/chaos"
	"simgen/internal/network"
	"simgen/internal/obs"
)

// Spin counts for injected delays, in cooperative yields rather than wall
// time so perturbation stays deterministic-ish on loaded machines.
const (
	chaosDelaySpins   = 32
	chaosTimeoutSpins = 256
)

// WithChaos wraps an engine with deterministic fault injection at the
// Engine boundary: the injector is consulted once per Prove call at
// chaos.PointVerdict and may delay the call, fail it transiently
// (Result.Transient is set so the scheduler can retry), simulate a slow
// timeout, or panic it (recovered by isolated parallel workers). Injected
// actions are emitted as KindPerturb events on tr.
//
// Testing only: production sweeps never install an injector.
func WithChaos(e Engine, inj chaos.Injector, tr obs.Tracer) Engine {
	return &chaosEngine{inner: e, inj: inj, tr: obs.OrNop(tr)}
}

type chaosEngine struct {
	inner Engine
	inj   chaos.Injector
	tr    obs.Tracer
}

func (c *chaosEngine) Learn(a, b network.NodeID) { c.inner.Learn(a, b) }

func (c *chaosEngine) Watch(ctx context.Context) (stop func()) { return c.inner.Watch(ctx) }

func (c *chaosEngine) Prove(ctx context.Context, a, b network.NodeID, budget Budget) Result {
	act := c.inj.At(chaos.PointVerdict, int32(a), int32(b))
	switch act {
	case chaos.ActFail:
		c.emit(act, a, b)
		return Result{Verdict: Unknown, Transient: true}
	case chaos.ActTimeout:
		c.emit(act, a, b)
		for i := 0; i < chaosTimeoutSpins; i++ {
			runtime.Gosched()
		}
		return Result{Verdict: Unknown, Transient: true}
	case chaos.ActPanic:
		c.emit(act, a, b)
		panic("prover: injected chaos panic")
	case chaos.ActYield:
		c.emit(act, a, b)
		runtime.Gosched()
	case chaos.ActDelay:
		c.emit(act, a, b)
		for i := 0; i < chaosDelaySpins; i++ {
			runtime.Gosched()
		}
	}
	return c.inner.Prove(ctx, a, b, budget)
}

func (c *chaosEngine) emit(act chaos.Action, a, b network.NodeID) {
	c.tr.Emit(obs.Event{Kind: obs.KindPerturb,
		Point: chaos.PointVerdict.String(), Act: act.String(),
		A: int32(a), B: int32(b)})
}
