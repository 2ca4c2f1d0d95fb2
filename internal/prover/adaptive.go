package prover

import (
	"math/bits"
	"strconv"
	"sync"
	"time"

	"simgen/internal/network"
)

// ShapeKey buckets proof obligations by the structural features that
// predict which engine settles them cheapest: combined support width
// (log2 bucket), membership in a detected word, and the widest local
// fanin. The buckets are coarse on purpose — attribution needs enough
// samples per bucket to mean anything.
type ShapeKey struct {
	SupportBucket int8
	InWord        bool
	FaninBucket   int8
}

// String renders the key for traces ("s5w1f4": support bucket 5, in-word,
// fanin bucket 4).
func (k ShapeKey) String() string {
	w := byte('0')
	if k.InWord {
		w = '1'
	}
	return "s" + strconv.Itoa(int(k.SupportBucket)) + "w" + string(w) + "f" + strconv.Itoa(int(k.FaninBucket))
}

// attrMinAttempts is how many times an engine must have been tried on a
// shape before its attribution is trusted for first-engine picks.
const attrMinAttempts = 8

type attrCell struct {
	attempts int
	settled  int
	time     time.Duration
}

type attrKey struct {
	shape  ShapeKey
	engine string
}

// Attribution accumulates per-(shape, engine) wall-time and settle-rate
// statistics — the same numbers the obs layer reports per engine, keyed by
// obligation shape so the portfolio can pick its first engine instead of
// always walking the fixed ladder. One Attribution is shared by every
// worker's engine; all methods are goroutine-safe.
type Attribution struct {
	mu    sync.Mutex
	cells map[attrKey]*attrCell
}

// NewAttribution creates an empty table.
func NewAttribution() *Attribution {
	return &Attribution{cells: make(map[attrKey]*attrCell)}
}

// Observe records one engine attempt on a shape: whether it settled the
// pair (Equal or Differ) and the wall time it spent.
func (t *Attribution) Observe(shape ShapeKey, engine string, settled bool, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := attrKey{shape: shape, engine: engine}
	c := t.cells[key]
	if c == nil {
		c = &attrCell{}
		t.cells[key] = c
	}
	c.attempts++
	if settled {
		c.settled++
	}
	c.time += d
}

// Best returns the engine with the lowest expected cost per settled pair
// for the shape, or ok=false when no engine has both enough attempts and a
// nonzero settle rate. Ties break by engine name for determinism.
func (t *Attribution) Best(shape ShapeKey) (engine string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var best string
	var bestScore float64
	for key, c := range t.cells {
		if key.shape != shape || c.attempts < attrMinAttempts || c.settled == 0 {
			continue
		}
		// Expected cost of settling one pair with this engine: total time
		// spent divided by pairs settled — unsettled attempts inflate it.
		score := float64(c.time) / float64(c.settled)
		if best == "" || score < bestScore || (score == bestScore && key.engine < best) {
			best, bestScore = key.engine, score
		}
	}
	return best, best != ""
}

// shapeOf computes the obligation shape for the adaptive policy.
func (p *Portfolio) shapeOf(a, b network.NodeID) ShapeKey {
	n := len(Support(p.net, a, b))
	fa := len(p.net.Node(a).Fanins)
	if fb := len(p.net.Node(b).Fanins); fb > fa {
		fa = fb
	}
	inw := p.word != nil && p.word.applies(a, b)
	return ShapeKey{
		SupportBucket: int8(bits.Len(uint(n))),
		InWord:        inw,
		FaninBucket:   int8(bits.Len(uint(fa))),
	}
}

// observe feeds one stage outcome back into the attribution table.
func (p *Portfolio) observe(shape ShapeKey, engine string, r Result) {
	if p.attr == nil {
		return
	}
	p.attr.Observe(shape, engine, r.Verdict != Unknown, r.Stats.SATTime)
}
