package sweepd

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"simgen/internal/load"
	"simgen/internal/network"
	"simgen/internal/obs"
)

// Loader resolves CircuitRefs into networks. Built-in benchmark networks
// are generated, mapped, and cover-warmed once, then shared read-only
// across every job that names them — the resident-process amortization a
// cold-started CLI cannot have. Inline payloads and data-dir files are
// parsed per job (their bytes are the client's business, and a fresh parse
// keeps the network private to the job).
type Loader struct {
	dataDir string

	mu    sync.Mutex
	bench map[string]*network.Network

	hits, misses *obs.Counter
}

// NewLoader creates a loader. dataDir roots Path refs ("" disables them);
// m receives the benchmark-cache hit/miss counters (nil for none).
func NewLoader(dataDir string, m *obs.Metrics) *Loader {
	l := &Loader{dataDir: dataDir, bench: make(map[string]*network.Network)}
	if m != nil {
		l.hits = m.Counter("sweepd.cache.benchmark_hits")
		l.misses = m.Counter("sweepd.cache.benchmark_misses")
	}
	return l
}

// Load resolves one ref. Benchmark networks come out of the shared cache
// and MUST be treated as read-only by the caller; every mutating pipeline
// stage (classes, union-find, counterexample pool) already keeps its state
// off the network, and the lazily built network caches (covers, fanouts,
// levels) are warmed before the network is published, so concurrent jobs
// only ever read it.
func (l *Loader) Load(ref CircuitRef) (*network.Network, error) {
	switch {
	case ref.BLIF != "":
		return load.Read(strings.NewReader(ref.BLIF), ".blif")
	case ref.Bench != "":
		return load.Read(strings.NewReader(ref.Bench), ".bench")
	case ref.AIGER != "":
		return load.Read(strings.NewReader(ref.AIGER), ".aag")
	case ref.Benchmark != "":
		return l.benchmark(ref.Benchmark)
	case ref.Path != "":
		return l.file(ref.Path)
	default:
		return nil, fmt.Errorf("sweepd: empty circuit reference")
	}
}

// benchmark returns the cached warmed network for a built-in benchmark,
// generating it on first use.
func (l *Loader) benchmark(name string) (*network.Network, error) {
	l.mu.Lock()
	if net, ok := l.bench[name]; ok {
		l.mu.Unlock()
		if l.hits != nil {
			l.hits.Add(1)
		}
		return net, nil
	}
	l.mu.Unlock()
	// Generate outside the lock: mapping a large benchmark is the
	// expensive part and must not serialize unrelated loads. A racing
	// duplicate generation is deterministic, so either copy may win.
	net, err := load.Benchmark(name)
	if err != nil {
		return nil, err
	}
	warm(net)
	if l.misses != nil {
		l.misses.Add(1)
	}
	l.mu.Lock()
	if cached, ok := l.bench[name]; ok {
		net = cached // lost the race; share the published copy
	} else {
		l.bench[name] = net
	}
	l.mu.Unlock()
	return net, nil
}

// file reads a circuit file under the data root by extension.
func (l *Loader) file(rel string) (*network.Network, error) {
	if l.dataDir == "" {
		return nil, fmt.Errorf("sweepd: path circuits disabled (no -data root)")
	}
	clean := filepath.Clean("/" + rel) // forces the path under the root
	return load.File(filepath.Join(l.dataDir, clean))
}

// warm forces the network's lazily built derived data (ISOP covers,
// fanouts, levels) so a cached network is read-only from publication on —
// the same warm-up the parallel scheduler performs before spawning
// workers.
func warm(net *network.Network) {
	for id := 0; id < net.NumNodes(); id++ {
		net.Covers(network.NodeID(id))
	}
	if net.NumNodes() > 0 {
		net.Fanouts(0)
		net.Level(network.NodeID(net.NumNodes() - 1))
	}
}
