package core

import (
	"fmt"
	"strings"

	"simgen/internal/network"
)

// methods is the one table of guided-simulation methods by name: the
// paper's Table 1 strategy presets, the reverse- and random-simulation
// baselines, and "none" (no guided refinement). Every front end resolves
// its method flag or field through it.
var methods = []struct {
	name string
	src  func(net *network.Network, seed int64) VectorSource
}{
	{"simgen", generator(StrategySimGen)},
	{"ai+dc+mffc", generator(StrategySimGen)},
	{"ai+dc", generator(StrategyAIDC)},
	{"ai+rd", generator(StrategyAIRD)},
	{"si+rd", generator(StrategySIRD)},
	{"revs", func(net *network.Network, seed int64) VectorSource { return NewReverse(net, seed) }},
	{"rands", func(net *network.Network, seed int64) VectorSource { return NewRandom(net, seed) }},
	{"none", func(*network.Network, int64) VectorSource { return nil }},
}

func generator(s Strategy) func(*network.Network, int64) VectorSource {
	return func(net *network.Network, seed int64) VectorSource { return NewGenerator(net, s, seed) }
}

// CheckMethod reports whether NewSource knows the method name.
func CheckMethod(method string) error {
	names := make([]string, len(methods))
	for i, m := range methods {
		if m.name == method {
			return nil
		}
		names[i] = m.name
	}
	return fmt.Errorf("unknown method %q (want %s)", method, strings.Join(names, "|"))
}

// NewSource builds the named method's vector source, or nil for "none".
// It panics on a name CheckMethod rejects.
func NewSource(net *network.Network, method string, seed int64) VectorSource {
	for _, m := range methods {
		if m.name == method {
			return m.src(net, seed)
		}
	}
	panic(CheckMethod(method))
}
