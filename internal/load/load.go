// Package load resolves the circuits every front end accepts — cmd/sweep,
// cmd/simgen and sweepd alike: a netlist read by its file extension, or a
// built-in benchmark name.
package load

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"simgen/internal/aiger"
	"simgen/internal/blif"
	"simgen/internal/genbench"
	"simgen/internal/mapper"
	"simgen/internal/network"
)

// readers maps a file extension to its format's reader. AIGER graphs are
// mapped into 6-input LUTs with the mapper's default options, the
// preprocessing every benchmark gets.
var readers = map[string]func(io.Reader) (*network.Network, error){
	".blif":  blif.Parse,
	".bench": blif.ParseBench,
	".aag":   readAIGER,
	".aig":   readAIGER,
}

func readAIGER(r io.Reader) (*network.Network, error) {
	g, err := aiger.Read(r)
	if err != nil {
		return nil, err
	}
	return mapper.Map(g, mapper.DefaultOptions())
}

// Read parses a circuit in the format the file extension ext names
// (.blif, .bench, .aag or .aig, in any case).
func Read(r io.Reader, ext string) (*network.Network, error) {
	read, ok := readers[strings.ToLower(ext)]
	if !ok {
		return nil, fmt.Errorf("unsupported circuit extension %q (want .blif, .bench, .aag or .aig)", ext)
	}
	return read(r)
}

// File reads the circuit at path in the format its extension names.
func File(path string) (*network.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, filepath.Ext(path))
}

// Lookup finds the named built-in benchmark in the paper's suite first and
// then in the datapath family, without building it.
func Lookup(name string) (genbench.Benchmark, error) {
	b, ok := genbench.ByName(name)
	if !ok {
		b, ok = genbench.DatapathByName(name)
	}
	if !ok {
		return genbench.Benchmark{}, fmt.Errorf("unknown benchmark %q", name)
	}
	return b, nil
}

// Benchmark generates the named built-in benchmark (see Lookup) and maps it
// into 6-input LUTs.
func Benchmark(name string) (*network.Network, error) {
	b, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return b.LUTNetwork()
}
