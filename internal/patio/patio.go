// Package patio reads and writes simulation pattern files, so vectors
// generated by SimGen can be exported to external simulators and test
// benches, and externally produced patterns (e.g. manufacturing test sets)
// can be replayed through this repository's simulator.
//
// The format is one pattern per line, '0'/'1' per primary input in PI
// order, with optional '#' comments and blank lines:
//
//	# patterns for apex2 (39 PIs)
//	010110...
//	111000...
package patio

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Write emits the vectors, one line each, with a width header comment.
func Write(w io.Writer, vectors [][]bool) error {
	bw := bufio.NewWriter(w)
	if len(vectors) > 0 {
		fmt.Fprintf(bw, "# %d patterns, %d inputs\n", len(vectors), len(vectors[0]))
	}
	for _, v := range vectors {
		for _, b := range v {
			if b {
				bw.WriteByte('1')
			} else {
				bw.WriteByte('0')
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Read parses a pattern file. When width is positive, every pattern must
// have exactly that many bits; width 0 accepts any consistent width.
func Read(r io.Reader, width int) ([][]bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	var out [][]bool
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if width > 0 && len(line) != width {
			return nil, fmt.Errorf("patio:%d: pattern has %d bits, want %d", lineno, len(line), width)
		}
		if width == 0 && len(out) > 0 && len(line) != len(out[0]) {
			return nil, fmt.Errorf("patio:%d: inconsistent pattern width %d vs %d", lineno, len(line), len(out[0]))
		}
		v := make([]bool, len(line))
		for i := 0; i < len(line); i++ {
			switch line[i] {
			case '0':
			case '1':
				v[i] = true
			default:
				return nil, fmt.Errorf("patio:%d:%d: invalid bit %q", lineno, i+1, line[i])
			}
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
