package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxVars is the number of variables a Lit can address: variable
// maxVars-1 is the largest whose negated literal still fits an int32.
const maxVars = 1 << 30

// ParseDIMACS reads a CNF formula in DIMACS format into a fresh solver.
// It returns the solver and the number of variables declared in the
// problem line. Standard "c" comments and the optional trailing "%" / "0"
// markers of SATLIB files are tolerated. A variable count or literal
// beyond what a Lit can address is an error, reported before the solver
// grows.
func ParseDIMACS(r io.Reader) (*Solver, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	s := New()
	declared := -1
	var clause []Lit
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") || line == "%" {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, 0, fmt.Errorf("dimacs:%d: malformed problem line %q", lineno, line)
			}
			nv, err1 := strconv.Atoi(fields[2])
			_, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || nv < 0 {
				return nil, 0, fmt.Errorf("dimacs:%d: bad problem counts", lineno)
			}
			if nv > maxVars {
				return nil, 0, fmt.Errorf("dimacs:%d: %d variables exceed the limit of %d", lineno, nv, maxVars)
			}
			declared = nv
			for s.NumVars() < nv {
				s.NewVar()
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, 0, fmt.Errorf("dimacs:%d: bad literal %q", lineno, tok)
			}
			if v == 0 {
				s.AddClause(clause...)
				clause = clause[:0]
				continue
			}
			if v < -maxVars || v > maxVars {
				return nil, 0, fmt.Errorf("dimacs:%d: literal %s exceeds the variable limit of %d", lineno, tok, maxVars)
			}
			idx := v
			if idx < 0 {
				idx = -idx
			}
			for s.NumVars() < idx {
				s.NewVar()
			}
			clause = append(clause, MkLit(idx-1, v < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(clause) > 0 {
		s.AddClause(clause...)
	}
	if declared < 0 {
		return nil, 0, fmt.Errorf("dimacs: missing problem line")
	}
	return s, declared, nil
}

// WriteDIMACS emits a CNF in DIMACS format.
func WriteDIMACS(w io.Writer, nvars int, clauses [][]Lit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", nvars, len(clauses))
	for _, cl := range clauses {
		for _, l := range cl {
			v := l.Var() + 1
			if l.IsNeg() {
				v = -v
			}
			fmt.Fprintf(bw, "%d ", v)
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}
