package sat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestParseDIMACSBasic(t *testing.T) {
	src := `c sample
p cnf 3 3
1 2 0
-1 3 0
-2 -3 0
`
	s, nvars, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if nvars != 3 {
		t.Fatalf("nvars = %d", nvars)
	}
	if s.Solve() != Sat {
		t.Fatal("satisfiable formula reported UNSAT")
	}
	// Model check: (1|2) & (!1|3) & (!2|!3)
	v1, v2, v3 := s.Value(0), s.Value(1), s.Value(2)
	if !(v1 || v2) || !(!v1 || v3) || !(!v2 || !v3) {
		t.Fatal("model invalid")
	}
}

func TestParseDIMACSUnsat(t *testing.T) {
	src := "p cnf 1 2\n1 0\n-1 0\n"
	s, _, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() != Unsat {
		t.Fatal("contradiction not detected")
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"p cnf x 3\n1 0\n",
		"p dnf 3 3\n1 0\n",
		"p cnf 3\n",
		"1 2 0\n", // no problem line
		"p cnf 2 1\n1 z 0\n",
		// Variables a Lit cannot address are rejected before the solver
		// grows towards them.
		"p cnf 1 1\n2147483649 0\n",
		"p cnf 1 1\n-2147483649 0\n",
		"p cnf 1 1\n1073741825 0\n",
		"p cnf 1 1\n-9223372036854775808 0\n",
		"p cnf 1073741825 1\n1 0\n",
		"p cnf 9223372036854775807 1\n1 0\n",
	}
	for i, src := range cases {
		if _, _, err := ParseDIMACS(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestParseDIMACSImplicitVars(t *testing.T) {
	// Literals may reference variables beyond the declared count (some
	// generators are sloppy); the parser grows the solver.
	src := "p cnf 2 1\n1 5 0\n"
	s, _, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() < 5 {
		t.Fatalf("vars = %d, want >= 5", s.NumVars())
	}
	if s.Solve() != Sat {
		t.Fatal("should be SAT")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		nvars := 3 + rng.Intn(8)
		var cnf [][]Lit
		for i := 0; i < nvars*3; i++ {
			cl := make([]Lit, 1+rng.Intn(3))
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 1)
			}
			cnf = append(cnf, cl)
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, nvars, cnf); err != nil {
			t.Fatal(err)
		}
		s, nv, err := ParseDIMACS(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if nv != nvars {
			t.Fatalf("nvars round-trip: %d vs %d", nv, nvars)
		}
		wantSat, _ := bruteForce(nvars, cnf)
		got := s.Solve()
		if (got == Sat) != wantSat {
			t.Fatalf("trial %d: round-trip changed satisfiability", trial)
		}
	}
}
