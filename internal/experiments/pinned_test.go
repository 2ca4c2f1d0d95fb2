package experiments

import (
	"fmt"
	"testing"
)

// TestPaperProtocolPinned pins the paper-protocol numbers over the
// quickCfg circuits: Table 1's per-circuit cost for every method and
// Table 2's SAT-call and cost columns. The experiments harness runs the
// paper's fixed iteration counts, so a change to when the production
// guided driver stops must leave every value here as it is.
func TestPaperProtocolPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Tables 1 and 2 over eight circuits")
	}
	cfg := quickCfg()
	t1, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, name := range cfg.Benchmarks {
		var costs []int
		for _, r := range t1.PerBench[name] {
			costs = append(costs, r.Cost)
		}
		got["t1/"+name] = fmt.Sprint(costs)
	}
	for _, r := range t2 {
		got["t2/"+r.Bench] = fmt.Sprint([]int{r.CallsRevS, r.CallsSGen, r.CostRevS, r.CostSGen})
	}
	// Costs recorded before the production driver gained its stagnation
	// stop; Table 2's calls re-recorded when the sweep took its
	// shallowest-pair-first order. Table 1: RevS, SI+RD, AI+RD, AI+DC,
	// SimGen costs. Table 2: RevS calls, SimGen calls, RevS cost, SimGen
	// cost.
	want := map[string]string{
		"t1/alu4":     "[3 3 3 3 3]",
		"t1/misex3c":  "[71 57 59 59 59]",
		"t1/ex5p":     "[83 71 75 72 72]",
		"t1/apex2":    "[63 60 54 57 57]",
		"t1/pdc":      "[286 276 284 281 281]",
		"t1/spla":     "[266 258 260 259 259]",
		"t1/ex1010":   "[137 132 131 131 131]",
		"t1/priority": "[138 120 127 122 122]",
		"t2/alu4":     "[3 3 3 3]",
		"t2/misex3c":  "[34 35 71 59]",
		"t2/ex5p":     "[42 38 83 72]",
		"t2/apex2":    "[42 35 63 57]",
		"t2/pdc":      "[107 107 286 281]",
		"t2/spla":     "[99 92 266 259]",
		"t2/ex1010":   "[55 59 137 131]",
		"t2/priority": "[34 30 138 122]",
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: got %s, want %s", k, v, want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d pinned rows, want %d", len(got), len(want))
	}
}
