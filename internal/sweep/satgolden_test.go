package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"simgen/internal/core"
	"simgen/internal/genbench"
	"simgen/internal/obs"
)

// goldenSATVerdictSHA pins every SAT prover call of the runs in
// TestSATVerdictGolden: the ordered prove_verdict events of engine "sat"
// (pair, verdict, conflicts, propagations). It was recorded before the
// solver's data layout was last rebuilt; any change to the CDCL search
// shows here as a moved conflict or propagation count.
const goldenSATVerdictSHA = "a5cd886017bb9dc7c603f226a426e8012386dc0c25c0bdf948da9d13a1bdae7f"

// hashSATVerdicts folds the recorded sat-engine verdict events into h and
// returns how many there were.
func hashSATVerdicts(h hash.Hash, rec *obs.Recorder) int {
	n := 0
	for _, ev := range rec.Filter(obs.KindProveVerdict) {
		if ev.Engine != "sat" {
			continue
		}
		var b []byte
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.A))
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.B))
		b = append(b, byte(ev.Verdict))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Conflicts))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Props))
		h.Write(b)
		n++
	}
	return n
}

// TestSATVerdictGolden runs the committed mul8x8 EQ and NEQ datapath pairs
// through word-staged portfolio CEC, and two genbench circuits through a
// budgeted SAT sweep, all single-worker and without the wall-time-driven
// adaptive policy, so the stream of SAT calls is deterministic.
func TestSATVerdictGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multiplier pairs are the slow half of the corpus")
	}
	h := sha256.New()
	dir := datapathDir(t)
	a := readCorpusBLIF(t, dir, "mul8x8_a.blif")
	for _, c := range []struct {
		other string
		eq    bool
	}{{"mul8x8_b.blif", true}, {"mul8x8_neq.blif", false}} {
		rec := &obs.Recorder{}
		res, err := CEC(a, readCorpusBLIF(t, dir, c.other), CECOptions{
			Seed:  1,
			Sweep: Options{Engine: EnginePortfolio, WordStage: true, Tracer: rec},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Equivalent != c.eq || res.Undecided {
			t.Fatalf("mul8x8_a vs %s: eq=%v undecided=%v", c.other, res.Equivalent, res.Undecided)
		}
		t.Logf("mul8x8_a vs %s: %d sat calls", c.other, hashSATVerdicts(h, rec))
	}

	for _, name := range []string{"square", "pdc"} {
		b, ok := genbench.ByName(name)
		if !ok {
			t.Fatalf("genbench lost %s", name)
		}
		net, err := b.LUTNetwork()
		if err != nil {
			t.Fatal(err)
		}
		rec := &obs.Recorder{}
		runner := core.NewRunner(net, 1, 1)
		New(net, runner.Classes, Options{ConflictBudget: 20000, Tracer: rec}).Run()
		t.Logf("%s sweep: %d sat calls", name, hashSATVerdicts(h, rec))
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSATVerdictSHA {
		t.Fatalf("sat verdict digest = %s, want %s (the search changed)", got, goldenSATVerdictSHA)
	}
}
