package prover_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"simgen/internal/blif"
	"simgen/internal/network"
	"simgen/internal/prover"
	"simgen/internal/sweep"
	"simgen/internal/word"
)

// Golden digests of the word plan over the committed mul8x8 CEC pair: every
// node's 256-lane signature, and the sorted frontier-pair list the word
// stage proves anchors from. Datapath SAT calls depend on that frontier
// set, so any change to how signatures are drawn or evaluated shows here.
const (
	goldenSigSHA   = "d362e88274eb8f9ff694a484db233487477290a0f31ae70ccc0232c8445a5c9d"
	goldenPairsSHA = "84b169b6000efae5b9018880e460101e0f1ed80009f357b3e0b7dd39ee127c75"
	goldenPairs    = 135
)

func readBLIF(t *testing.T, name string) *network.Network {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "datapath", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net, err := blif.Parse(f)
	if err != nil {
		t.Fatalf("parsing %s: %v", name, err)
	}
	return net
}

func TestWordPlanGolden(t *testing.T) {
	net, _, err := sweep.Combine(readBLIF(t, "mul8x8_a.blif"), readBLIF(t, "mul8x8_b.blif"))
	if err != nil {
		t.Fatal(err)
	}
	plan := prover.NewWordPlan(net, word.Detect(net))

	h := sha256.New()
	for id := 0; id < net.NumNodes(); id++ {
		for _, w := range plan.Sig(network.NodeID(id)) {
			h.Write(binary.LittleEndian.AppendUint64(nil, w))
		}
	}
	sigSHA := hex.EncodeToString(h.Sum(nil))

	pairs := prover.FrontierPairList(plan)
	h = sha256.New()
	for _, p := range pairs {
		for _, v := range p {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
		}
	}
	pairsSHA := hex.EncodeToString(h.Sum(nil))

	if sigSHA != goldenSigSHA || pairsSHA != goldenPairsSHA || len(pairs) != goldenPairs {
		t.Fatalf("word plan drifted from the golden:\n signatures %s (want %s)\n pairs %d %s (want %d %s)",
			sigSHA, goldenSigSHA, len(pairs), pairsSHA, goldenPairs, goldenPairsSHA)
	}
}
