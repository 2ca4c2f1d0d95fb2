package pcache

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store is the disk-backed verification memory shared across runs (and,
// in sweepd, across jobs): a journal of verdicts and patterns keyed on
// NPN-canonical cone structure —
//
//   - proven equivalences ("eq" records), kept as a union-find over
//     structural keys so a warm run hits even when its obligations pair
//     different members of the same proven class than the cold run did,
//   - disproofs ("neq" records) with the separating assignment that
//     revalidates them,
//   - high-split-power simulation patterns ("pat" records) with their
//     measured split-power scores, recycled as a seed stream and evicted
//     lowest-score-first to keep the store bounded.
//
// The journal is JSON Lines (journal.jsonl under the store directory):
// live records append during a run, Close compacts the surviving state
// into a fresh file via an atomic rename. A truncated or garbage journal
// is detected on Open, logged, and discarded — the run proceeds
// cache-cold; it never fails and never trusts a partial parse. Older
// journals may also hold "clause" records (solver hints) and "rung"
// fields; Open skips both and the next Close compacts them away.
type Store struct {
	mu        sync.Mutex
	dir       string
	path      string
	app       *os.File
	recovered bool
	closed    bool

	// Proven equivalences: union-find over keys for transitive lookups,
	// plus the direct records' check hashes for validation and the rewrite.
	parent map[uint64]uint64
	eq     map[[2]uint64]uint64
	poison map[uint64]bool // poisoned class roots: revalidation failed inside

	neq map[[2]uint64]neqRec

	pats   []Pattern
	patIdx map[string]int // packed bits -> pats index

	evicted int64

	// PatternCap bounds the pattern pool (lowest score evicted first).
	PatternCap int
}

// Pattern is one recycled simulation vector with its split-power score.
type Pattern struct {
	Bits  []bool
	Score int
}

type neqRec struct {
	chk uint64
	cex []bool
}

// Store bounds: DefaultPatternCap is PatternCap's initial value;
// recordCap bounds each proof map (further adds are dropped).
const (
	DefaultPatternCap = 8192
	recordCap         = 1 << 20
)

// journal schema: one JSON object per line, discriminated by "t".
const journalName = "journal.jsonl"

type rec struct {
	T   string `json:"t"`
	V   int    `json:"v,omitempty"`   // hdr: format version
	A   string `json:"a,omitempty"`   // eq/neq: sorted key pair, hex
	B   string `json:"b,omitempty"`   //
	C   string `json:"c,omitempty"`   // check hash, hex
	Cex string `json:"cex,omitempty"` // neq: packed counterexample, hex
	Vec string `json:"vec,omitempty"` // pat: packed vector, hex
	NPI int    `json:"npi,omitempty"` // neq/pat: primary-input count
	Sc  int    `json:"sc,omitempty"`  // pat: split-power score
}

const journalVersion = 1

// Open opens (or creates) the store rooted at dir. A corrupt journal —
// truncated mid-record, garbage, or an unknown version — is logged and
// set aside; the returned store starts cold and Recovered reports true.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:        dir,
		path:       filepath.Join(dir, journalName),
		parent:     map[uint64]uint64{},
		eq:         map[[2]uint64]uint64{},
		poison:     map[uint64]bool{},
		neq:        map[[2]uint64]neqRec{},
		patIdx:     map[string]int{},
		PatternCap: DefaultPatternCap,
	}
	if err := s.load(); err != nil {
		log.Printf("pcache: %s: %v; discarding cache, proceeding cold", s.path, err)
		s.reset()
		s.recovered = true
		// Keep the bad journal for post-mortems; the compacting Close
		// writes a fresh one.
		_ = os.Rename(s.path, s.path+".corrupt")
	}
	app, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if st, err := app.Stat(); err == nil && st.Size() == 0 {
		hdr, _ := json.Marshal(rec{T: "hdr", V: journalVersion})
		_, _ = app.Write(append(hdr, '\n'))
	}
	s.app = app
	return s, nil
}

// reset discards all in-memory state.
func (s *Store) reset() {
	s.parent = map[uint64]uint64{}
	s.eq = map[[2]uint64]uint64{}
	s.poison = map[uint64]bool{}
	s.neq = map[[2]uint64]neqRec{}
	s.pats = nil
	s.patIdx = map[string]int{}
}

// load parses the journal. Any malformed line aborts the whole load: a
// cache that might be half-read is worth less than no cache.
func (s *Store) load() error {
	f, err := os.Open(s.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		var r rec
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		if line == 1 {
			if r.T != "hdr" || r.V != journalVersion {
				return fmt.Errorf("line 1: not a pcache v%d journal", journalVersion)
			}
			continue
		}
		if err := s.apply(r, line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %v", line, err)
	}
	return nil
}

func (s *Store) apply(r rec, line int) error {
	key, chk, err := r.keys()
	if r.T != "pat" && err != nil {
		return fmt.Errorf("line %d: %v", line, err)
	}
	switch r.T {
	case "eq":
		s.eq[key] = chk
		s.link(key[0], key[1])
	case "neq":
		cex, err := unpackBits(r.Cex, r.NPI)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		s.neq[key] = neqRec{chk: chk, cex: cex}
	case "clause":
		// A solver hint from an older journal: nothing reads it, so the
		// next Close drops it.
	case "pat":
		bits, err := unpackBits(r.Vec, r.NPI)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		s.addPatternLocked(bits, r.Sc)
	default:
		return fmt.Errorf("line %d: unknown record kind %q", line, r.T)
	}
	return nil
}

// keys decodes the key pair and check hash of a proof record.
func (r rec) keys() ([2]uint64, uint64, error) {
	a, err := parseHex64(r.A)
	if err != nil {
		return [2]uint64{}, 0, err
	}
	b, err := parseHex64(r.B)
	if err != nil {
		return [2]uint64{}, 0, err
	}
	c, err := parseHex64(r.C)
	if err != nil {
		return [2]uint64{}, 0, err
	}
	return [2]uint64{a, b}, c, nil
}

func parseHex64(s string) (uint64, error) {
	if len(s) == 0 || len(s) > 16 {
		return 0, fmt.Errorf("bad key %q", s)
	}
	var v uint64
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, fmt.Errorf("bad key %q", s)
		}
	}
	return v, nil
}

func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// packBits packs a bool vector into hex, LSB-first within each byte.
func packBits(bits []bool) string {
	buf := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			buf[i/8] |= 1 << uint(i%8)
		}
	}
	return hex.EncodeToString(buf)
}

func unpackBits(s string, n int) ([]bool, error) {
	buf, err := hex.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if n < 0 || len(buf) != (n+7)/8 {
		return nil, fmt.Errorf("packed vector is %d bytes, want %d bits", len(buf), n)
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = buf[i/8]>>uint(i%8)&1 == 1
	}
	return bits, nil
}

// Recovered reports whether Open discarded a corrupt journal.
func (s *Store) Recovered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// find returns the union-find root of key k (k itself when unrecorded).
func (s *Store) find(k uint64) uint64 {
	for {
		p, ok := s.parent[k]
		if !ok || p == k {
			return k
		}
		// Path halving.
		if gp, ok := s.parent[p]; ok {
			s.parent[k] = gp
		}
		k = p
	}
}

func (s *Store) link(a, b uint64) {
	ra, rb := s.find(a), s.find(b)
	if ra != rb {
		s.parent[rb] = ra
	}
}

// append writes one record line to the live journal.
func (s *Store) append(r rec) {
	if s.app == nil || s.closed {
		return
	}
	buf, err := json.Marshal(r)
	if err != nil {
		return
	}
	_, _ = s.app.Write(append(buf, '\n'))
}

// AddEqual records a proven equivalence between the cones keyed ka and kb.
func (s *Store) AddEqual(ka, kb, chk uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sortKeys(ka, kb)
	if _, ok := s.eq[key]; ok {
		return
	}
	if len(s.eq) >= recordCap {
		return
	}
	s.eq[key] = chk
	s.link(ka, kb)
	s.append(rec{T: "eq", A: hex64(key[0]), B: hex64(key[1]), C: hex64(chk)})
}

// AddDiffer records a disproven pair with its separating assignment.
func (s *Store) AddDiffer(ka, kb, chk uint64, cex []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sortKeys(ka, kb)
	if _, ok := s.neq[key]; ok {
		return
	}
	if len(s.neq) >= recordCap {
		return
	}
	c := append([]bool(nil), cex...)
	s.neq[key] = neqRec{chk: chk, cex: c}
	s.append(rec{T: "neq", A: hex64(key[0]), B: hex64(key[1]), C: hex64(chk),
		Cex: packBits(c), NPI: len(c)})
}

// lookup outcomes for Session.Probe.
type hitKind int

const (
	hitNone hitKind = iota
	hitEqual
	hitDiffer
	hitCollision // direct record matched the key but failed the check hash
)

type lookup struct {
	kind hitKind
	cex  []bool
}

// Lookup consults the proof records for the pair (ka, kb): an exact
// disproof first (it carries the counterexample), then the equivalence
// union-find (transitive, skipping poisoned classes). A direct record
// whose check hash disagrees is reported as a collision so the caller can
// evict it.
func (s *Store) Lookup(ka, kb, chk uint64) lookup {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sortKeys(ka, kb)
	if r, ok := s.neq[key]; ok {
		if r.chk != chk {
			return lookup{kind: hitCollision}
		}
		return lookup{kind: hitDiffer, cex: r.cex}
	}
	if rchk, ok := s.eq[key]; ok && rchk != chk {
		return lookup{kind: hitCollision}
	}
	if root := s.find(ka); root == s.find(kb) && !s.poison[root] {
		return lookup{kind: hitEqual}
	}
	return lookup{kind: hitNone}
}

// PoisonEqual marks the equivalence class containing ka (and kb) as
// untrusted after a failed revalidation: the chain connecting the keys
// contains at least one wrong record and there is no way to tell which,
// so the whole class stops answering and its records are dropped at the
// next compaction. Returns the number of records taken out of service.
func (s *Store) PoisonEqual(ka, kb uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var newly []uint64
	for _, r := range []uint64{s.find(ka), s.find(kb)} {
		if !s.poison[r] {
			s.poison[r] = true
			newly = append(newly, r)
		}
	}
	dropped := 0
	for key := range s.eq {
		r := s.find(key[0])
		for _, n := range newly {
			if r == n {
				dropped++
				break
			}
		}
	}
	s.evicted += int64(dropped)
	return dropped
}

// EvictDiffer drops the disproof record for the pair.
func (s *Store) EvictDiffer(ka, kb uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sortKeys(ka, kb)
	if _, ok := s.neq[key]; ok {
		delete(s.neq, key)
		s.evicted++
	}
}

// EvictPair drops a direct record that failed its check-hash comparison.
func (s *Store) EvictPair(ka, kb uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sortKeys(ka, kb)
	if _, ok := s.neq[key]; ok {
		delete(s.neq, key)
		s.evicted++
	}
	if _, ok := s.eq[key]; ok {
		delete(s.eq, key)
		s.evicted++
		// The union-find may still connect the keys through other records;
		// poisoning the class is the conservative response to a collision.
		s.poison[s.find(ka)] = true
		s.poison[s.find(kb)] = true
	}
}

// AddPattern records one simulation vector with its split-power score,
// deduplicating on the packed bits (a rediscovered pattern keeps the
// higher score). Returns the number of patterns evicted to stay within
// PatternCap.
func (s *Store) AddPattern(bits []bool, score int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.addPatternLocked(bits, score)
	return n
}

func (s *Store) addPatternLocked(bits []bool, score int) int {
	packed := packBits(bits)
	if i, ok := s.patIdx[packed]; ok {
		if score > s.pats[i].Score {
			s.pats[i].Score = score
		}
		return 0
	}
	s.pats = append(s.pats, Pattern{Bits: append([]bool(nil), bits...), Score: score})
	s.patIdx[packed] = len(s.pats) - 1
	s.append(rec{T: "pat", Vec: packed, NPI: len(bits), Sc: score})
	evictions := 0
	for len(s.pats) > s.PatternCap {
		low := 0
		for i := range s.pats {
			if s.pats[i].Score < s.pats[low].Score {
				low = i
			}
		}
		last := len(s.pats) - 1
		delete(s.patIdx, packBits(s.pats[low].Bits))
		s.pats[low] = s.pats[last]
		s.pats = s.pats[:last]
		if low < last {
			s.patIdx[packBits(s.pats[low].Bits)] = low
		}
		evictions++
	}
	s.evicted += int64(evictions)
	return evictions
}

// Rescore replaces a pattern's score with its freshly measured split
// power, so recycled patterns that stopped earning their keep sink toward
// eviction.
func (s *Store) Rescore(bits []bool, score int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.patIdx[packBits(bits)]; ok {
		s.pats[i].Score = score
	}
}

// Patterns returns the stored vectors with exactly npi bits, highest
// split power first. The slices are copies.
func (s *Store) Patterns(npi int) []Pattern {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Pattern
	for _, p := range s.pats {
		if len(p.Bits) == npi {
			out = append(out, Pattern{Bits: append([]bool(nil), p.Bits...), Score: p.Score})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// Counts reports the live record populations (equivalences, disproofs,
// patterns) and the total records evicted this process.
func (s *Store) Counts() (eq, neq, pats int, evicted int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.eq), len(s.neq), len(s.pats), s.evicted
}

// Close compacts the surviving records into a fresh journal and atomically
// replaces the live file. Poisoned equivalence classes and evicted
// records do not survive. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.app != nil {
		_ = s.app.Close()
		s.app = nil
	}
	tmp, err := os.CreateTemp(s.dir, "journal-*.tmp")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	write := func(r rec) {
		buf, _ := json.Marshal(r)
		_, _ = w.Write(append(buf, '\n'))
	}
	write(rec{T: "hdr", V: journalVersion})
	eqKeys := make([][2]uint64, 0, len(s.eq))
	for key := range s.eq {
		if !s.poison[s.find(key[0])] {
			eqKeys = append(eqKeys, key)
		}
	}
	sortKeyPairs(eqKeys)
	for _, key := range eqKeys {
		write(rec{T: "eq", A: hex64(key[0]), B: hex64(key[1]), C: hex64(s.eq[key])})
	}
	neqKeys := make([][2]uint64, 0, len(s.neq))
	for key := range s.neq {
		neqKeys = append(neqKeys, key)
	}
	sortKeyPairs(neqKeys)
	for _, key := range neqKeys {
		r := s.neq[key]
		write(rec{T: "neq", A: hex64(key[0]), B: hex64(key[1]), C: hex64(r.chk),
			Cex: packBits(r.cex), NPI: len(r.cex)})
	}
	pats := append([]Pattern(nil), s.pats...)
	sort.SliceStable(pats, func(i, j int) bool { return pats[i].Score > pats[j].Score })
	for _, p := range pats {
		write(rec{T: "pat", Vec: packBits(p.Bits), NPI: len(p.Bits), Sc: p.Score})
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), s.path)
}

func sortKeys(a, b uint64) [2]uint64 {
	if a > b {
		a, b = b, a
	}
	return [2]uint64{a, b}
}

func sortKeyPairs(keys [][2]uint64) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
}
