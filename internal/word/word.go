// Package word detects word-level structure in a mapped LUT network: bit
// outputs of ripple/carry-select adders, mux trees, shifters and comparator
// slices grouped into word candidates. The detection is purely structural
// and name-driven — primary inputs named a[0..n] (or a0..an) form input
// words, and internal nodes whose support is a small set of contiguous
// input-word ranges are slice candidates of a derived word.
//
// Detection feeds the word-level proving stage (internal/prover): nodes in
// the same candidate with the same slice index and equal simulation
// signatures are frontier pairs, proven bottom-up so learned per-bit
// equalities collapse the wide miters above them (FORWORD,
// arXiv:2507.02008; Datapath-CEC, arXiv:2501.14740). Membership only
// selects which pairs the stage tries; every verdict still comes from a
// prover.
package word

import (
	"math/bits"
	"sort"
	"strings"

	"simgen/internal/network"
)

// Limits on what counts as a word slice: a node may draw on at most
// maxWords input words and maxLoose loose (non-word) inputs.
const (
	maxWords = 4
	maxLoose = 4
)

// Bit is one member node of a candidate word.
type Bit struct {
	Node  network.NodeID
	Slice int // highest input-word index the node depends on
}

// Candidate is one detected word: a group of nodes sharing an input-word
// footprint, ordered by slice.
type Candidate struct {
	Words []string // input-word names the slices draw on
	Loose int      // loose PI count shared by the group
	Bits  []Bit    // members ordered by (Slice, Node)
}

// Structure is the detection result over one network.
type Structure struct {
	Cands []Candidate

	// PIWords is the number of input words detected from PI names.
	PIWords int

	member []int32 // node -> candidate index, -1 outside any word
	slice  []int32 // node -> slice index
}

// Member reports the candidate and slice of a node, if it is part of a
// detected word.
func (s *Structure) Member(id network.NodeID) (cand, slice int, ok bool) {
	if s == nil || int(id) >= len(s.member) || s.member[id] < 0 {
		return 0, 0, false
	}
	return int(s.member[id]), int(s.slice[id]), true
}

// InWord reports whether the node belongs to any detected word candidate.
func (s *Structure) InWord(id network.NodeID) bool {
	_, _, ok := s.Member(id)
	return ok
}

// Counts summarizes the detection: candidate words and total member bits.
func (s *Structure) Counts() (cands, bits int) {
	if s == nil {
		return 0, 0
	}
	for _, c := range s.Cands {
		bits += len(c.Bits)
	}
	return len(s.Cands), bits
}

// piWord is one input word parsed from PI names.
type piWord struct {
	name string
	bits []network.NodeID // bits[i] is the PI for index i; -1 when absent
}

// splitIndexed parses "a[3]", "a3" and "a_3" into ("a", 3). The prefix must
// be non-empty and the index decimal.
func splitIndexed(name string) (string, int, bool) {
	s := name
	if strings.HasSuffix(s, "]") {
		open := strings.LastIndexByte(s, '[')
		if open <= 0 {
			return "", 0, false
		}
		idx, ok := atoi(s[open+1 : len(s)-1])
		if !ok {
			return "", 0, false
		}
		return s[:open], idx, true
	}
	end := len(s)
	for end > 0 && s[end-1] >= '0' && s[end-1] <= '9' {
		end--
	}
	if end == len(s) || end == 0 {
		return "", 0, false
	}
	prefix := s[:end]
	if strings.HasSuffix(prefix, "_") && len(prefix) > 1 {
		prefix = prefix[:len(prefix)-1]
	}
	idx, ok := atoi(s[end:])
	return prefix, idx, ok
}

func atoi(s string) (int, bool) {
	if s == "" || len(s) > 6 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Detect runs structure detection over the network. The pass is linear in
// network size times support width and safe to run on any circuit: networks
// without indexed PI names simply yield no candidates.
func Detect(net *network.Network) *Structure {
	n := net.NumNodes()
	st := &Structure{member: make([]int32, n), slice: make([]int32, n)}
	for i := range st.member {
		st.member[i] = -1
	}

	// Group PIs into input words by name; singleton prefixes stay loose.
	pis := net.PIs()
	byPrefix := map[string][]struct {
		idx int
		pi  network.NodeID
	}{}
	var prefixes []string
	for _, pi := range pis {
		prefix, idx, ok := splitIndexed(net.Node(pi).Name)
		if !ok {
			continue
		}
		if _, seen := byPrefix[prefix]; !seen {
			prefixes = append(prefixes, prefix)
		}
		byPrefix[prefix] = append(byPrefix[prefix], struct {
			idx int
			pi  network.NodeID
		}{idx, pi})
	}
	sort.Strings(prefixes)
	var words []piWord
	wordOf := make([]int16, n) // PI -> word index, -1 loose
	idxOf := make([]int16, n)  // PI -> bit index within its word
	for i := range wordOf {
		wordOf[i] = -1
	}
	for _, prefix := range prefixes {
		group := byPrefix[prefix]
		if len(group) < 2 {
			continue
		}
		maxIdx := 0
		for _, g := range group {
			if g.idx > maxIdx {
				maxIdx = g.idx
			}
		}
		if maxIdx >= 1<<12 {
			continue
		}
		w := piWord{name: prefix, bits: make([]network.NodeID, maxIdx+1)}
		for i := range w.bits {
			w.bits[i] = -1
		}
		dup := false
		for _, g := range group {
			if w.bits[g.idx] != -1 {
				dup = true
				break
			}
			w.bits[g.idx] = g.pi
		}
		if dup {
			continue
		}
		for _, g := range group {
			wordOf[g.pi] = int16(len(words))
			idxOf[g.pi] = int16(g.idx)
		}
		words = append(words, w)
	}
	st.PIWords = len(words)
	if len(words) == 0 {
		return st
	}

	// Per-node PI support as a bitset over PI ordinals, by DP in id order
	// (fanins always precede their node).
	npis := len(pis)
	ordOf := make([]int32, n)
	for ord, pi := range pis {
		ordOf[pi] = int32(ord)
	}
	stride := (npis + 63) / 64
	support := make([]uint64, n*stride)
	for id := 0; id < n; id++ {
		nd := net.Node(network.NodeID(id))
		row := support[id*stride : (id+1)*stride]
		switch nd.Kind {
		case network.KindPI:
			ord := ordOf[id]
			row[ord>>6] |= 1 << uint(ord&63)
		case network.KindLUT:
			for _, f := range nd.Fanins {
				frow := support[int(f)*stride : (int(f)+1)*stride]
				for w := range row {
					row[w] |= frow[w]
				}
			}
		}
	}

	// Profile every LUT: which words (as contiguous index ranges) plus
	// which loose PIs does it depend on?
	type groupKey string
	groups := map[groupKey][]Bit{}
	meta := map[groupKey]*Candidate{}
	var keys []groupKey
	var keyBuf strings.Builder
	for id := 0; id < n; id++ {
		nd := net.Node(network.NodeID(id))
		if nd.Kind != network.KindLUT {
			continue
		}
		row := support[id*stride : (id+1)*stride]
		var (
			wordLo, wordHi [maxWords]int
			wordIdx        [maxWords]int16
			nwords         int
			loose          []network.NodeID
			wordBits       int
			bad            bool
		)
		for w := 0; w < stride && !bad; w++ {
			mask := row[w]
			for mask != 0 {
				ord := w*64 + bits.TrailingZeros64(mask)
				mask &= mask - 1
				pi := pis[ord]
				wi := wordOf[pi]
				if wi < 0 {
					if len(loose) >= maxLoose {
						bad = true
						break
					}
					loose = append(loose, pi)
					continue
				}
				slot := -1
				for k := 0; k < nwords; k++ {
					if wordIdx[k] == wi {
						slot = k
						break
					}
				}
				if slot < 0 {
					if nwords >= maxWords {
						bad = true
						break
					}
					slot = nwords
					wordIdx[slot] = wi
					wordLo[slot], wordHi[slot] = int(idxOf[pi]), int(idxOf[pi])
					nwords++
				} else {
					if int(idxOf[pi]) < wordLo[slot] {
						wordLo[slot] = int(idxOf[pi])
					}
					if int(idxOf[pi]) > wordHi[slot] {
						wordHi[slot] = int(idxOf[pi])
					}
				}
				wordBits++
			}
		}
		if bad || nwords == 0 || wordBits < 2 {
			continue
		}
		// Each word's used indices must fill its [lo, hi] range: a sparse
		// footprint is random logic, not a slice.
		used := 0
		for k := 0; k < nwords; k++ {
			used += wordHi[k] - wordLo[k] + 1
		}
		if used != wordBits {
			continue
		}
		slice := 0
		for k := 0; k < nwords; k++ {
			if wordHi[k] > slice {
				slice = wordHi[k]
			}
		}
		// Group key: the word set plus the loose PI set. Slices of one
		// logical word share both across all bit positions.
		sort.Slice(loose, func(i, j int) bool { return loose[i] < loose[j] })
		ws := make([]int, nwords)
		for k := 0; k < nwords; k++ {
			ws[k] = int(wordIdx[k])
		}
		sort.Ints(ws)
		keyBuf.Reset()
		for _, wv := range ws {
			keyBuf.WriteString(words[wv].name)
			keyBuf.WriteByte('|')
		}
		keyBuf.WriteByte('+')
		for _, l := range loose {
			keyBuf.WriteString(net.Node(l).Name)
			keyBuf.WriteByte('|')
		}
		key := groupKey(keyBuf.String())
		if _, seen := groups[key]; !seen {
			keys = append(keys, key)
			names := make([]string, len(ws))
			for i, wv := range ws {
				names[i] = words[wv].name
			}
			meta[key] = &Candidate{Words: names, Loose: len(loose)}
		}
		groups[key] = append(groups[key], Bit{Node: network.NodeID(id), Slice: slice})
	}

	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		bits := groups[key]
		if len(bits) < 2 {
			continue
		}
		sort.Slice(bits, func(i, j int) bool {
			if bits[i].Slice != bits[j].Slice {
				return bits[i].Slice < bits[j].Slice
			}
			return bits[i].Node < bits[j].Node
		})
		c := *meta[key]
		c.Bits = bits
		ci := int32(len(st.Cands))
		for _, b := range bits {
			st.member[b.Node] = ci
			st.slice[b.Node] = int32(b.Slice)
		}
		st.Cands = append(st.Cands, c)
	}
	return st
}
