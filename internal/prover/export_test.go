package prover

// FrontierPairList exposes a plan's sorted frontier pairs as (x, y, slice)
// triples to the external golden test.
func FrontierPairList(p *WordPlan) [][3]int32 {
	out := make([][3]int32, len(p.pairs))
	for i, pr := range p.pairs {
		out[i] = [3]int32{int32(pr.x), int32(pr.y), pr.slice}
	}
	return out
}
