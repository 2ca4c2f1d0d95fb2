package tt

// NPNCanonRef exports the reference search to the external test package,
// which may import genbench (package tt's own tests may not: genbench
// imports tt).
var NPNCanonRef = npnCanonRef
