package network

// SetConeEpoch sets a walker's epoch counter, so a test can drive it to
// the wrap-around without four billion resets.
func SetConeEpoch(c *Cone, epoch uint32) { c.epoch = epoch }
