package core

// The external tests drive a controller with the workload generator (a
// package that imports this one); these reach the scratch arena for them.

// ScratchPeak reports the most scratch buffers c ever had out at once.
func (c *Controller) ScratchPeak() int { return c.scratchPeak }

// PoisonScratch makes every later scratch release overwrite the buffers
// it returns.
func (c *Controller) PoisonScratch() { c.poisonScratch = true }
