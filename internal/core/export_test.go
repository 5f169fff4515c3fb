package core

// ForceSpeculation turns the speculative offspring prefetch on for
// every execution built until restore is called, however cheap its
// regressions: the fits tests can afford are too small for the gate.
func ForceSpeculation() (restore func()) {
	w := specMinWork
	specMinWork = 0
	return func() { specMinWork = w }
}

// CacheLen returns the number of entries resident in c.
func CacheLen(c *ResultCache) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
