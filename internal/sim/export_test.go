package sim

// Test hooks for the external test package. Each is applied between
// New and Run, the way allocphase_zeroalloc_test lowers maxAlloc.

// SetSteadySamples overrides the priced accesses per thread per steady
// epoch (steadySamples): the equivalence matrix uses a variance-reduced
// sampled reference on saturated-controller cells.
func SetSteadySamples(e *Engine, k int) { e.samples = k }

// SetWorkers pins the pricing stage's worker count (0 = Pool or
// GOMAXPROCS), so the identity harness can check worker-count
// invariance.
func SetWorkers(e *Engine, n int) { e.workers = n }
