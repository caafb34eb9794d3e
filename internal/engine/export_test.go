package engine

// StackRunsForTest makes every constraint node built until restore is
// called a one-stage node over the constraint node below it — the chain a
// run replaces, which the run tests use as their oracle. Tests that call it
// must not run in parallel with tests that compile plans.
func StackRunsForTest() (restore func()) {
	stackRuns = true
	return func() { stackRuns = false }
}
