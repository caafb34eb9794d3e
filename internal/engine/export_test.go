package engine

// StackRunsForTest makes every constraint node built until restore is
// called a one-stage node over the constraint node below it — the chain a
// run replaces, which the run tests use as their oracle. Tests that call it
// must not run in parallel with tests that compile plans, and must build the
// chain against an Env of its own: a chain node and the run it stands for
// are interned under one key.
func StackRunsForTest() (restore func()) {
	stackRuns = true
	return func() { stackRuns = false }
}

// InternedForTest returns every node built against env so far, in no
// particular order.
func InternedForTest(env *Env) []Node {
	env.nodes.mu.Lock()
	defer env.nodes.mu.Unlock()
	out := make([]Node, 0, len(env.nodes.m))
	for _, n := range env.nodes.m {
		out = append(out, n)
	}
	return out
}
