package engine

// OptOptions is empty: OptimizePlan has nothing to configure.
type OptOptions struct{}

// OptimizePlan returns p. There is no rewrite pass between Compile and
// Execute: the plan Compile builds is the plan that runs, its one
// order-dependent choice — which p-function fuses with a cross product into
// a ⋈~ — made by the fold (compiler.fuse). The function stays because the
// benchmark harness names it.
func OptimizePlan(p *Plan, _ *Env, _ OptOptions) *Plan { return p }
