package assistant

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/engine"
)

// ExplicitZero is a sentinel for Config.Alpha, whose zero value selects
// the default: setting Alpha to ExplicitZero (any negative value works)
// means a literal α = 0 rather than "use the default".
const ExplicitZero = -1

// Config tunes a refinement session. Zero values select the defaults
// matching the paper.
type Config struct {
	// Strategy selects questions; default Sequential.
	Strategy Strategy
	// Alpha is the probability of an "I do not know" answer assumed by the
	// simulation strategy (default 0.1). Use ExplicitZero for a literal
	// α = 0 (the oracle always answers).
	Alpha float64
	// ConvergenceWindow is k: counts stable for k iterations triggers the
	// convergence notification (paper: 3).
	ConvergenceWindow int
	// QuestionsPerIteration is how many questions are asked between
	// executions (default 2, matching the roughly 2-questions-per-iteration
	// cadence of Table 4).
	QuestionsPerIteration int
	// MaxIterations is a safety bound (default 50).
	MaxIterations int
	// SubsetSeed varies the deterministic subset sample.
	SubsetSeed uint64
	// Workers bounds every goroutine the session evaluates on (0 = one per
	// GOMAXPROCS slot, 1 = fully serial): it becomes the session context's
	// engine.Context.Workers, and question simulations, sibling subtrees
	// and tuple chunks all take their slots from that one pool.
	// Transcripts and results are byte-identical across worker counts.
	Workers int
	// CacheBudget bounds the session's reuse cache in bytes (0 =
	// unlimited); see engine.Context.CacheBudget. Long sessions and wide
	// simulation fan-outs evict least-recently-used intermediate tables
	// instead of growing without limit. Results are unaffected.
	CacheBudget int64
	// noDeltaReuse switches off incremental (delta) evaluation. Results are
	// byte-identical either way, which is the only reason it exists: the
	// differential suites run sessions with and without it (export_test.go)
	// and compare.
	noDeltaReuse bool
	// subsetFraction, set only by tests (export_test.go), overrides the
	// automatic 5–30% subset size (Section 5.2); a negative value gives the
	// minimal subset of one document per extensional table.
	subsetFraction float64
	// Deadline bounds execution in wall-clock time (0 = no deadline).
	// Run binds it once over the whole session loop: on expiry the session
	// stops asking questions, evaluation cuts at operator tuple/chunk
	// boundaries, and Run returns its best partial result — still
	// superset-correct over the processed documents, with Result.Degraded
	// naming what was left out. Step and Finalize instead re-arm it per
	// call, so a long-lived interactive session gets a fresh window for
	// every step instead of expiring mid-conversation (see step.go).
	Deadline time.Duration
}

func (c Config) withDefaults() Config {
	if c.Strategy == nil {
		c.Strategy = Sequential{}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.Alpha < 0:
		c.Alpha = 0
	case c.Alpha == 0:
		c.Alpha = 0.1
	}
	if c.ConvergenceWindow == 0 {
		c.ConvergenceWindow = 3
	}
	if c.QuestionsPerIteration == 0 {
		c.QuestionsPerIteration = 2
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 50
	}
	return c
}

// QA records one question, its answer, and whether a constraint was added.
type QA struct {
	Question Question
	Answer   Answer
}

// Iteration logs one execute-refine round.
type Iteration struct {
	N           int
	Tuples      int    // expanded result size
	Assignments int    // assignment count (the convergence monitor's 2nd signal)
	Mode        string // "subset" or "full"
	Questions   []QA
	// Evals and CacheHits are the engine-counter deltas attributable to
	// this iteration (including its question simulations): how many plan
	// nodes were computed fresh versus served by the reuse cache. Both
	// are deterministic across worker counts.
	Evals     int64
	CacheHits int64
	// TuplesReused and TuplesRecomputed are the delta-evaluation counter
	// deltas for this iteration: input tuples replayed from a previous
	// plan version's memo versus computed fresh (also deterministic).
	// WallS is the wall-clock seconds the iteration's execution and
	// question selection took (not deterministic; never in Transcript).
	TuplesReused     int64
	TuplesRecomputed int64
	WallS            float64
}

// Result is the outcome of a session run.
type Result struct {
	Final          *compact.Table
	FinalTuples    int
	Iterations     []Iteration
	QuestionsAsked int
	Converged      bool
	Stats          engine.Stats
	// Degraded is non-nil when the run hit its deadline or quarantined
	// documents (also attached to Final); nil for a clean, complete run.
	Degraded *compact.Degraded
}

// Session drives the iFlex loop: execute the current approximate program,
// monitor convergence, enlist the strategy for the next questions, fold
// the oracle's answers back into the program, repeat (Sections 2.2.4, 5).
type Session struct {
	Env    *engine.Env
	Prog   *alog.Program
	Oracle Oracle
	Config Config

	ctx    *engine.Context
	subset map[string]bool
	// Answers only add constraints, so the program's shape is read once:
	// attrs are its attributes, rank their importance (attrImportance), and
	// asked starts with the questions its constraints already answer.
	attrs   []alog.AttrRef
	rank    map[alog.AttrRef]int
	asked   map[string]bool
	sizes   []int // per-iteration expanded sizes (subset mode)
	assigns []int
	// cuts marks iterations whose subset execution was cut short by a
	// fired deadline: their partial counts are recorded but never count as
	// evidence of convergence (a truncated size matching a previous one
	// says nothing about stability).
	cuts     []bool
	prevPlan *engine.Plan // last executed plan, the delta predecessor
	// plan is Prog's plan. The first execution compiles it; from then on
	// every answer folded into Prog extends it (WithConstraint), and every
	// simulation trial is an edit of it — so after that first execution Prog
	// changes only through answers.
	// planCheck, set only by tests (export_test.go), sees each such plan
	// once executed, with the question and answer a trial adds to Prog
	// (zero for the base plan) and its expanded result size.
	plan      *engine.Plan
	planCheck func(prog *alog.Program, q Question, v string, plan *engine.Plan, size int)

	// Loop state (see step.go). res accumulates the iteration log; pending
	// holds the questions the last iteration asked, awaiting answers; iterN
	// counts executed subset iterations; loopDone blocks further execution
	// once the loop ended; finished flips when the full result exists; base
	// is the engine-counter baseline record differences against.
	res      *Result
	pending  []Question
	iterN    int
	loopDone bool
	finished bool
	base     engine.Stats

	// trialPrev remembers each simulated candidate's previous trial plan
	// (keyed by attr/feature/value), so re-simulating the same candidate in
	// a later iteration links to its own last incarnation: the inserted
	// constraint node then replays tuples whose constrained attribute the
	// intervening answers did not touch. Guarded by trialMu (simulations
	// fan out across goroutines).
	trialMu   sync.Mutex
	trialPrev map[string]engine.Node
}

// NewSession prepares a session; the program is cloned so the caller's
// copy is never mutated.
func NewSession(env *engine.Env, prog *alog.Program, oracle Oracle, cfg Config) *Session {
	cfg = cfg.withDefaults()
	s := &Session{
		Env:    env,
		Prog:   prog.Clone(),
		Oracle: oracle,
		Config: cfg,
		ctx:    engine.NewContext(env),
		res:    &Result{},
	}
	s.attrs, s.rank, s.asked = s.Prog.Attrs(), attrImportance(s.Prog), constrained(s.Prog)
	s.ctx.Workers = cfg.Workers
	s.ctx.CacheBudget = cfg.CacheBudget
	if !cfg.noDeltaReuse {
		s.ctx.EnableDelta()
	}
	s.subset = s.sampleSubset()
	return s
}

// sampleSubset draws a deterministic sample of document IDs across all
// extensional tables: 30% for small corpora down to 5% for large ones
// (Section 5.2). Every table keeps at least one document; a negative
// subsetFraction therefore yields the minimal subset of one document per
// table.
func (s *Session) sampleSubset() map[string]bool {
	subset := map[string]bool{}
	for _, table := range s.Env.Tables {
		var ids []string
		seen := map[string]bool{}
		for _, tp := range table.Tuples {
			for _, c := range tp.Cells {
				for _, a := range c.Assigns {
					id := a.Span.Doc().ID()
					if !seen[id] {
						seen[id] = true
						ids = append(ids, id)
					}
				}
			}
		}
		sort.Strings(ids)
		frac := s.Config.subsetFraction
		if frac == 0 {
			switch {
			case len(ids) <= 20:
				frac = 1.0
			case len(ids) <= 100:
				frac = 0.3
			case len(ids) <= 1000:
				frac = 0.1
			default:
				frac = 0.05
			}
		}
		want := int(float64(len(ids)) * frac)
		if want < 1 {
			want = 1
		}
		// Deterministic pseudo-random pick: hash id with the seed.
		type scored struct {
			id string
			h  uint64
		}
		ss := make([]scored, len(ids))
		for i, id := range ids {
			ss[i] = scored{id: id, h: fnvMix(id, s.Config.SubsetSeed)}
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].h < ss[j].h })
		for i := 0; i < want; i++ {
			subset[ss[i].id] = true
		}
	}
	return subset
}

// fnvMix hashes a string with a seed (FNV-1a with seeded basis).
func fnvMix(s string, seed uint64) uint64 {
	h := uint64(14695981039346656037) ^ (seed * 0x9E3779B97F4A7C15)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// execute runs the current program's plan (compiling it on the session's
// first execution); subset selects the evaluation mode. Alongside the result it returns the total assignments
// across the whole extraction plan — the convergence monitor's second
// signal (Section 5.1 tracks "the number of assignments produced by the
// extraction process", which a refinement perturbs even when the final
// projection does not change yet).
func (s *Session) execute(onSubset bool) (*compact.Table, int, error) {
	if s.plan == nil {
		plan, err := engine.Compile(s.Prog, s.Env)
		if err != nil {
			return nil, 0, err
		}
		s.plan = plan
	}
	plan := s.plan
	// Link this plan version to its predecessor for delta evaluation,
	// discarding the links accumulated by the previous round's question
	// simulations (their trial plans are no longer anyone's predecessor).
	s.ctx.ResetDelta()
	if s.prevPlan != nil {
		s.ctx.RegisterDelta(s.prevPlan.Root, plan.Root)
	}
	s.prevPlan = plan
	if onSubset {
		s.ctx.SetDocFilter(s.subset)
	} else {
		s.ctx.SetDocFilter(nil)
	}
	table, err := plan.Execute(s.ctx)
	if err != nil {
		return nil, 0, err
	}
	if s.planCheck != nil {
		s.planCheck(s.Prog, Question{}, "", plan, table.NumExpandedTuples())
	}
	assigns, err := engine.SumAssignments(s.ctx, plan.Root)
	if err != nil {
		return nil, 0, err
	}
	return table, assigns, nil
}

// lastSize returns the most recent subset result size (for the simulation
// strategy's "I do not know" term); 0 before the first execution.
func (s *Session) lastSize() int {
	if len(s.sizes) == 0 {
		return 0
	}
	return s.sizes[len(s.sizes)-1]
}

// useSubset switches the shared context to subset evaluation. Strategies
// must call it once before fanning simulate calls out across goroutines:
// the shared context's mode may only be switched while no evaluations are
// in flight.
func (s *Session) useSubset() { s.ctx.SetDocFilter(s.subset) }

// simulate returns |exec(g(P, (a, f, v)))| over the subset: the result
// size if the developer answered v (Section 5.1). It shares the session's
// reuse cache, so unchanged plan subtrees are not recomputed — and the
// cache's single-flight deduplication makes concurrent simulate calls
// safe. The caller must have selected subset mode via useSubset.
func (s *Session) simulate(q Question, v string) (int, error) {
	// The trial is the base plan with one more constraint: an edit that
	// builds only the spine above the constraint and reuses every node below
	// it.
	plan, err := s.plan.WithConstraint(q.Attr, q.Feature, v)
	if err != nil {
		return 0, err
	}
	// The trial plan is one constraint away from the last executed plan:
	// link them so the changed ancestors evaluate as deltas (RegisterDelta
	// is safe under the strategy's concurrent fan-out). Then link the trial
	// to its own previous incarnation, registered second so its links win
	// for nodes both walks map — the old trial is the closer predecessor.
	if s.prevPlan != nil {
		s.ctx.RegisterDelta(s.prevPlan.Root, plan.Root)
	}
	tkey := q.Attr.String() + "\x00" + q.Feature + "\x00" + v
	s.trialMu.Lock()
	prevTrial := s.trialPrev[tkey]
	if s.trialPrev == nil {
		s.trialPrev = map[string]engine.Node{}
	}
	s.trialPrev[tkey] = plan.Root
	s.trialMu.Unlock()
	if prevTrial != nil {
		s.ctx.RegisterDelta(prevTrial, plan.Root)
	}
	res, err := plan.Execute(s.ctx)
	if err != nil {
		return 0, err
	}
	if s.planCheck != nil {
		s.planCheck(s.Prog, q, v, plan, res.NumExpandedTuples())
	}
	return res.NumExpandedTuples(), nil
}

// converged reports whether the last k iterations produced identical tuple
// and assignment counts (Section 5.1, "Notifying the Developer of
// Convergence"). Iterations whose execution was cut by a fired deadline
// never count: their partial sizes are not evidence of stability, so an
// expired step cannot poison the convergence monitor of later steps.
func (s *Session) converged() bool {
	k := s.Config.ConvergenceWindow
	if len(s.sizes) < k {
		return false
	}
	for i := len(s.sizes) - k; i < len(s.sizes); i++ {
		if i < len(s.cuts) && s.cuts[i] {
			return false
		}
	}
	for i := len(s.sizes) - k + 1; i < len(s.sizes); i++ {
		if s.sizes[i] != s.sizes[i-1] || s.assigns[i] != s.assigns[i-1] {
			return false
		}
	}
	return true
}

// Program returns the session's current (refined) program.
func (s *Session) Program() *alog.Program { return s.Prog }

// Transcript renders the session result as the paper's Table 4 row style:
// one line per iteration with counts, mode, and the questions asked.
func (r *Result) Transcript() string {
	var b strings.Builder
	for _, it := range r.Iterations {
		fmt.Fprintf(&b, "iteration %d (%s): %d tuples, %d assignments, %d evals, %d cache hits\n",
			it.N, it.Mode, it.Tuples, it.Assignments, it.Evals, it.CacheHits)
		for _, qa := range it.Questions {
			ans := qa.Answer.Value
			if !qa.Answer.Known {
				ans = "I do not know"
			}
			fmt.Fprintf(&b, "  %s -> %s\n", qa.Question, ans)
		}
	}
	fmt.Fprintf(&b, "converged=%v, %d questions, final %d tuples\n",
		r.Converged, r.QuestionsAsked, r.FinalTuples)
	return b.String()
}
