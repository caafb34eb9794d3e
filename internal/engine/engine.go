// Package engine implements iFlex's approximate query processor
// (Section 4): it compiles an Alog program into a plan over compact
// tables and evaluates it with superset semantics — the computed set of
// possible relations always includes every relation the program defines.
//
// Plans are trees of materialising operators; nodes are interned where
// they are built (nodes.go), so equal subtrees are one node with one id,
// and evaluation memoises node results in the Context's cache under that
// id. That cache is the paper's *reuse* optimisation (Section 5.2):
// refining a program builds new nodes only above the touched operator, so
// unchanged subtrees are reused verbatim across iterations. On top of it,
// delta evaluation (EnableDelta/RegisterDelta, see delta.go) replays
// per-tuple outcomes inside the changed ancestors, so a refinement
// recomputes only the tuples it touched. *Subset evaluation* is the
// Context's SetDocFilter: scans drop documents outside the sampled subset.
//
// A table is immutable once built: no operator writes into a row, a cell
// or an assignment list of its input, so all three may be shared. An
// operator appends a row it left alone as it found it and builds new
// storage only for the cells it changes; the cache still charges a shared
// row to every table that holds it (compact.Table.MemBytes).
package engine

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/feature"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

// limits bound the work done per compact tuple when enumerating possible
// values; beyond them operators fall back to conservative (superset-safe)
// behaviour: keep the tuple, mark it maybe, skip precise filtering. Every
// Env holds defaultLimits; only the engine's own tests lower them.
type limits struct {
	// MaxCellValues caps value enumeration per cell.
	MaxCellValues int
	// MaxValuations caps the number of value combinations per tuple.
	MaxValuations int
}

// defaultLimits balance precision against work: cells pinned by a few
// constraints enumerate fully, while unconstrained whole-document cells
// fall back to the conservative keep-as-maybe path instead of enumerating
// quadratically many sub-span valuations.
func defaultLimits() limits {
	return limits{MaxCellValues: 512, MaxValuations: 1024}
}

// Func is a boolean p-function (e.g. approxMatch, similar): it receives
// one concrete value span per argument.
type Func func(args []text.Span) (bool, error)

// PFunc is everything the engine knows about one boolean p-function.
type PFunc struct {
	Fn Func
	// Token, on a function whose Fn is exactly a token similarity, declares
	// that similarity's spec (Jaccard threshold and token-prefix arm). The
	// engine then decides the function on interned token records and
	// derives exact candidate filters from the spec (rarity-prefix and
	// length filtering, see tokensim.go) instead of calling Fn per value
	// combination, and a binary use over two sides of a cross product fuses
	// into the token-blocked similarity join ⋈~. Without it the function is
	// opaque: σ over × calls Fn per value combination.
	Token *similarity.Spec
}

// Procedure is a procedural p-predicate ("cleanup procedure",
// Section 2.2.4). Its first rule argument is the input span; Outputs is
// the number of remaining (output) arguments; Fn maps an input value to
// the set of output tuples.
type Procedure struct {
	Outputs int
	Fn      func(input text.Span) ([][]text.Span, error)
}

// Env binds a program to its runtime: extensional tables, p-functions,
// procedures, and the feature registry.
type Env struct {
	Tables   map[string]*compact.Table
	Funcs    map[string]PFunc
	Procs    map[string]Procedure
	Features *feature.Registry
	// FeatureMemo holds one record table per document: each built-in
	// constraint's regions over the page and the typed values comparisons read.
	// Documents are immutable and features are pure, so entries never go
	// stale; a Context counts their bytes against its CacheBudget (evicting
	// them per document, least recently used, when no result table is left
	// to make room) and drops the tables of superseded documents
	// (ApplyCorpusDelta). Never nil: NewEnv makes it, and every feature call
	// and comparison operand goes through it.
	FeatureMemo *feature.Memo
	// FaultHook, when non-nil, is invoked before every guarded
	// per-document unit of user code (p-functions, feature constraint
	// evaluation, procedures) with the guard site name and the sorted IDs
	// of the documents involved; a returned error — or a panic — is
	// handled exactly like a fault in the user code itself. It is also
	// invoked at the start of every operator chunk, the serial fallback
	// included, as FaultHook("chunk", ["c<start>"]): that call is outside
	// any guarded unit, so an error it returns fails the evaluation and a
	// panic reaches the Eval caller. It exists for deterministic fault and
	// latency injection (internal/fault) and must be set before evaluation
	// starts.
	FaultHook func(site string, docs []string) error
	// DocIndex, when non-nil, answers whole-document token queries from
	// an index built at ingest (the document store): the token record of
	// an exact whole-page cell is built from it on every use, without
	// tokenising a resident page, paging a non-resident one in or making
	// the page a record table (feature.Memo.IndexRecords). Every other
	// value reads its ids off its page's token list in FeatureMemo.
	// Implementations must return exactly what the engine would compute
	// live: the ordered similarity.Tokens of the page's text, as ids of
	// the index's vocabulary. A false ok falls back to the record table;
	// results are byte-identical either way.
	DocIndex DocIndex
	// Postings, when non-nil, provides the persistent inverted
	// blocking-token index over the same store: simjoin blocking consults
	// it directly when the join's right side is a plain document table,
	// instead of rebuilding a per-run blocking index from page text.
	Postings PostingsIndex
	// nodes interns every plan node built against this Env (nodes.go).
	nodes nodeTable
	// limits bound per-tuple value enumeration (defaultLimits).
	limits limits
}

// DocIndex answers per-document token queries from a prebuilt index;
// see Env.DocIndex for the exactness contract.
type DocIndex = feature.TokenIndex

// PostingsIndex is an inverted blocking-token index over an ordinal
// document space; see Env.Postings.
type PostingsIndex interface {
	// NumDocs returns the size of the ordinal space.
	NumDocs() int
	// DocOrdinal returns d's ordinal, or false if d is not indexed.
	DocOrdinal(d *text.Document) (int, bool)
	// TokenPostings returns the sorted ordinals of documents whose
	// blocking-token set contains tok. A token known to match no document
	// returns (nil, true); ok is false only when the index cannot answer
	// (callers must then treat every document as a candidate).
	TokenPostings(tok string) ([]int, bool)
}

// NewEnv returns an Env with the built-in feature registry, default
// limits, and the default p-functions similar and approxMatch.
func NewEnv() *Env {
	e := &Env{
		Tables:      map[string]*compact.Table{},
		Funcs:       map[string]PFunc{},
		Procs:       map[string]Procedure{},
		Features:    feature.NewRegistry(),
		limits:      defaultLimits(),
		FeatureMemo: feature.NewMemo(),
		nodes:       nodeTable{m: map[string]Node{}},
	}
	spec := similarity.Default
	sim := PFunc{Fn: func(args []text.Span) (bool, error) {
		if len(args) != 2 {
			return false, fmt.Errorf("engine: similar expects 2 arguments, got %d", len(args))
		}
		return similarity.Similar(args[0].NormText(), args[1].NormText()), nil
	}, Token: &spec}
	e.Funcs["similar"], e.Funcs["approxMatch"] = sim, sim
	return e
}

// AddDocTable registers an extensional single-column table of documents
// under the given predicate name, one tuple per document (e.g.
// housePages(x)). Cells hold exact(whole-document) assignments, per the
// conversion rule of Section 4.
func (e *Env) AddDocTable(pred, col string, docs []*text.Document) {
	t := compact.NewTable(col)
	for _, d := range docs {
		t.Append(compact.Tuple{Cells: []compact.Cell{compact.ExactCell(d.WholeSpan())}})
	}
	e.Tables[pred] = t
}

// BindStore registers a document store's live pages as the extensional
// table pred(col) and makes the store the Env's token index and postings
// (see DocIndex and Postings: the engine consults one index per Env).
// Call it again after a committed mutation to pick up the new live view.
func (e *Env) BindStore(pred, col string, st interface {
	Docs() []*text.Document
	DocIndex
	PostingsIndex
}) {
	e.AddDocTable(pred, col, st.Docs())
	e.DocIndex, e.Postings = st, st
}

// Schema derives the alog.Schema view of this environment.
func (e *Env) Schema() *alog.Schema {
	s := &alog.Schema{
		Extensional: map[string][]string{},
		Functions:   map[string]bool{},
		Procedures:  map[string]bool{},
	}
	for name, t := range e.Tables {
		s.Extensional[name] = t.Cols
	}
	for name := range e.Funcs {
		s.Functions[name] = true
	}
	for name := range e.Procs {
		s.Procedures[name] = true
	}
	return s
}

// Context carries per-execution state: the environment, the reuse cache,
// and the optional document subset. A Context is safe for concurrent use:
// cache lookups are single-flight (one goroutine evaluates a node while
// concurrent requesters for the same key block and share the result),
// stats counters are updated atomically, and evaluation fans leaf loops
// out across a bounded worker pool. Contexts must not be copied after
// first use.
//
// The reuse cache is internal: it memoises node results keyed by
// (evaluation mode, node id), holds the similarity-join blocking indexes
// and the delta-evaluation per-tuple memos, and maintains an LRU order
// so CacheBudget can bound its total size. Share one Context across
// iterations to get the paper's reuse behaviour.
type Context struct {
	Env *Env
	// Workers bounds the goroutines evaluation runs on, the caller's plus
	// Workers-1 pool slots that ForEach hands out: 0 uses every available
	// CPU, 1 evaluates fully serially. Results are byte-identical across
	// worker counts (deterministic merge order).
	Workers int
	// CacheBudget bounds the reuse cache in bytes (0 = unlimited): cached
	// tables, delta memos, blocking indexes and the Env's document record
	// tables all count against it. When it is exceeded, least-recently-used
	// cache entries are evicted first (never the one being stored); only
	// when none is left to evict are record tables forgotten, one document
	// at a time, least recently used first (feature.Memo.Evict). An evicted
	// entry is re-evaluated on next use — results never change, only how
	// much is recomputed. Set it before the first evaluation.
	CacheBudget int64
	// Stats accumulates evaluation counters (atomically).
	Stats Stats

	// mu guards the cache part: cache, the LRU list, inflight, deltaPrev,
	// modes and the entries' served counts. The fault part has its
	// own (faults); the scheduler (extraWorkers) and Stats are lock-free.
	mu sync.Mutex
	// cache memoises node results (and blocking indexes), each with the
	// trace of the evaluation that built it; their total size is
	// Stats.CacheBytes.
	cache map[entryKey]*cacheEntry
	// lruHead / lruTail order entries from most to least recently used.
	lruHead, lruTail *cacheEntry
	// inflight tracks keys currently being evaluated, for single-flight
	// deduplication across goroutines.
	inflight map[entryKey]*inflightEval
	// deltaOn enables incremental evaluation (see delta.go).
	deltaOn bool
	// deltaPrev maps current-plan nodes to their predecessors in the
	// previous plan version (RegisterDelta).
	deltaPrev map[NodeID]deltaLink
	// extraWorkers counts pool slots handed out beyond the caller's own
	// goroutine; see parallel.go.
	extraWorkers atomic.Int64
	// modes interns evaluation modes by their contents: a mode's id is its
	// index, 0 stands for none. mode is the current one (remode) and
	// prevMode the one the context most recently switched away from
	// (SetDocFilter): delta evaluation probes it for priors when the
	// current mode has none.
	modes    []evalMode
	mode     atomic.Uint32
	prevMode uint32
	// faults is the fault part, touched only by faults.go. bound is the
	// cancellation source BindCancel attached (nil when none), read
	// lock-free by every checkpoint; mu guards the rest: last, the most
	// recent binding, kept after Unbind because its fired is the report's
	// expiry; unprocessed, the documents cuts skipped since; and
	// quarantined, one record per barred document.
	faults struct {
		bound       atomic.Pointer[cancelState]
		mu          sync.Mutex
		last        *cancelState
		unprocessed docSet
		quarantined map[string]compact.QuarantineRecord
	}
}

// fullMode is the id of unfiltered (whole-corpus) evaluation with nothing
// quarantined, interned when the context is made.
const fullMode = 1

// entryKey identifies one cache entry: the evaluation mode, the node, and
// an auxiliary discriminator ("" for the node's result table; the join
// variable for a similarity-join blocking index).
type entryKey struct {
	mode uint32
	node NodeID
	aux  string
}

// cacheEntry is one resident cache entry. Exactly one of table (plus
// optional delta memo aux) or idx is set. trace is the evaluation that
// built a table entry (trace.go). stale marks a table displaced by
// ApplyCorpusDelta: no lookup sees it but Eval's probe for its own key's
// corpus prior. Entries form a doubly-linked LRU list under Context.mu.
type cacheEntry struct {
	key   entryKey
	node  Node // of a table entry
	table *compact.Table
	aux   *evalAux
	idx   *blockIndex
	bytes int64
	stale bool
	trace EvalTrace

	prev, next *cacheEntry
}

// inflightEval is one in-progress node evaluation; waiters count
// themselves on the entry it is building, block on done and then read the
// entry's table and err (written before done is closed).
type inflightEval struct {
	done  chan struct{}
	entry *cacheEntry
	err   error
}

// Stats counts evaluation work, exposed for the experiments, the benches
// and the service's stats stream. Each counter is declared once, here or in
// Work: its doc comment is its help text, its json tag its wire name (the
// snapshot embeds Stats), and its stat tag its kind:
//
//	det    identical totals at any worker count: the single-flight cache
//	       evaluates each key exactly once, every other request is a hit
//	sched  depends on scheduling and varies run to run
//	gauge  a current level rather than a running total
//	ns     wall time, rendered in seconds by Snapshot
//
// Fields are int64 so concurrent evaluation can update them atomically;
// read them only after evaluation quiesces (or via a copy).
type Stats struct {
	// NodesEvaluated counts the Eval calls that evaluated their node;
	// CacheHits those the cache or an in-flight evaluation served;
	// TuplesBuilt the compact tuples the evaluations output; ProcCalls the
	// procedure invocations.
	NodesEvaluated int64 `json:"nodes_evaluated" stat:"det"`
	CacheHits      int64 `json:"cache_hits" stat:"det"`
	TuplesBuilt    int64 `json:"tuples_built" stat:"det"`
	ProcCalls      int64 `json:"proc_calls" stat:"det"`
	Work
	// PoolSlotsGranted / PoolSlotsDenied count tryAcquire outcomes: a
	// denial means the work ran inline on the requesting goroutine.
	PoolSlotsGranted int64 `json:"pool_slots_granted" stat:"sched"`
	PoolSlotsDenied  int64 `json:"pool_slots_denied" stat:"sched"`
	// PoolMaxExtra is the high-water mark of concurrently held pool slots
	// (extra workers beyond the requesting goroutine). A service hosting
	// many tenants on one process reads this per tenant context to see the
	// peak share of the machine each actually used against its Workers
	// quota.
	PoolMaxExtra int64 `json:"pool_max_extra" stat:"sched"`
	// OpTimeNs accumulates evaluation wall time per operator kind,
	// indexed by OpKind (see trace.go).
	OpTimeNs [numOpKinds]int64 `json:"-" stat:"ns"`
	// DeltaEvals counts node evaluations that ran with a predecessor memo
	// attached (cache misses where RegisterDelta had mapped the node and
	// the predecessor's entry was still resident); NodesEvaluated minus
	// DeltaEvals is the full-evaluation count.
	DeltaEvals int64 `json:"delta_evals" stat:"det"`
	// TablesAdopted counts the evaluations whose inputs held what the
	// linked predecessor read, so its table was handed out and the operator
	// never ran (adoptUnrun).
	TablesAdopted int64 `json:"tables_adopted" stat:"det"`
	// CacheEvictions / BlockIdxEvictions count entries dropped to keep
	// the cache under CacheBudget, split by payload kind (result table vs
	// similarity-join blocking index). CacheBytes is the current estimated
	// resident size of the cache. DocRecordBytes is the same for the Env's
	// document record tables, refreshed whenever an evaluation stores its
	// result and by ApplyCorpusDelta.
	CacheEvictions    int64 `json:"cache_evictions" stat:"sched"`
	BlockIdxEvictions int64 `json:"block_idx_evictions" stat:"sched"`
	CacheBytes        int64 `json:"cache_bytes" stat:"gauge"`
	DocRecordBytes    int64 `json:"doc_record_bytes" stat:"gauge"`
	// BlockIdxPostings counts simjoin blocking indexes served directly
	// by the persistent inverted token index (Env.Postings) instead of
	// being rebuilt from page text; IndexTokenHits counts the whole-page
	// token records built from Env.DocIndex. Concurrent builders race
	// benignly and delta reuse skips lookups, hence sched.
	BlockIdxPostings int64 `json:"block_idx_postings" stat:"sched"`
	IndexTokenHits   int64 `json:"index_token_hits" stat:"sched"`
	// QuarantinedDocs is the number of documents currently quarantined by
	// per-document fault isolation. QuarantineEvents counts faults converted
	// into quarantine, QuarantineRetries counts transient-error retries, and
	// EvalRestarts counts the clean re-evaluations Plan.Execute ran after a
	// pass quarantined documents. A faulting pass still processes every
	// unit, so the per-pass quarantine set is schedule-independent.
	QuarantinedDocs   int64 `json:"quarantined_docs" stat:"gauge"`
	QuarantineEvents  int64 `json:"quarantine_events" stat:"det"`
	QuarantineRetries int64 `json:"quarantine_retries" stat:"det"`
	EvalRestarts      int64 `json:"eval_restarts" stat:"det"`
	// DeadlineCuts counts operator loops cut short by a fired best-effort
	// cancellation.
	DeadlineCuts int64 `json:"deadline_cuts" stat:"sched"`
	// CorpusDeltas counts ApplyCorpusDelta calls; CorpusPriorHits counts
	// cache-miss evaluations that picked up a displaced prior (table plus
	// per-tuple memo) from the last corpus delta, so the operator replayed
	// tuples from unchanged documents instead of recomputing them.
	CorpusDeltas    int64 `json:"corpus_deltas,omitempty" stat:"det"`
	CorpusPriorHits int64 `json:"corpus_prior_hits,omitempty" stat:"det"`
}

// Work is what the operator loops count. It is kept at three scopes: a
// chunk's statBatch, one evaluation (EvalTrace, on its cache entry) and
// the context (Stats); add merges one scope into the next. Work declares
// int64 counters only.
type Work struct {
	// FuncCalls counts the valuations p-functions and comparisons decided:
	// decisions, not their cost. VerifyCalls / RefineCalls count logical
	// feature calls, whether or not a record table answered them.
	FuncCalls   int64 `json:"func_calls" stat:"det"`
	VerifyCalls int64 `json:"verify_calls" stat:"det"`
	RefineCalls int64 `json:"refine_calls" stat:"det"`
	// SimTuplePairs / SimValuePairsProbed / SimValuePairsVerified are the
	// similarity join's funnel: candidate tuple pairs that reached pair
	// evaluation after tuple-level blocking, value pairs the value-level
	// index probes surfaced (with multiplicity — a pair sharing two probed
	// tokens counts twice), and distinct value pairs the similarity kernel
	// actually decided.
	SimTuplePairs         int64 `json:"sim_tuple_pairs" stat:"det"`
	SimValuePairsProbed   int64 `json:"sim_value_pairs_probed" stat:"det"`
	SimValuePairsVerified int64 `json:"sim_value_pairs_verified" stat:"det"`
	// CmpOperandsParsed counts the values comparison selections parsed into
	// operands (number / normalised string / NULL): once per value of each
	// distinct (document span, mode) assignment for as long as the document's
	// record table lives, however many tuples, nodes and trials meet it
	// (operands.go). A record is charged when published, not when built.
	CmpOperandsParsed int64 `json:"cmp_operands_parsed" stat:"det"`
	// ConstraintStages counts the stages constraint runs computed: one per
	// refineCell call, i.e. per tuple and constraint that was not replayed
	// from a delta memo.
	ConstraintStages int64 `json:"constraint_stages" stat:"det"`
	// LimitFallbacks counts tuples an operator kept conservatively
	// because value enumeration exceeded the limits (the superset-safe
	// fallback paths of Section 4.1). A replayed outcome recharges the
	// fallbacks it stands for.
	LimitFallbacks int64 `json:"limit_fallbacks" stat:"det"`
	// TuplesReused / TuplesRecomputed count, across the delta-capable
	// operators (constraint, similarity join, annotation; selections, cross
	// products and procedures keep no memo and count nothing), input tuples whose
	// outcome was replayed from a predecessor memo versus computed fresh.
	// Recomputed is counted in both modes, so delta and full runs of the
	// same workload are directly comparable; with delta off, Reused stays 0.
	// A constraint run counts a tuple once, whatever its number of stages:
	// recomputed when at least one stage was computed for it
	// (ConstraintStages says how many), reused when the memo covered them
	// all.
	TuplesReused     int64 `json:"tuples_reused" stat:"det"`
	TuplesRecomputed int64 `json:"tuples_recomputed" stat:"det"`
	// FeatureMemoHits / FeatureMemoMisses count Verify/Refine invocations
	// answered from a region list a record table held (or built for them).
	// Evictions under a budget, and so rebuilds, follow scheduling, so these
	// vary with it; VerifyCalls and RefineCalls count logical calls.
	FeatureMemoHits   int64 `json:"feature_memo_hits" stat:"sched"`
	FeatureMemoMisses int64 `json:"feature_memo_misses" stat:"sched"`
}

// add merges w's counts into each of dsts atomically, skipping zero ones:
// a chunk's into its evaluation and the context.
func (w *Work) add(dsts ...*Work) {
	src := reflect.ValueOf(w).Elem()
	for i := range src.NumField() {
		n := src.Field(i).Int()
		if n == 0 {
			continue
		}
		for _, d := range dsts {
			atomic.AddInt64(reflect.ValueOf(d).Elem().Field(i).Addr().Interface().(*int64), n)
		}
	}
}

// statAdd atomically bumps one stats counter; every Stats write in the
// engine goes through it because node evaluation may run on several
// goroutines at once.
func statAdd(p *int64, n int) { atomic.AddInt64(p, int64(n)) }

// statMax raises *p to v if v is larger (atomic high-water mark).
func statMax(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur || atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// statBatch is one chunk's Work. Hot loops (filterTupleF odometers,
// similarity-join probes, constraint refinement) increment plain fields
// and flush once per chunk, replacing one atomic add per predicate call
// with one per counter per chunk.
type statBatch struct {
	Work
	// stageAsg is not a Stats counter: the assignments of the stage tables a
	// constraint run did not build, handed to the chunk's EvalTrace.
	stageAsg int64
}

// countMemo records one feature-memo lookup outcome.
func (b *statBatch) countMemo(hit bool) {
	if hit {
		b.FeatureMemoHits++
	} else {
		b.FeatureMemoMisses++
	}
}

// flush merges the chunk into its evaluation and the context — the tuple
// loop does it once, when the chunk ends.
func (b *statBatch) flush(ctx *Context, ev *EvalTrace) {
	if *b == (statBatch{}) {
		return
	}
	b.add(&ev.work, &ctx.Stats.Work)
	ev.stageAsg.Add(b.stageAsg)
}

// NewContext returns a fresh context with an empty reuse cache.
func NewContext(env *Env) *Context {
	ctx := &Context{
		Env:       env,
		cache:     map[entryKey]*cacheEntry{},
		inflight:  map[entryKey]*inflightEval{},
		deltaPrev: map[NodeID]deltaLink{},
		modes:     []evalMode{{}, {}},
	}
	ctx.mode.Store(fullMode)
	if contextMade != nil {
		contextMade(ctx)
	}
	return ctx
}

// contextMade, when set, is handed every Context NewContext makes. Only
// tests set it (export_test.go): it is how they reach the private context
// of a session another package drives.
var contextMade func(*Context)

// docSet is the engine's one representation of a set of documents, keyed
// by ID: a subset, the quarantined pages, the pages a cut left
// unprocessed, the pages a faulting unit read. Only true is ever stored,
// so two sets are equal exactly when maps.Equal says so.
type docSet map[string]bool

// add adds the documents feeding the given cells of tp (nil involved =
// every cell) and returns s.
func (s docSet) add(tp compact.Tuple, involved []int) docSet {
	for ci, c := range tp.Cells {
		if involved == nil || slices.Contains(involved, ci) {
			for _, a := range c.Assigns {
				s[a.Span.Doc().ID()] = true
			}
		}
	}
	return s
}

// sorted lists the IDs in s in ascending order (nil when s is empty).
func (s docSet) sorted() []string {
	var ids []string
	for id := range s {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// evalMode is what the scans of an evaluation see: the whole corpus or,
// for a subset, the documents in in; either way less the barred
// (quarantined) ones. A subset that names every document is still a
// different mode from the whole corpus.
type evalMode struct {
	subset     bool
	in, barred docSet
}

func (m evalMode) equal(o evalMode) bool {
	return m.subset == o.subset && maps.Equal(m.in, o.in) && maps.Equal(m.barred, o.barred)
}

// admits reports whether a scan under m emits tp: every document feeding
// it is in the subset, if there is one, and none is barred.
func (m evalMode) admits(tp compact.Tuple) bool {
	if !m.subset && len(m.barred) == 0 {
		return true
	}
	for _, c := range tp.Cells {
		for _, a := range c.Assigns {
			if id := a.Span.Doc().ID(); m.subset && !m.in[id] || m.barred[id] {
				return false
			}
		}
	}
	return true
}

// SetDocFilter switches the context between full evaluation (nil) and
// subset evaluation of the documents whose ID the filter maps to true. It
// may only be called while no evaluations are in flight, and the filter
// must not be mutated afterwards.
func (ctx *Context) SetDocFilter(filter map[string]bool) {
	old := ctx.mode.Load()
	// The mode holds the filter itself, less any ID it maps to false.
	in := docSet(filter)
	for _, ok := range filter {
		if !ok {
			in = maps.Clone(in)
			maps.DeleteFunc(in, func(_ string, ok bool) bool { return !ok })
			break
		}
	}
	mode := ctx.remode(func(m *evalMode) { m.subset, m.in = filter != nil, in })
	// Remember the mode we switched away from: delta evaluation falls back
	// to the previous mode's memos (per-tuple outcomes are subset-
	// independent), which is what lets the final full-corpus execution
	// replay the tuples the subset iterations already processed.
	if mode != old {
		ctx.prevMode = old
	}
}

// remode edits a copy of the current mode and makes the result current,
// interned by its contents: at SetDocFilter and at every change of the
// quarantine set. So subset and full evaluations never alias, different
// subsets never share results, whichever map object named them, and
// evaluations over different survivor sets never share cache entries — a
// pass that saw a fault is never resident under the survivors' key.
func (ctx *Context) remode(edit func(*evalMode)) uint32 {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	m := ctx.modes[ctx.mode.Load()]
	edit(&m)
	// modes[0] stands for none and is never current.
	mode := 1 + slices.IndexFunc(ctx.modes[1:], m.equal)
	if mode == 0 {
		mode = len(ctx.modes)
		ctx.modes = append(ctx.modes, m)
	}
	ctx.mode.Store(uint32(mode))
	return uint32(mode)
}

// modeOf returns the interned mode with the given id.
func (ctx *Context) modeOf(mode uint32) evalMode {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return ctx.modes[mode]
}

// lookupLocked returns the resident, current entry for key. Callers hold
// ctx.mu.
func (ctx *Context) lookupLocked(key entryKey) *cacheEntry {
	if e := ctx.cache[key]; e != nil && !e.stale {
		return e
	}
	return nil
}

// touchLocked moves an entry to the front of the LRU order.
func (ctx *Context) touchLocked(e *cacheEntry) {
	if ctx.lruHead == e {
		return
	}
	ctx.unlinkLocked(e)
	ctx.pushFrontLocked(e)
}

func (ctx *Context) unlinkLocked(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if ctx.lruHead == e {
		ctx.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if ctx.lruTail == e {
		ctx.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (ctx *Context) pushFrontLocked(e *cacheEntry) {
	e.next = ctx.lruHead
	if ctx.lruHead != nil {
		ctx.lruHead.prev = e
	}
	ctx.lruHead = e
	if ctx.lruTail == nil {
		ctx.lruTail = e
	}
}

// storeLocked inserts an entry (clobbering any previous occupant of the
// key: a re-store, or the stale table the entry supersedes) and, while the
// entries and the document record tables together are over budget, evicts
// entries from the LRU tail. The just-stored entry is never evicted by its
// own insertion: the cache must be able to hold the result it is about to
// return. Only when no other entry is left do record tables go, least
// recently used page first: each is small, but every evaluation over its
// page reads it, so dropping them all made every comparison rebuild its
// operands. The bound kept is CacheBytes + DocRecordBytes ≤ CacheBudget +
// the entry being stored.
func (ctx *Context) storeLocked(e *cacheEntry) {
	if old := ctx.cache[e.key]; old != nil {
		ctx.dropLocked(old)
	}
	ctx.cache[e.key] = e
	ctx.pushFrontLocked(e)
	atomic.AddInt64(&ctx.Stats.CacheBytes, e.bytes)
	records := ctx.Env.FeatureMemo
	if ctx.CacheBudget > 0 {
		records.Tick()
		over := func() int64 { return atomic.LoadInt64(&ctx.Stats.CacheBytes) + records.Bytes() - ctx.CacheBudget }
		for over() > 0 && ctx.lruTail != nil && ctx.lruTail != e {
			ctx.evictLocked(ctx.lruTail)
		}
		if n := over(); n > 0 {
			records.Evict(n)
		}
	}
	atomic.StoreInt64(&ctx.Stats.DocRecordBytes, records.Bytes())
}

// dropLocked removes one entry from the cache.
func (ctx *Context) dropLocked(e *cacheEntry) {
	ctx.unlinkLocked(e)
	delete(ctx.cache, e.key)
	atomic.AddInt64(&ctx.Stats.CacheBytes, -e.bytes)
}

// evictLocked drops one entry and counts the eviction by payload kind. An
// evicted entry is gone: the next request for its key re-evaluates.
func (ctx *Context) evictLocked(e *cacheEntry) {
	ctx.dropLocked(e)
	if e.idx != nil {
		statAdd(&ctx.Stats.BlockIdxEvictions, 1)
		return
	}
	statAdd(&ctx.Stats.CacheEvictions, 1)
}

// CacheInfo reports the cache's current estimated size and entry count
// (tables and blocking indexes combined).
func (ctx *Context) CacheInfo() (bytes int64, entries int) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return atomic.LoadInt64(&ctx.Stats.CacheBytes), len(ctx.cache)
}

// Node is one operator of a compiled plan. Nodes are immutable after
// construction; evaluation is memoised through the context cache.
type Node interface {
	// ID is the node's identity, the reuse key (see NodeID).
	ID() NodeID
	// Signature is a canonical rendering of the subtree for people: plans,
	// -explain and TraceOps.
	Signature() string
	// Columns names the variables bound by this node's output table.
	Columns() []string
	// Children returns the node's input operators.
	Children() []Node
	// eval computes the node's output table (uncached) from in, the tables
	// of Children() in order, which Eval has resolved. ev receives
	// per-evaluation attribution (the loop counters, a run's stage
	// totals) and may be nil, which discards it; dx carries
	// delta-evaluation state and is nil when delta evaluation is off.
	eval(ctx *Context, ev *EvalTrace, dx *deltaState, in []*compact.Table) (*compact.Table, error)
	// identity is what nodeTable.intern filled in: the id, the kind, the head.
	identity() *ident
}

// SumAssignments evaluates every node of the plan (through the cache) and
// totals the assignments across all intermediate and final tables — the
// "number of assignments produced by the extraction process" that the
// convergence monitor tracks alongside the result size (Section 5.1). A
// constraint run stands for one table per stage: the ones it did not build
// are totalled from what its cache entry's trace recorded (stageAsg), so
// adding a constraint perturbs the sum whether or not it starts a new node.
func SumAssignments(ctx *Context, root Node) (int, error) {
	total := 0
	seen := map[NodeID]bool{}
	var walk func(n Node) error
	walk = func(n Node) error {
		if seen[n.ID()] {
			return nil
		}
		seen[n.ID()] = true
		for _, c := range n.Children() {
			if err := walk(c); err != nil {
				return err
			}
		}
		t, err := evalRetrying(ctx, n)
		if err != nil {
			return err
		}
		total += t.NumAssignments()
		ctx.mu.Lock()
		if e := ctx.lookupLocked(entryKey{mode: ctx.mode.Load(), node: n.ID()}); e != nil {
			total += int(e.trace.stageAsg.Load())
		}
		ctx.mu.Unlock()
		return nil
	}
	if err := walk(root); err != nil {
		return 0, err
	}
	return total, nil
}

// Eval evaluates a node through the context's reuse cache with
// single-flight deduplication: the first goroutine to request a node
// evaluates it; concurrent requesters for the same key block until it
// finishes and share the result (counted as cache hits). Failed
// evaluations are not cached, so a later request retries. The evaluating
// call resolves the node's inputs first (evalAll: siblings fan out over
// the pool), then runs the operator over them.
//
// With delta evaluation on, a cache miss of a node that RegisterDelta
// mapped to a predecessor picks up the predecessor's per-tuple memo, so
// the operator replays unchanged tuples instead of recomputing them; the
// result is byte-identical either way. When every input holds what the
// predecessor read, the operator does not run at all: the predecessor's
// table and memo are the result (adoptUnrun).
//
// If the node's evaluation panics, the in-flight entry is removed and its
// done channel closed before the panic propagates, so concurrent waiters
// unblock with an error instead of deadlocking and a later request for
// the same key evaluates afresh.
func Eval(ctx *Context, n Node) (*compact.Table, error) {
	// A fired cancellation is marked here and falls through: operators
	// degrade per chunk and the partial result propagates up.
	ctx.Cancelled()
	key := entryKey{mode: ctx.mode.Load(), node: n.ID()}
	ctx.mu.Lock()
	if e := ctx.lookupLocked(key); e != nil && e.table != nil {
		ctx.touchLocked(e)
		e.trace.served++
		ctx.mu.Unlock()
		statAdd(&ctx.Stats.CacheHits, 1)
		return e.table, nil
	}
	if c, ok := ctx.inflight[key]; ok {
		c.entry.trace.served++
		ctx.mu.Unlock()
		// A cut owner finishes promptly, so a plain wait suffices.
		<-c.done
		if c.err != nil {
			return nil, c.err
		}
		statAdd(&ctx.Stats.CacheHits, 1)
		return c.entry.table, nil
	}
	// The entry is built as the evaluation goes: its trace is the
	// evaluation's, and it is stored once the table is complete.
	e := &cacheEntry{key: key, node: n}
	c := &inflightEval{done: make(chan struct{}), entry: e}
	ctx.inflight[key] = c
	dx := ctx.deltaPriorLocked(n, key)
	ctx.mu.Unlock()

	statAdd(&ctx.Stats.NodesEvaluated, 1)
	if dx != nil && (dx.prior != nil || dx.linked != nil) {
		statAdd(&ctx.Stats.DeltaEvals, 1)
	}
	ev := &e.trace
	finished := false
	start := time.Now()
	defer func() {
		if finished {
			return
		}
		// n.eval panicked (or exited the goroutine): unblock waiters with
		// an error, leave the key uncached and un-poisoned, then let the
		// panic continue.
		r := recover()
		c.err = fmt.Errorf("engine: panic evaluating %s: %v", n.Signature(), r)
		ctx.mu.Lock()
		delete(ctx.inflight, key)
		ctx.mu.Unlock()
		close(c.done)
		if r != nil {
			panic(r)
		}
	}()
	in, err := evalAll(ctx, n.Children())
	var t *compact.Table
	if err == nil {
		opStart := time.Now()
		if t = ctx.adoptUnrun(n, dx, in, ev); t == nil {
			t, err = n.eval(ctx, ev, dx, in)
		}
		ev.self = time.Since(opStart)
	}
	finished = true
	ev.wall = time.Since(start)
	atomic.AddInt64(&ctx.Stats.OpTimeNs[n.identity().kind], int64(ev.wall))
	e.table, c.err = t, err

	ctx.mu.Lock()
	if err == nil {
		statAdd(&ctx.Stats.TuplesBuilt, len(t.Tuples))
		if !ctx.cancelFired() {
			// A fired cancellation means this result may be partial (a
			// best-effort cut truncates operator loops), so it is handed to
			// the caller but never cached: a later evaluation under the same
			// key must recompute in full.
			if dx != nil {
				e.aux = dx.aux
			}
			e.bytes = t.MemBytes()
			if e.aux != nil {
				e.bytes += e.aux.bytes
			}
			ctx.storeLocked(e)
		}
	}
	delete(ctx.inflight, key)
	ctx.mu.Unlock()
	close(c.done)
	return t, err
}

// colIndex locates a column by name or panics; internal nodes are built by
// the compiler, which guarantees the column exists.
func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	panic(fmt.Sprintf("engine: internal error: column %q missing from %v", name, cols))
}
