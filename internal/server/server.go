package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/markup"
	"iflex/internal/store"
	"iflex/internal/text"
)

// Config tunes the service. Zero values select the defaults.
type Config struct {
	// MaxSessions caps live sessions across all tenants (default 64).
	MaxSessions int
	// MaxSessionsPerTenant caps one tenant's live sessions (default 8).
	MaxSessionsPerTenant int
	// TenantWorkers is each tenant's worker-pool share: every session's
	// Workers is clamped to it (default GOMAXPROCS). With T active tenants
	// the machine is oversubscribed at most T-fold — the engine pool never
	// blocks on a slot, so oversubscription degrades latency, not
	// correctness.
	TenantWorkers int
	// TenantCacheBudget is each tenant's reuse-cache byte pool; sessions
	// allocate their CacheBudget from it and creation fails with 429 when
	// the pool is exhausted (0 = unlimited, sessions default to no budget).
	TenantCacheBudget int64
	// SessionTTL evicts sessions idle this long (default 15m).
	SessionTTL time.Duration
	// SweepInterval is the eviction scan cadence (default 1m).
	SweepInterval time.Duration
	// Stores are named document stores (opened at startup, e.g. from
	// iflexd -store name=dir) that sessions reference by name instead of
	// shipping a corpus inline: every session over the same store shares
	// one handle, its lazily-materialized pages, and its persistent
	// inverted token index.
	Stores map[string]*store.DiskStore
	// DefaultStepDeadline applies when a step request carries no
	// deadline_ms (default 0 = none).
	DefaultStepDeadline time.Duration
	// MaxStepDeadline clamps requested per-step deadlines (default 30s).
	MaxStepDeadline time.Duration
	// MaxRequestBytes caps a JSON request body (default 8 MiB; negative =
	// unlimited). Oversized bodies get 413 before the decoder buffers
	// them — inline corpora and page mutations are the only large inputs,
	// and a malicious body should not be able to balloon the heap.
	MaxRequestBytes int64
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.MaxSessionsPerTenant == 0 {
		c.MaxSessionsPerTenant = 8
	}
	if c.TenantWorkers == 0 {
		c.TenantWorkers = runtime.GOMAXPROCS(0)
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = time.Minute
	}
	if c.MaxStepDeadline == 0 {
		c.MaxStepDeadline = 30 * time.Second
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the multi-tenant extraction service. Create one with New,
// mount Handler on an http.Server, and call Close (directly or through a
// drain sequence) when done so the sweeper goroutine exits.
type Server struct {
	cfg      Config
	reg      *registry
	mux      *http.ServeMux
	draining atomic.Bool
	// storeMu serializes mutations of each mounted store against session
	// creation over it (a corpus commit rewrites the store's live view,
	// which buildSession reads). Sessions mid-evaluation are quiesced
	// separately: the corpus handler holds every backed session's lock
	// across the commit.
	storeMu map[string]*sync.Mutex
	// inflight gauges write-path requests currently inside a handler, so
	// a drain sequence (and GET /v1/stats) can watch work quiesce.
	inflight atomic.Int64

	closeOnce sync.Once
	stop      chan struct{}
	swept     chan struct{} // closed when the sweeper goroutine exits
}

// New builds a server and starts its TTL sweeper.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     newRegistry(cfg),
		mux:     http.NewServeMux(),
		storeMu: map[string]*sync.Mutex{},
		stop:    make(chan struct{}),
		swept:   make(chan struct{}),
	}
	for name := range cfg.Stores {
		s.storeMu[name] = &sync.Mutex{}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/sessions", s.gated(s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleInfo)
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.gated(s.handleStep))
	s.mux.HandleFunc("POST /v1/sessions/{id}/corpus", s.gated(s.handleCorpus))
	s.mux.HandleFunc("GET /v1/sessions/{id}/result", s.gated(s.handleResult))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	go s.sweep()
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain flips the server into drain mode: new sessions, steps, and result
// streams get 503 while requests already inside a handler run to
// completion (connection-level waiting is http.Server.Shutdown's job).
// Read-only endpoints stay up so orchestrators can watch the drain
// (GET /healthz then reports "draining").
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) {
		s.cfg.Logf("draining: refusing new work")
	}
}

// Close stops the TTL sweeper and waits for it to exit. It does not wait
// for in-flight HTTP requests — pair it with http.Server.Shutdown.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.swept
}

// sweep evicts idle sessions until Close.
func (s *Server) sweep() {
	defer close(s.swept)
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			for _, sess := range s.reg.expired(s.cfg.SessionTTL) {
				// A session mid-step is busy, not idle: skip it and let the
				// next sweep reconsider after the step bumped lastUsed.
				if !sess.mu.TryLock() {
					continue
				}
				if s.reg.remove(sess.id, true) {
					s.cfg.Logf("evicted idle session %s (tenant %s)", sess.id, sess.tenant)
				}
				sess.mu.Unlock()
			}
		}
	}
}

// gated wraps write-path handlers with the drain check.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeBody decodes a JSON request body bounded at MaxRequestBytes,
// writing the error response (413 for an oversized body, 400 otherwise)
// itself; it reports whether decoding succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := r.Body
	if s.cfg.MaxRequestBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := s.reg.stats()
	resp.InFlight = s.inflight.Load()
	writeJSON(w, http.StatusOK, resp)
}

// candidateOracle backs server-driven sessions: Answer is never consulted
// (answers arrive over HTTP), but the simulation strategy still needs
// Candidates to bound parametric answer domains.
type candidateOracle struct {
	candidates map[string]map[string][]string
}

func (o candidateOracle) Answer(assistant.Question) assistant.Answer { return assistant.DontKnow() }

func (o candidateOracle) Candidates(attr alog.AttrRef, featureName string) []string {
	if m, ok := o.candidates[attr.String()]; ok {
		return m[featureName]
	}
	return nil
}

// MaxTaskRecords caps a create's records, which size an in-memory corpus.
const MaxTaskRecords = 10000

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Tenant == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("tenant is required"))
		return
	}
	corpora := 0
	for _, given := range []bool{req.Task != "", len(req.Docs) > 0, req.Store != ""} {
		if given {
			corpora++
		}
	}
	if corpora != 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("exactly one of task, docs, or store is required"))
		return
	}
	if req.CacheBudgetBytes < 0 || req.Records < 0 || req.Records > MaxTaskRecords {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("cache_budget_bytes must not be negative, records must be in [0, %d]", MaxTaskRecords))
		return
	}

	workers, cache, err := s.reg.admit(req.Tenant, req.Workers, req.CacheBudgetBytes)
	if err != nil {
		if _, ok := err.(quotaErr); ok {
			writeErr(w, http.StatusTooManyRequests, err)
		} else {
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}

	sess, err := s.buildSession(req, workers, cache)
	if err != nil {
		s.reg.release(req.Tenant, cache)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id := s.reg.add(sess)
	s.cfg.Logf("created session %s (tenant %s, workers %d, cache %d)", id, req.Tenant, workers, cache)
	writeJSON(w, http.StatusCreated, CreateSessionResponse{
		ID: id, Tenant: req.Tenant, Workers: workers, CacheBudgetBytes: cache,
	})
}

// buildSession assembles the library session for a create request.
func (s *Server) buildSession(req CreateSessionRequest, workers int, cache int64) (*session, error) {
	var (
		env       *engine.Env
		oracle    assistant.Oracle
		storePred string
	)
	progSrc := req.Program
	if req.Store != "" {
		st := s.cfg.Stores[req.Store]
		if st == nil {
			return nil, fmt.Errorf("no store named %q is mounted on this server", req.Store)
		}
		if progSrc == "" {
			return nil, fmt.Errorf("program is required with a store corpus")
		}
		pred := req.StorePred
		if pred == "" {
			pred = "docs"
		}
		env = engine.NewEnv()
		// The store mutex excludes a concurrent corpus commit from
		// rewriting the live view while this session snapshots it. Token
		// prefilters and join blocking are served by the store's
		// persistent inverted index; pages materialize lazily, so the
		// session references the store handle, not a resident corpus.
		mu := s.storeMu[req.Store]
		mu.Lock()
		env.BindStore(pred, "x", st)
		mu.Unlock()
		storePred = pred
		oracle = candidateOracle{candidates: req.Candidates}
	} else if req.Task != "" {
		task, err := corpus.TaskByID(req.Task)
		if err != nil {
			return nil, err
		}
		records := req.Records
		if records == 0 {
			records = 12
		}
		c := task.Generate(records, req.Seed)
		env = task.Env(c)
		oracle = task.Oracle()
		if progSrc == "" {
			progSrc = task.Program
		}
	} else {
		if progSrc == "" {
			return nil, fmt.Errorf("program is required with inline docs")
		}
		env = engine.NewEnv()
		for pred, docs := range req.Docs {
			parsed := make([]*text.Document, 0, len(docs))
			for _, d := range docs {
				doc, err := markup.Parse(d.ID, d.HTML)
				if err != nil {
					return nil, fmt.Errorf("parsing doc %q of %s: %w", d.ID, pred, err)
				}
				parsed = append(parsed, doc)
			}
			env.AddDocTable(pred, "x", parsed)
		}
		oracle = candidateOracle{candidates: req.Candidates}
	}

	prog, err := alog.Parse(progSrc)
	if err != nil {
		return nil, fmt.Errorf("parsing program: %w", err)
	}
	strategy := req.Strategy
	if strategy == "" {
		strategy = "seq"
	}
	strat, err := assistant.ByName(strategy)
	if err != nil {
		return nil, err
	}
	lib := assistant.NewSession(env, prog, oracle, assistant.Config{
		Strategy:              strat,
		Alpha:                 req.Alpha,
		ConvergenceWindow:     req.ConvergenceWindow,
		QuestionsPerIteration: req.QuestionsPerIteration,
		MaxIterations:         req.MaxIterations,
		SubsetSeed:            req.SubsetSeed,
		Workers:               workers,
		CacheBudget:           cache,
		Trace:                 req.Trace,
	})
	sess := &session{
		tenant:      req.Tenant,
		s:           lib,
		workers:     workers,
		cacheBudget: cache,
		created:     time.Now(),
		storeName:   req.Store,
		storePred:   storePred,
	}
	sess.touch()
	return sess, nil
}

// stepDeadline resolves a request's deadline against the server's default
// and clamp.
func (s *Server) stepDeadline(ms int64) time.Duration {
	d := s.cfg.DefaultStepDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxStepDeadline {
		d = s.cfg.MaxStepDeadline
	}
	return d
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	sess := s.reg.get(r.PathValue("id"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	var req StepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	answers := make([]assistant.Answer, len(req.Answers))
	for i, a := range req.Answers {
		if a.Known {
			answers[i] = assistant.Know(a.Value)
		} else {
			answers[i] = assistant.DontKnow()
		}
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.touch()
	if sess.res != nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("session is finalized"))
		return
	}
	start := time.Now()
	sr, err := sess.s.StepDeadline(s.stepDeadline(req.DeadlineMS), answers)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sess.touch()
	sess.done = sr.Done
	sess.iterations = sr.Iteration.N
	sess.questionsAsked += len(req.Answers)
	s.reg.recordStep(sess, time.Since(start), sr.Iteration.Evals, sess.s.StatsSnapshot())

	resp := StepResponse{
		Iteration: iterationJSON(sr.Iteration),
		Converged: sr.Converged,
		Done:      sr.Done,
		Degraded:  sr.Degraded,
	}
	for _, q := range sr.Questions {
		resp.Questions = append(resp.Questions, questionJSON(q))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCorpus is the watch/ingest path: it mutates the addressed
// session's mounted store (put pages — add or supersede by id — and
// remove pages), folds the committed delta into every session backed by
// that store, and incrementally re-evaluates the addressed session's
// current program over the full mutated corpus. The response carries the
// delta, the store generation, and the re-evaluation's reuse counters;
// the result table is streamed by GET result as usual (a finalized
// session's cached result is swapped for the live one).
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	sess := s.reg.get(r.PathValue("id"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	var req CorpusRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if sess.storeName == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("session is not store-backed"))
		return
	}
	if len(req.Put)+len(req.Remove) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("empty mutation"))
		return
	}
	st := s.cfg.Stores[sess.storeName]
	mu := s.storeMu[sess.storeName]
	mu.Lock()
	defer mu.Unlock()

	// Quiesce every session over this store: the commit rewrites the live
	// document view their evaluations read through, and each needs the
	// delta folded in before its next step. Locks are taken in id order
	// (byStore sorts) and the store mutex serializes concurrent corpus
	// posts, so the ordering cannot deadlock.
	backed := s.reg.byStore(sess.storeName)
	found := false
	for _, b := range backed {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b == sess {
			found = true
		}
	}
	if !found {
		// Deleted between get and byStore.
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	sess.touch()

	m, err := st.BeginMutation()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	// Staging failures happen before anything reaches disk, so an
	// abandoned mutation leaves the store untouched.
	for _, d := range req.Put {
		if err := m.Put(d.ID, d.HTML); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	for _, id := range req.Remove {
		if err := m.Remove(id); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	delta, err := m.Commit()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}

	cd := &engine.CorpusDelta{Added: delta.Added, Updated: delta.Updated, Removed: delta.Removed}
	for _, b := range backed {
		pred := b.storePred
		b.s.ApplyCorpusDelta(cd, func(env *engine.Env) { env.BindStore(pred, "x", st) })
	}

	// Re-evaluate the addressed session (its counters are the response)
	// and every finalized sibling — a finalized session keeps serving its
	// cached result, so the cached table is swapped for the live one.
	// Active siblings re-execute incrementally on their own next step.
	var up *assistant.LiveUpdate
	for _, b := range backed {
		if b != sess && b.res == nil {
			continue
		}
		u, err := b.s.Reevaluate(s.stepDeadline(req.DeadlineMS))
		if err != nil {
			if b == sess {
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
			s.cfg.Logf("corpus delta: re-evaluating session %s: %v", b.id, err)
			continue
		}
		if b.res != nil {
			b.res.Final = u.Final
			b.res.FinalTuples = u.FinalTuples
			b.res.Degraded = u.Final.Degraded
		}
		if b == sess {
			up = u
		}
	}
	s.cfg.Logf("corpus delta on store %q via session %s: +%d ~%d -%d (gen %d, %d sessions refreshed)",
		sess.storeName, sess.id, len(delta.Added), len(delta.Updated), len(delta.Removed),
		st.Generation(), len(backed))
	writeJSON(w, http.StatusOK, CorpusResponse{
		Added: delta.Added, Updated: delta.Updated, Removed: delta.Removed,
		Generation:        st.Generation(),
		SessionsRefreshed: len(backed),
		Tuples:            up.FinalTuples,
		TuplesReused:      up.TuplesReused,
		TuplesRecomputed:  up.TuplesRecomputed,
		CorpusPriorHits:   up.CorpusPriorHits,
		WallS:             up.WallS,
	})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sess := s.reg.get(r.PathValue("id"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	sess.mu.Lock()
	info := SessionInfo{
		ID: sess.id, Tenant: sess.tenant, State: sess.state(),
		Iterations: sess.iterations, QuestionsAsked: sess.questionsAsked,
		Workers: sess.workers, CacheBudgetBytes: sess.cacheBudget,
		Created: sess.created, LastUsed: sess.lastUsedAt(),
	}
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.reg.get(id)
	if sess == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	// Wait out an in-flight step so the engine context is quiescent when
	// the session is dropped.
	sess.mu.Lock()
	removed := s.reg.remove(id, false)
	sess.mu.Unlock()
	if !removed {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	s.cfg.Logf("deleted session %s (tenant %s)", id, sess.tenant)
	w.WriteHeader(http.StatusNoContent)
}

// handleResult finalizes the session (once) and streams the result as
// NDJSON: header, one line per compact tuple (rendered exactly as
// compact.Table.String does), the degradation report, an engine stats
// snapshot, optionally an EXPLAIN trace (?explain=1, needs trace=true at
// create), and a terminating end line.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sess := s.reg.get(r.PathValue("id"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	var deadlineMS int64
	if v := r.URL.Query().Get("deadline_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad deadline_ms: %w", err))
			return
		}
		deadlineMS = ms
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.touch()
	if sess.res == nil {
		res, err := sess.s.Finalize(s.stepDeadline(deadlineMS))
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		sess.res = res
	}
	res := sess.res

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	converged := res.Converged
	_ = enc.Encode(StreamLine{
		Type: "header", Cols: res.Final.Cols,
		CompactTuples: len(res.Final.Tuples), ExpandedTuples: res.FinalTuples,
		Converged: &converged, QuestionsAsked: res.QuestionsAsked,
		Iterations: len(res.Iterations),
	})
	flush()
	res.Final.RenderRows(func(row string) {
		_ = enc.Encode(StreamLine{Type: "row", Row: row})
	})
	if res.Degraded != nil {
		_ = enc.Encode(StreamLine{Type: "degraded", Degraded: res.Degraded, Summary: res.Degraded.Summary()})
	}
	snap := sess.s.StatsSnapshot()
	_ = enc.Encode(StreamLine{Type: "stats", Stats: &snap})
	if r.URL.Query().Get("explain") == "1" {
		txt, err := sess.s.Explain()
		if err != nil {
			txt = "explain unavailable: " + err.Error()
		}
		_ = enc.Encode(StreamLine{Type: "explain", Text: txt})
	}
	_ = enc.Encode(StreamLine{Type: "end"})
	flush()
}
