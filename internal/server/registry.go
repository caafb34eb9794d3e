package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iflex/internal/assistant"
	"iflex/internal/engine"
)

// session is one hosted refinement session. mu serializes steps: the
// library session is single-threaded by contract, so concurrent step
// requests for the same session queue behind each other while sessions of
// different tenants (or the same tenant) run fully in parallel on their
// own engine contexts.
type session struct {
	id     string
	tenant string

	mu sync.Mutex // guards s, res, pending, iterations, questionsAsked
	s  *assistant.Session
	// res is set once the session is finalized; pending mirrors the
	// questions returned by the last step (also available as s.Pending,
	// kept here so Info can read it without the session lock discipline
	// leaking).
	res            *assistant.Result
	done           bool
	iterations     int
	questionsAsked int

	workers     int
	cacheBudget int64
	// recordBytes is the session's share of its tenant's docRecordBytes, as
	// of its last step; guarded by the registry's mutex.
	recordBytes int64
	created     time.Time
	lastUsed    atomic.Int64 // unix nanos; read by the sweeper without mu

	// storeName/storePred are set for store-backed sessions: the mounted
	// store the session evaluates over and the extensional predicate its
	// pages bind to. The corpus endpoint uses them to refresh every
	// session sharing a mutated store.
	storeName string
	storePred string
}

func (s *session) touch()                { s.lastUsed.Store(time.Now().UnixNano()) }
func (s *session) lastUsedAt() time.Time { return time.Unix(0, s.lastUsed.Load()) }

// state reports the lifecycle phase; callers hold s.mu.
func (s *session) state() string {
	switch {
	case s.res != nil:
		return "finalized"
	case s.done:
		return "done"
	default:
		return "active"
	}
}

// tenantState tracks one tenant's resource accounting: live session count,
// reuse-cache bytes allocated against the tenant pool, the document record
// bytes its sessions hold (counted against those allocations), and aggregate
// step telemetry for GET /v1/stats.
type tenantState struct {
	sessions       int
	cacheBytes     int64
	docRecordBytes int64

	steps           int64
	stepNs          int64
	nodesEvaluated  int64
	poolMaxExtra    int64
	sessionsCreated int64
	sessionsEvicted int64
}

// registry owns the session table and tenant accounting. One mutex guards
// both: every operation on it is O(sessions) metadata work, never an
// evaluation, so the registry is never held across a step.
type registry struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	tenants  map[string]*tenantState
	nextID   int
}

func newRegistry(cfg Config) *registry {
	return &registry{cfg: cfg, sessions: map[string]*session{}, tenants: map[string]*tenantState{}}
}

// quotaErr is a capacity refusal, mapped to HTTP 429.
type quotaErr struct{ msg string }

func (e quotaErr) Error() string { return e.msg }

// admit reserves capacity for a new session: global cap, per-tenant cap,
// and a cache-budget allocation from the tenant's byte pool. It returns
// the granted workers and cache budget. The reservation is released by
// remove (or by the caller on a failed create via release).
func (r *registry) admit(tenant string, wantWorkers int, wantCache int64) (workers int, cache int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.sessions) >= r.cfg.MaxSessions {
		return 0, 0, quotaErr{fmt.Sprintf("server at capacity (%d sessions)", r.cfg.MaxSessions)}
	}
	ts := r.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		r.tenants[tenant] = ts
	}
	if ts.sessions >= r.cfg.MaxSessionsPerTenant {
		return 0, 0, quotaErr{fmt.Sprintf("tenant %q at capacity (%d sessions)", tenant, r.cfg.MaxSessionsPerTenant)}
	}
	// Workers: clamp the request to the tenant's machine share. Zero asks
	// for the full share.
	workers = r.cfg.TenantWorkers
	if wantWorkers > 0 && wantWorkers < workers {
		workers = wantWorkers
	}
	// Cache budget: allocate from the tenant's byte pool. Zero asks for an
	// equal per-session share; a pool of zero means unlimited (budget 0).
	cache = wantCache
	if pool := r.cfg.TenantCacheBudget; pool > 0 {
		if cache == 0 {
			cache = pool / int64(r.cfg.MaxSessionsPerTenant)
		}
		if cache > pool-ts.cacheBytes {
			return 0, 0, quotaErr{fmt.Sprintf("tenant %q cache budget exhausted (%d of %d bytes allocated)",
				tenant, ts.cacheBytes, pool)}
		}
		ts.cacheBytes += cache
	}
	ts.sessions++
	ts.sessionsCreated++
	return workers, cache, nil
}

// release undoes an admit reservation for a create that failed after
// admission (bad program, unknown task, ...).
func (r *registry) release(tenant string, cache int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ts := r.tenants[tenant]; ts != nil {
		ts.sessions--
		ts.sessionsCreated--
		ts.cacheBytes -= cache
	}
}

// add registers an admitted session and assigns its ID.
func (r *registry) add(s *session) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	s.id = fmt.Sprintf("s%d", r.nextID)
	r.sessions[s.id] = s
	return s.id
}

func (r *registry) get(id string) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions[id]
}

// byStore returns the sessions backed by a named store, sorted by id so
// the corpus endpoint locks them in a deterministic order.
func (r *registry) byStore(name string) []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*session
	for _, s := range r.sessions {
		if s.storeName == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// remove drops a session and returns its resources to the tenant.
// evicted marks TTL eviction (vs explicit delete) in the tenant stats.
func (r *registry) remove(id string, evicted bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sessions[id]
	if s == nil {
		return false
	}
	delete(r.sessions, id)
	if ts := r.tenants[s.tenant]; ts != nil {
		ts.sessions--
		ts.cacheBytes -= s.cacheBudget
		ts.docRecordBytes -= s.recordBytes
		if evicted {
			ts.sessionsEvicted++
		}
	}
	return true
}

// recordStep folds one finished step into the tenant telemetry: wall
// time, the step's fresh-evaluation delta, and from the session's snapshot
// the context's pool high-water mark (the tenant's peak machine share so
// far) and the bytes of its document record tables.
func (r *registry) recordStep(s *session, wall time.Duration, evals int64, snap engine.StatsSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.tenants[s.tenant]
	if ts == nil {
		return
	}
	ts.steps++
	ts.stepNs += wall.Nanoseconds()
	ts.nodesEvaluated += evals
	if snap.PoolMaxExtra > ts.poolMaxExtra {
		ts.poolMaxExtra = snap.PoolMaxExtra
	}
	ts.docRecordBytes += snap.DocRecordBytes - s.recordBytes
	s.recordBytes = snap.DocRecordBytes
}

// expired returns the sessions idle past the TTL. The caller evicts them
// one by one under their own locks.
func (r *registry) expired(ttl time.Duration) []*session {
	cutoff := time.Now().Add(-ttl)
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*session
	for _, s := range r.sessions {
		if s.lastUsedAt().Before(cutoff) {
			out = append(out, s)
		}
	}
	return out
}

// stats renders the per-tenant aggregate view.
func (r *registry) stats() StatsResponse {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp := StatsResponse{Sessions: len(r.sessions), Tenants: map[string]TenantStats{}}
	for name, ts := range r.tenants {
		resp.Tenants[name] = TenantStats{
			Sessions:        ts.sessions,
			CacheBytes:      ts.cacheBytes,
			DocRecordBytes:  ts.docRecordBytes,
			Steps:           ts.steps,
			StepSeconds:     float64(ts.stepNs) / 1e9,
			NodesEvaluated:  ts.nodesEvaluated,
			PoolMaxExtra:    ts.poolMaxExtra,
			SessionsCreated: ts.sessionsCreated,
			SessionsEvicted: ts.sessionsEvicted,
		}
	}
	return resp
}
