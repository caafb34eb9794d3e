// Package server implements iflexd's multi-tenant extraction service: a
// long-running HTTP/JSON surface over the library's session API. Tenants
// create refinement sessions, step them by answering next-effort
// questions, and stream the finalized result table with its degradation
// report and EXPLAIN trace. Sessions are evicted after idling past a TTL,
// per-tenant quotas map onto the engine's existing seams (worker-pool
// share, reuse-cache byte budget, per-step deadlines), and a drain mode
// lets in-flight steps finish while new work is refused — see DESIGN.md
// §14.
package server

import (
	"fmt"
	"strings"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/compact"
	"iflex/internal/engine"
	"iflex/internal/feature"
)

// Doc is one inline extensional document in a create request.
type Doc struct {
	ID   string `json:"id"`
	HTML string `json:"html"`
}

// CreateSessionRequest opens a refinement session. Exactly one corpus is
// given: a built-in task (Task/Records/Seed — the benchmark corpora),
// inline documents (Docs + Program), or a server-mounted document store
// (Store + Program). Task-backed sessions default Program to the task's
// and draw simulation candidates from the task's ground-truth oracle;
// inline and store-backed sessions supply Candidates themselves when
// they want the simulation strategy to score parametric features.
type CreateSessionRequest struct {
	Tenant string `json:"tenant"`

	Task    string `json:"task,omitempty"`
	Records int    `json:"records,omitempty"` // at most MaxTaskRecords
	Seed    int64  `json:"seed,omitempty"`

	Docs    map[string][]Doc `json:"docs,omitempty"`
	Program string           `json:"program,omitempty"`
	// Store names a document store mounted on the server (iflexd -store
	// name=dir): the session evaluates over the store's pages — shared,
	// lazily materialized, with token prefilters and join blocking served
	// by its persistent inverted index — instead of an inline corpus.
	// Program is required; StorePred is the extensional predicate the
	// pages bind to (default "docs").
	Store     string `json:"store,omitempty"`
	StorePred string `json:"store_pred,omitempty"`
	// Candidates maps attribute key ("pred.var") -> feature -> candidate
	// values for the simulation strategy's parametric questions.
	Candidates map[string]map[string][]string `json:"candidates,omitempty"`

	Strategy string `json:"strategy,omitempty"` // "seq" (default) or "sim"
	// Workers requests a worker-pool share; the server clamps it to the
	// tenant's quota (0 = the full quota).
	Workers int `json:"workers,omitempty"`
	// CacheBudgetBytes requests reuse-cache memory, allocated from the
	// tenant's byte pool (0 = an equal share of the pool; negative is
	// refused).
	CacheBudgetBytes      int64   `json:"cache_budget_bytes,omitempty"`
	SubsetSeed            uint64  `json:"subset_seed,omitempty"`
	Alpha                 float64 `json:"alpha,omitempty"`
	MaxIterations         int     `json:"max_iterations,omitempty"`
	QuestionsPerIteration int     `json:"questions_per_iteration,omitempty"`
	ConvergenceWindow     int     `json:"convergence_window,omitempty"`
}

// CreateSessionResponse reports the granted resources.
type CreateSessionResponse struct {
	ID               string `json:"id"`
	Tenant           string `json:"tenant"`
	Workers          int    `json:"workers"`
	CacheBudgetBytes int64  `json:"cache_budget_bytes"`
}

// QuestionJSON is a next-effort question on the wire. Attr is the
// attribute key "pred.var"; Kind is "boolean" or "parametric"; Prompt is
// the human phrasing ("is extractHouses.p bold-font?").
type QuestionJSON struct {
	Attr    string `json:"attr"`
	Feature string `json:"feature"`
	Kind    string `json:"kind"`
	Prompt  string `json:"prompt"`
}

// AnswerJSON is a developer's reply: known=false is "I do not know".
type AnswerJSON struct {
	Value string `json:"value"`
	Known bool   `json:"known"`
}

// StepRequest answers the previous step's questions (positionally; fewer
// answers than questions treats the rest as "I do not know") and runs one
// more iteration under a per-step deadline.
type StepRequest struct {
	Answers []AnswerJSON `json:"answers,omitempty"`
	// DeadlineMS bounds this step in milliseconds (0 = the server's
	// default; clamped to the server's maximum).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CorpusRequest is the watch/ingest path (POST
// /v1/sessions/{id}/corpus): it commits one mutation to the addressed
// session's mounted store — Put adds a page or supersedes the live page
// with the same id; Remove drops a live page — then folds the delta
// into every session backed by that store and incrementally
// re-evaluates the addressed session over the full mutated corpus.
type CorpusRequest struct {
	Put    []Doc    `json:"put,omitempty"`
	Remove []string `json:"remove,omitempty"`
	// DeadlineMS bounds the re-evaluation (0 = the server's default;
	// clamped to the server's maximum).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CorpusResponse reports the committed delta and the incremental
// re-evaluation: the reused/recomputed split is the live-update win
// over a from-scratch run. The updated result table is streamed by GET
// result as usual.
type CorpusResponse struct {
	Added      []string `json:"added,omitempty"`
	Updated    []string `json:"updated,omitempty"`
	Removed    []string `json:"removed,omitempty"`
	Generation int      `json:"generation"`
	// SessionsRefreshed counts the sessions (including the addressed
	// one) whose engine state the delta was folded into.
	SessionsRefreshed int     `json:"sessions_refreshed"`
	Tuples            int     `json:"tuples"`
	TuplesReused      int64   `json:"tuples_reused"`
	TuplesRecomputed  int64   `json:"tuples_recomputed"`
	CorpusPriorHits   int64   `json:"corpus_prior_hits"`
	WallS             float64 `json:"wall_s"`
}

// IterationJSON mirrors assistant.Iteration's deterministic fields.
type IterationJSON struct {
	N           int     `json:"n"`
	Tuples      int     `json:"tuples"`
	Assignments int     `json:"assignments"`
	Mode        string  `json:"mode"`
	Evals       int64   `json:"evals"`
	CacheHits   int64   `json:"cache_hits"`
	WallS       float64 `json:"wall_s"`
}

// StepResponse reports one step: the executed iteration, the next
// questions, and the loop state.
type StepResponse struct {
	Iteration IterationJSON     `json:"iteration"`
	Questions []QuestionJSON    `json:"questions,omitempty"`
	Converged bool              `json:"converged"`
	Done      bool              `json:"done"`
	Degraded  *compact.Degraded `json:"degraded,omitempty"`
}

// SessionInfo is the GET view of a session.
type SessionInfo struct {
	ID               string    `json:"id"`
	Tenant           string    `json:"tenant"`
	State            string    `json:"state"` // "active", "done", "finalized"
	Iterations       int       `json:"iterations"`
	QuestionsAsked   int       `json:"questions_asked"`
	Workers          int       `json:"workers"`
	CacheBudgetBytes int64     `json:"cache_budget_bytes"`
	Created          time.Time `json:"created"`
	LastUsed         time.Time `json:"last_used"`
}

// Stream line types for GET /v1/sessions/{id}/result (NDJSON: one JSON
// object per line). The header carries the column list; each row line
// carries one compact tuple rendered exactly as compact.Table.String()
// renders it, so a client can reassemble the byte-identical table text.
type StreamLine struct {
	Type string `json:"type"` // "header", "row", "degraded", "stats", "explain", "end"

	// header
	Cols           []string `json:"cols,omitempty"`
	CompactTuples  int      `json:"compact_tuples,omitempty"`
	ExpandedTuples int      `json:"expanded_tuples,omitempty"`
	Converged      *bool    `json:"converged,omitempty"`
	QuestionsAsked int      `json:"questions_asked,omitempty"`
	Iterations     int      `json:"iterations,omitempty"`

	// row
	Row string `json:"row,omitempty"`

	// degraded
	Degraded *compact.Degraded `json:"degraded,omitempty"`
	Summary  string            `json:"summary,omitempty"`

	// stats
	Stats *engine.StatsSnapshot `json:"stats,omitempty"`

	// explain
	Text string `json:"text,omitempty"`
}

// TenantStats aggregates a tenant's resource usage for GET /v1/stats.
type TenantStats struct {
	Sessions        int     `json:"sessions"`
	CacheBytes      int64   `json:"cache_bytes_allocated"`
	DocRecordBytes  int64   `json:"doc_record_bytes"`
	Steps           int64   `json:"steps"`
	StepSeconds     float64 `json:"step_seconds"`
	NodesEvaluated  int64   `json:"nodes_evaluated"`
	PoolMaxExtra    int64   `json:"pool_max_extra"`
	SessionsCreated int64   `json:"sessions_created"`
	SessionsEvicted int64   `json:"sessions_evicted"`
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	Sessions int                    `json:"sessions"`
	InFlight int64                  `json:"in_flight"`
	Tenants  map[string]TenantStats `json:"tenants"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// questionJSON converts a library question to its wire form.
func questionJSON(q assistant.Question) QuestionJSON {
	kind := "boolean"
	if q.Kind == feature.KindParametric {
		kind = "parametric"
	}
	return QuestionJSON{Attr: q.Attr.String(), Feature: q.Feature, Kind: kind, Prompt: q.String()}
}

// ParseQuestion reconstructs a library question from its wire form (the
// client side of questionJSON): the attribute key splits at the last dot.
func ParseQuestion(q QuestionJSON) (assistant.Question, error) {
	i := strings.LastIndex(q.Attr, ".")
	if i <= 0 || i == len(q.Attr)-1 {
		return assistant.Question{}, fmt.Errorf("server: malformed attribute key %q", q.Attr)
	}
	kind := feature.KindBoolean
	if q.Kind == "parametric" {
		kind = feature.KindParametric
	}
	return assistant.Question{
		Attr:    alog.AttrRef{Pred: q.Attr[:i], Var: q.Attr[i+1:]},
		Feature: q.Feature,
		Kind:    kind,
	}, nil
}

// iterationJSON converts an iteration log line to its wire form.
func iterationJSON(it assistant.Iteration) IterationJSON {
	return IterationJSON{
		N: it.N, Tuples: it.Tuples, Assignments: it.Assignments, Mode: it.Mode,
		Evals: it.Evals, CacheHits: it.CacheHits, WallS: it.WallS,
	}
}
