package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/markup"
	"iflex/internal/store"
	"iflex/internal/text"
)

// newTestServer boots a server on an httptest listener and returns a
// client plus a shutdown func.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	c := NewClient(hs.URL)
	return srv, c, func() {
		hs.Close()
		srv.Close()
	}
}

// driveSession steps a server session to completion, answering questions
// with the oracle, and returns the streamed result.
func driveSession(t *testing.T, c *Client, id string, o *assistant.MapOracle, explain bool) *StreamedResult {
	t.Helper()
	var answers []AnswerJSON
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("server session did not terminate")
		}
		sr, err := c.Step(id, StepRequest{Answers: answers})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if sr.Done {
			break
		}
		answers = answers[:0]
		for _, qj := range sr.Questions {
			q, err := ParseQuestion(qj)
			if err != nil {
				t.Fatal(err)
			}
			ans := o.Answer(q)
			answers = append(answers, AnswerJSON{Value: ans.Value, Known: ans.Known})
		}
	}
	res, err := c.Result(id, explain, 0)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return res
}

// libraryReference runs the same scenario through the library path.
func libraryReference(t *testing.T, taskID string, records int, seed int64, cfg assistant.Config) *assistant.Result {
	t.Helper()
	task, err := corpus.TaskByID(taskID)
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(records, seed)
	s := assistant.NewSession(task.Env(c), alog.MustParse(task.Program), task.Oracle(), cfg)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServerMatchesLibrary is the acceptance-criteria identity test: a
// session driven over HTTP with the same seed and answers produces a
// result table byte-identical to the library path, for both strategies.
func TestServerMatchesLibrary(t *testing.T) {
	const records, seed = 12, int64(1)
	for _, tc := range []struct {
		task, strategy string
	}{
		{"T1", "seq"},
		{"T9", "seq"},
		{"T9", "sim"},
	} {
		tc := tc
		t.Run(tc.task+"/"+tc.strategy, func(t *testing.T) {
			_, c, shutdown := newTestServer(t, Config{})
			defer shutdown()

			task, err := corpus.TaskByID(tc.task)
			if err != nil {
				t.Fatal(err)
			}
			created, err := c.CreateSession(CreateSessionRequest{
				Tenant: "acme", Task: tc.task, Records: records, Seed: seed, Strategy: tc.strategy,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := driveSession(t, c, created.ID, task.Oracle(), false)

			strat, err := assistant.ByName(tc.strategy)
			if err != nil {
				t.Fatal(err)
			}
			want := libraryReference(t, tc.task, records, seed, assistant.Config{Strategy: strat})

			if got.TableString() != want.Final.String() {
				t.Errorf("server table differs from library path\nserver:\n%s\nlibrary:\n%s",
					got.TableString(), want.Final.String())
			}
			if got.ExpandedTuples != want.FinalTuples || got.Converged != want.Converged ||
				got.QuestionsAsked != want.QuestionsAsked {
				t.Errorf("server (tuples=%d converged=%v asked=%d) vs library (tuples=%d converged=%v asked=%d)",
					got.ExpandedTuples, got.Converged, got.QuestionsAsked,
					want.FinalTuples, want.Converged, want.QuestionsAsked)
			}
			if got.Stats == nil || got.Stats.NodesEvaluated == 0 {
				t.Error("stream carried no stats snapshot")
			}
		})
	}
}

// TestInlineDocsSession creates a session from inline HTML documents and
// checks it against the same program run directly through the library.
func TestInlineDocsSession(t *testing.T) {
	_, c, shutdown := newTestServer(t, Config{})
	defer shutdown()

	prog := `
T(x, <p>, <s>) :- pages(x), ext(x, p, s), p > 500000.
ext(x, p, s) :- from(x, p), from(x, s), numeric(p) = yes.
`
	page := func(price, school string) string {
		return `House for sale.<br>Price: <i>` + price + `</i><br>School: <b>` + school + `</b>`
	}
	created, err := c.CreateSession(CreateSessionRequest{
		Tenant:  "acme",
		Program: prog,
		Docs: map[string][]Doc{"pages": {
			{ID: "h1", HTML: page("351000", "Vanhise High")},
			{ID: "h2", HTML: page("619000", "Basktall HS")},
			{ID: "h3", HTML: page("725000", "Lincoln High")},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// No oracle: answer everything "I do not know" (empty answer lists).
	var res *StreamedResult
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("inline session did not terminate")
		}
		sr, err := c.Step(created.ID, StepRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Done {
			break
		}
	}
	if res, err = c.Result(created.ID, false, 0); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("inline session produced no rows")
	}
	if res.ExpandedTuples == 0 {
		t.Error("inline session produced no expanded tuples")
	}

	// A simulation session scores a parametric question over the candidate
	// values its create request carries: its first questions, every
	// simulated one in score order, are those of a library session whose
	// oracle offers the same candidates, and among them is the parametric
	// question only those candidates make simulatable.
	simProg := `
T(x, <p>) :- pages(x), ext(x, p).
ext(x, p) :- from(x, p).
`
	cands := map[string]map[string][]string{"ext.p": {"preceded-by": {"Price:", "School:"}}}
	pages := map[string][]Doc{"pages": {
		{ID: "h1", HTML: page("351000", "Vanhise High")},
		{ID: "h2", HTML: page("619000", "Basktall HS")},
	}}
	simSess, err := c.CreateSession(CreateSessionRequest{
		Tenant: "acme", Program: simProg, Docs: pages, Strategy: "sim", Candidates: cands, QuestionsPerIteration: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := c.Step(simSess.ID, StepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	env := engine.NewEnv()
	var docs []*text.Document
	for _, d := range pages["pages"] {
		doc, err := markup.Parse(d.ID, d.HTML)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	env.AddDocTable("pages", "x", docs)
	lib := assistant.NewSession(env, alog.MustParse(simProg), candidateOracle{candidates: cands},
		assistant.Config{Strategy: assistant.Simulation{}, QuestionsPerIteration: 20})
	want, err := lib.Step(nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantQs []QuestionJSON
	for _, q := range want.Questions {
		wantQs = append(wantQs, questionJSON(q))
	}
	if !reflect.DeepEqual(sr.Questions, wantQs) {
		t.Fatalf("served sim session's first questions %v, library session's %v", sr.Questions, wantQs)
	}
	parametric := false
	for _, q := range sr.Questions {
		parametric = parametric || q.Kind == "parametric"
	}
	if !parametric {
		t.Fatalf("no parametric question among %v: the candidates were not simulated", sr.Questions)
	}
}

// TestQuotas exercises the capacity refusals: per-tenant session cap,
// global cap, and the tenant cache-byte pool.
func TestQuotas(t *testing.T) {
	_, c, shutdown := newTestServer(t, Config{
		MaxSessions:          3,
		MaxSessionsPerTenant: 2,
		TenantCacheBudget:    1000,
	})
	defer shutdown()

	mk := func(tenant string, cache int64) (CreateSessionResponse, error) {
		return c.CreateSession(CreateSessionRequest{
			Tenant: tenant, Task: "T1", Records: 4, CacheBudgetBytes: cache,
		})
	}
	a1, err := mk("a", 600)
	if err != nil {
		t.Fatal(err)
	}
	if a1.CacheBudgetBytes != 600 {
		t.Errorf("granted cache = %d, want 600", a1.CacheBudgetBytes)
	}
	// A negative request would drive the pool's accounting below zero and
	// let later sessions take more than the pool; an overflowing one would
	// wrap the sum past the check. Neither is admitted, and neither is a
	// records count outside [0, MaxTaskRecords].
	if _, err := mk("a", -1000000); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("negative cache budget: err = %v, want 400", err)
	}
	if _, err := mk("a", math.MaxInt64); StatusCode(err) != http.StatusTooManyRequests {
		t.Errorf("overflowing cache budget: err = %v, want 429", err)
	}
	for _, records := range []int{-1, MaxTaskRecords + 1} {
		_, err := c.CreateSession(CreateSessionRequest{Tenant: "b", Task: "T1", Records: records})
		if StatusCode(err) != http.StatusBadRequest {
			t.Errorf("records %d: err = %v, want 400", records, err)
		}
	}
	// Second session would need 600 more from a pool of 1000: refused.
	if _, err := mk("a", 600); StatusCode(err) != http.StatusTooManyRequests {
		t.Errorf("cache-pool exhaustion: err = %v, want 429", err)
	}
	// A smaller request still fits.
	if _, err := mk("a", 300); err != nil {
		t.Fatal(err)
	}
	// Tenant "a" is now at its 2-session cap.
	if _, err := mk("a", 10); StatusCode(err) != http.StatusTooManyRequests {
		t.Errorf("tenant cap: err = %v, want 429", err)
	}
	// Third session overall is fine for tenant b...
	b1, err := mk("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Default allocation is an equal pool share.
	if want := int64(1000 / 2); b1.CacheBudgetBytes != want {
		t.Errorf("default cache share = %d, want %d", b1.CacheBudgetBytes, want)
	}
	// ...but the global cap now refuses tenant c.
	if _, err := mk("c", 0); StatusCode(err) != http.StatusTooManyRequests {
		t.Errorf("global cap: err = %v, want 429", err)
	}
	// Deleting frees capacity.
	if err := c.Delete(b1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mk("c", 0); err != nil {
		t.Errorf("create after delete: %v", err)
	}
}

// TestTTLEviction checks the idle sweep: an untouched session disappears
// after the TTL and is accounted as evicted.
func TestTTLEviction(t *testing.T) {
	_, c, shutdown := newTestServer(t, Config{
		SessionTTL:    30 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	defer shutdown()

	created, err := c.CreateSession(CreateSessionRequest{Tenant: "a", Task: "T1", Records: 4})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Info(created.ID); StatusCode(err) == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not evicted after TTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ts := stats.Tenants["a"]
	if ts.SessionsEvicted != 1 || ts.Sessions != 0 || ts.CacheBytes != 0 {
		t.Errorf("tenant stats after eviction = %+v", ts)
	}
}

// TestStatsDocRecordBytes: a tenant's doc_record_bytes is what its sessions'
// document record tables hold as of their last steps, and a deleted
// session takes its share with it.
func TestStatsDocRecordBytes(t *testing.T) {
	_, c, shutdown := newTestServer(t, Config{})
	defer shutdown()
	held := func() int64 {
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return stats.Tenants["a"].DocRecordBytes
	}
	task, err := corpus.TaskByID("T8")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		created, err := c.CreateSession(CreateSessionRequest{Tenant: "a", Task: "T8", Records: 6})
		if err != nil {
			t.Fatal(err)
		}
		before := held()
		driveSession(t, c, created.ID, task.Oracle(), false)
		if held() <= before {
			t.Fatalf("session %d converged: doc_record_bytes %d -> %d", i, before, held())
		}
		ids = append(ids, created.ID)
	}
	both := held()
	if err := c.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if one := held(); one <= 0 || one >= both {
		t.Errorf("doc_record_bytes %d with two sessions, %d after deleting one", both, one)
	}
	if err := c.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	if left := held(); left != 0 {
		t.Errorf("doc_record_bytes %d with no session left", left)
	}
}

// waitGoroutines waits for the goroutine count to settle back to at most
// base+slack, failing the test otherwise.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d+2\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainMidStep drains the server while a step is in flight: the step
// must finish, new work must get 503, health must report draining, and
// after shutdown no goroutines may linger.
func TestDrainMidStep(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, c, shutdown := newTestServer(t, Config{})

	created, err := c.CreateSession(CreateSessionRequest{Tenant: "a", Task: "T9", Records: 12})
	if err != nil {
		t.Fatal(err)
	}
	sess := srv.reg.get(created.ID)

	// Pin the step mid-handler: the test holds the session lock, so the
	// step request passes the drain gate and blocks on the session — the
	// deterministic stand-in for "a step is executing right now".
	sess.mu.Lock()
	stepDone := make(chan error, 1)
	go func() {
		_, err := c.Step(created.ID, StepRequest{})
		stepDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			sess.mu.Unlock()
			t.Fatal("step never entered the handler")
		}
		time.Sleep(time.Millisecond)
	}

	srv.Drain()
	if st, err := c.Healthz(); err != nil || st != "draining" {
		t.Errorf("healthz = %q, %v; want draining", st, err)
	}
	if _, err := c.CreateSession(CreateSessionRequest{Tenant: "b", Task: "T1", Records: 4}); StatusCode(err) != http.StatusServiceUnavailable {
		t.Errorf("create while draining: err = %v, want 503", err)
	}
	if _, err := c.Step(created.ID, StepRequest{}); StatusCode(err) != http.StatusServiceUnavailable {
		t.Errorf("new step while draining: err = %v, want 503", err)
	}
	// Release the session: the in-flight step must run to completion even
	// though the server is draining.
	sess.mu.Unlock()
	if err := <-stepDone; err != nil {
		t.Errorf("in-flight step failed during drain: %v", err)
	}

	shutdown()
	c.HTTP.CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestStepValidation pins the request-shape errors.
func TestStepValidation(t *testing.T) {
	_, c, shutdown := newTestServer(t, Config{})
	defer shutdown()

	if _, err := c.Step("s999", StepRequest{}); StatusCode(err) != http.StatusNotFound {
		t.Errorf("unknown session: err = %v, want 404", err)
	}
	created, err := c.CreateSession(CreateSessionRequest{Tenant: "a", Task: "T1", Records: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Answers with no pending questions.
	if _, err := c.Step(created.ID, StepRequest{Answers: []AnswerJSON{{Known: true, Value: "yes"}}}); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("excess answers: err = %v, want 400", err)
	}
	// Bad create requests.
	if _, err := c.CreateSession(CreateSessionRequest{Task: "T1"}); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("missing tenant: err = %v, want 400", err)
	}
	if _, err := c.CreateSession(CreateSessionRequest{Tenant: "a"}); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("no corpus: err = %v, want 400", err)
	}
	if _, err := c.CreateSession(CreateSessionRequest{Tenant: "a", Task: "T99"}); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("unknown task: err = %v, want 400", err)
	}
	// A failed create must not leak the admission reservation.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ts := stats.Tenants["a"]; ts.Sessions != 1 {
		t.Errorf("tenant sessions after failed creates = %d, want 1", ts.Sessions)
	}
}

// TestResultExplain checks the EXPLAIN stream line of a session created
// with no option: every operator line shows the evaluation its cache entry
// holds, a miss with its wall and self time.
func TestResultExplain(t *testing.T) {
	_, c, shutdown := newTestServer(t, Config{})
	defer shutdown()

	task, err := corpus.TaskByID("T1")
	if err != nil {
		t.Fatal(err)
	}
	created, err := c.CreateSession(CreateSessionRequest{Tenant: "a", Task: "T1", Records: 6})
	if err != nil {
		t.Fatal(err)
	}
	res := driveSession(t, c, created.ID, task.Oracle(), true)
	lines := 0
	for _, line := range strings.Split(res.Explain, "\n") {
		if !strings.Contains(line, " sig=") {
			continue
		}
		lines++
		if !strings.Contains(line, "cache=miss") || strings.Contains(line, " - self ") {
			t.Errorf("explain line without its evaluation: %s", line)
		}
	}
	if lines == 0 {
		t.Errorf("no operator lines in the explain text:\n%s", res.Explain)
	}
	// A second result call replays the finalized result (no re-execution).
	res2, err := c.Result(created.ID, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TableString() != res.TableString() {
		t.Error("second result stream differs from first")
	}
	// Stepping a finalized session is refused.
	if _, err := c.Step(created.ID, StepRequest{}); StatusCode(err) != http.StatusConflict {
		t.Errorf("step after finalize: err = %v, want 409", err)
	}
	info, err := c.Info(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "finalized" {
		t.Errorf("state = %q, want finalized", info.State)
	}
	_ = fmt.Sprintf("%v", info)
}

// TestCreateIgnoresTraceField: a create body that still carries the
// "trace" field of older clients is accepted, like any unknown field.
func TestCreateIgnoresTraceField(t *testing.T) {
	_, c, shutdown := newTestServer(t, Config{})
	defer shutdown()
	resp, err := http.Post(c.Base+"/v1/sessions", "application/json",
		strings.NewReader(`{"tenant":"a","task":"T1","records":6,"trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("create with \"trace\": status %d: %s", resp.StatusCode, body)
	}
}

// TestInfoReadsSessionProgress: /info reports the library session's own
// counts. Stepping past Done executes nothing, so the iteration count stays
// at the last executed one, and questions left unanswered count as asked
// ("I do not know"), as the result header counts them.
func TestInfoReadsSessionProgress(t *testing.T) {
	_, c, shutdown := newTestServer(t, Config{})
	defer shutdown()
	created, err := c.CreateSession(CreateSessionRequest{Tenant: "a", Task: "T1", Records: 12, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	for step := 1; step <= 6; step++ {
		if _, err := c.Step(created.ID, StepRequest{}); err != nil {
			t.Fatal(err)
		}
		if info, err = c.Info(created.ID); err != nil {
			t.Fatal(err)
		}
		if want := min(step, 2); info.Iterations != want {
			t.Errorf("after step %d: /info iterations %d, want %d", step, info.Iterations, want)
		}
	}
	res, err := c.Result(created.ID, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.QuestionsAsked == 0 || info.QuestionsAsked != res.QuestionsAsked {
		t.Errorf("/info questions_asked %d, result header %d", info.QuestionsAsked, res.QuestionsAsked)
	}
}

// TestStoreBackedSession mounts a sharded document store on the server
// and creates a session referencing it by name: the result must be
// byte-identical to the same program run through the library over an
// eagerly parsed copy of the same pages (no store, no index).
func TestStoreBackedSession(t *testing.T) {
	prog := `
T(x, <p>, <s>) :- docs(x), ext(x, p, s), p > 500000.
ext(x, p, s) :- from(x, p), from(x, s), numeric(p) = yes.
`
	page := func(price, school string) string {
		return `House for sale.<br>Price: <i>` + price + `</i><br>School: <b>` + school + `</b>`
	}
	pages := []struct{ id, html string }{
		{"h1", page("351000", "Vanhise High")},
		{"h2", page("619000", "Basktall HS")},
		{"h3", page("725000", "Lincoln High")},
	}

	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if err := w.Add(p.id, p.html); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	_, c, shutdown := newTestServer(t, Config{Stores: map[string]*store.DiskStore{"houses": st}})
	defer shutdown()

	created, err := c.CreateSession(CreateSessionRequest{
		Tenant: "acme", Store: "houses", Program: prog,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("store-backed session did not terminate")
		}
		sr, err := c.Step(created.ID, StepRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Done {
			break
		}
	}
	res, err := c.Result(created.ID, false, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Library reference over eagerly parsed pages, no store or index.
	env := engine.NewEnv()
	var docs []*text.Document
	for _, p := range pages {
		d, err := markup.Parse(p.id, p.html)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	env.AddDocTable("docs", "x", docs)
	lib := assistant.NewSession(env, alog.MustParse(prog), candidateOracle{}, assistant.Config{})
	want, err := lib.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TableString() != want.Final.String() {
		t.Errorf("store-backed session differs from eager library run\nserver:\n%s\nlibrary:\n%s",
			res.TableString(), want.Final.String())
	}

	// An unknown store name is a 400, not a crash.
	if _, err := c.CreateSession(CreateSessionRequest{
		Tenant: "acme", Store: "nope", Program: prog,
	}); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("unknown store: err = %v, want 400", err)
	}
	// A store request without a program is a 400.
	if _, err := c.CreateSession(CreateSessionRequest{
		Tenant: "acme", Store: "houses",
	}); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("store without program: err = %v, want 400", err)
	}
	// Naming both a store and a task is a 400 (exactly one corpus).
	if _, err := c.CreateSession(CreateSessionRequest{
		Tenant: "acme", Store: "houses", Task: "T1", Program: prog,
	}); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("store+task: err = %v, want 400", err)
	}
}

// TestResultStreamLoadsEachPageOnce: the /result stream of a store-backed
// session whose rows revisit pages the resident budget cannot hold loads
// each page at most once, where rendering the rows one by one loads a page
// per row, and streams exactly the rows Tuple.String renders.
func TestResultStreamLoadsEachPageOnce(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const pages = 5
	for i := 0; i < pages; i++ {
		html := fmt.Sprintf(`House %d for sale.<br>Price: <i>%d</i><br>School: <b>Lincoln High</b>`, i, 350000+i)
		if err := w.Add(fmt.Sprintf("h%d", i), html); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.OpenOptions{ResidentBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const prog = `P(x, y) :- docs(x), docs(y).`

	env := engine.NewEnv()
	env.AddDocTable("docs", "x", st.Docs())
	want, err := assistant.NewSession(env, alog.MustParse(prog), candidateOracle{}, assistant.Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	before := st.Loads()
	var rows []string
	for _, tp := range want.Final.Tuples {
		rows = append(rows, tp.String())
	}
	if perRow := st.Loads() - before; len(rows) != pages*pages || perRow <= pages {
		t.Fatalf("%d rows rendered one by one loaded %d pages, want %d rows and more than %d loads", len(rows), perRow, pages*pages, pages)
	}

	_, c, shutdown := newTestServer(t, Config{Stores: map[string]*store.DiskStore{"houses": st}})
	defer shutdown()
	created, err := c.CreateSession(CreateSessionRequest{Tenant: "acme", Store: "houses", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	if sr, err := c.Step(created.ID, StepRequest{}); err != nil || !sr.Done {
		t.Fatalf("step: done %v, err %v", sr.Done, err)
	}
	if _, err := c.Result(created.ID, false, 0); err != nil { // finalizes
		t.Fatal(err)
	}
	before = st.Loads()
	res, err := c.Result(created.ID, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loads := st.Loads() - before; loads > pages {
		t.Errorf("streaming %d rows over %d pages loaded %d", len(res.Rows), pages, loads)
	}
	if strings.Join(res.Rows, "\n") != strings.Join(rows, "\n") {
		t.Errorf("streamed rows differ from Tuple.String row by row\nstream:\n%s\nrows:\n%s",
			strings.Join(res.Rows, "\n"), strings.Join(rows, "\n"))
	}
}

// TestCorpusEndpoint: the watch/ingest path. A store mutation posted
// through one session must update the shared store, fold the delta into
// every session backed by it, and leave both sessions streaming a result
// byte-identical to an eager library run over the mutated pages.
func TestCorpusEndpoint(t *testing.T) {
	prog := `
T(x, <p>, <s>) :- docs(x), ext(x, p, s), p > 500000.
ext(x, p, s) :- from(x, p), from(x, s), numeric(p) = yes.
`
	page := func(price, school string) string {
		return `House for sale.<br>Price: <i>` + price + `</i><br>School: <b>` + school + `</b>`
	}
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct{ id, html string }{
		{"h1", page("351000", "Vanhise High")},
		{"h2", page("619000", "Basktall HS")},
		{"h3", page("725000", "Lincoln High")},
	} {
		if err := w.Add(p.id, p.html); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	_, c, shutdown := newTestServer(t, Config{Stores: map[string]*store.DiskStore{"houses": st}})
	defer shutdown()

	mkSession := func() string {
		t.Helper()
		created, err := c.CreateSession(CreateSessionRequest{
			Tenant: "acme", Store: "houses", Program: prog,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			if i > 200 {
				t.Fatal("session did not terminate")
			}
			sr, err := c.Step(created.ID, StepRequest{})
			if err != nil {
				t.Fatal(err)
			}
			if sr.Done {
				break
			}
		}
		if _, err := c.Result(created.ID, false, 0); err != nil {
			t.Fatal(err)
		}
		return created.ID
	}
	s1, s2 := mkSession(), mkSession()

	resp, err := c.Corpus(s1, CorpusRequest{
		Put: []Doc{
			{ID: "h1", HTML: page("800000", "Vanhise High")},
			{ID: "h4", HTML: page("910000", "Muir Acres")},
		},
		Remove: []string{"h3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Added) != 1 || resp.Added[0] != "h4" ||
		len(resp.Updated) != 1 || resp.Updated[0] != "h1" ||
		len(resp.Removed) != 1 || resp.Removed[0] != "h3" {
		t.Fatalf("delta = +%v ~%v -%v", resp.Added, resp.Updated, resp.Removed)
	}
	if resp.Generation != 1 {
		t.Errorf("generation = %d, want 1", resp.Generation)
	}
	if resp.SessionsRefreshed != 2 {
		t.Errorf("sessions refreshed = %d, want 2", resp.SessionsRefreshed)
	}
	if resp.Tuples == 0 {
		t.Error("re-evaluation produced no tuples")
	}

	// Eager library reference over the mutated pages, in store view order
	// (first-seen position; the removed h3 is gone, h4 appended).
	env := engine.NewEnv()
	var docs []*text.Document
	for _, p := range []struct{ id, html string }{
		{"h1", page("800000", "Vanhise High")},
		{"h2", page("619000", "Basktall HS")},
		{"h4", page("910000", "Muir Acres")},
	} {
		d, err := markup.Parse(p.id, p.html)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	env.AddDocTable("docs", "x", docs)
	lib := assistant.NewSession(env, alog.MustParse(prog), candidateOracle{}, assistant.Config{})
	want, err := lib.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{s1, s2} {
		res, err := c.Result(id, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.TableString() != want.Final.String() {
			t.Errorf("session %s after delta differs from eager run\nserver:\n%s\nlibrary:\n%s",
				id, res.TableString(), want.Final.String())
		}
	}

	// Error paths: a task-backed session has no store (400); an empty
	// mutation is refused (400); removing an unknown id fails staging
	// before anything reaches disk (400); unknown sessions are 404.
	taskSess, err := c.CreateSession(CreateSessionRequest{Tenant: "acme", Task: "T1", Records: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Corpus(taskSess.ID, CorpusRequest{Remove: []string{"x"}}); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("corpus on task session: err = %v, want 400", err)
	}
	if _, err := c.Corpus(s1, CorpusRequest{}); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("empty mutation: err = %v, want 400", err)
	}
	if _, err := c.Corpus(s1, CorpusRequest{Remove: []string{"nope"}}); StatusCode(err) != http.StatusBadRequest {
		t.Errorf("unknown remove: err = %v, want 400", err)
	}
	if _, err := c.Corpus("zzz", CorpusRequest{Remove: []string{"h2"}}); StatusCode(err) != http.StatusNotFound {
		t.Errorf("unknown session: err = %v, want 404", err)
	}
	if g := st.Generation(); g != 1 {
		t.Errorf("failed mutations advanced the generation to %d", g)
	}
}

// TestRestartAfterCommitServesMutatedStore closes the service-side
// crash window: the daemon reaches the commit point of a corpus
// mutation and dies before folding the delta into any session. The
// commit is durable, so a restarted daemon must mount the store at the
// new generation — cleanly, with nothing to repair — and sessions
// created against it must serve results byte-identical to an eager
// library run over the mutated corpus.
func TestRestartAfterCommitServesMutatedStore(t *testing.T) {
	prog := `
T(x, <p>, <s>) :- docs(x), ext(x, p, s), p > 500000.
ext(x, p, s) :- from(x, p), from(x, s), numeric(p) = yes.
`
	page := func(price, school string) string {
		return `House for sale.<br>Price: <i>` + price + `</i><br>School: <b>` + school + `</b>`
	}
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct{ id, html string }{
		{"h1", page("351000", "Vanhise High")},
		{"h2", page("619000", "Basktall HS")},
		{"h3", page("725000", "Lincoln High")},
	} {
		if err := w.Add(p.id, p.html); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// First daemon lifetime: a session is live over the store when the
	// mutation commits; the process "dies" before the delta is folded.
	st, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, c, shutdown := newTestServer(t, Config{Stores: map[string]*store.DiskStore{"houses": st}})
	created, err := c.CreateSession(CreateSessionRequest{Tenant: "acme", Store: "houses", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("session did not terminate")
		}
		sr, err := c.Step(created.ID, StepRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Done {
			break
		}
	}
	m, err := st.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put("h1", page("800000", "Vanhise High")); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("h4", page("910000", "Muir Acres")); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("h3"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash: no ApplyCorpusDelta, no re-evaluation, sessions dropped.
	shutdown()
	st.Close()

	// Restarted daemon: mount must come up at generation 1 with nothing
	// to repair, and a fresh registry serves the mutated corpus.
	st2, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		t.Fatalf("remount after crash-after-commit: %v", err)
	}
	defer st2.Close()
	if g := st2.Generation(); g != 1 {
		t.Fatalf("remounted at generation %d, want 1", g)
	}
	if notes := st2.Recovery(); len(notes) != 0 {
		t.Fatalf("clean commit needed repair on remount: %v", notes)
	}
	_, c2, shutdown2 := newTestServer(t, Config{Stores: map[string]*store.DiskStore{"houses": st2}})
	defer shutdown2()
	created2, err := c2.CreateSession(CreateSessionRequest{Tenant: "acme", Store: "houses", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("post-restart session did not terminate")
		}
		sr, err := c2.Step(created2.ID, StepRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Done {
			break
		}
	}
	res, err := c2.Result(created2.ID, false, 0)
	if err != nil {
		t.Fatal(err)
	}

	env := engine.NewEnv()
	var docs []*text.Document
	for _, p := range []struct{ id, html string }{
		{"h1", page("800000", "Vanhise High")},
		{"h2", page("619000", "Basktall HS")},
		{"h4", page("910000", "Muir Acres")},
	} {
		d, err := markup.Parse(p.id, p.html)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	env.AddDocTable("docs", "x", docs)
	lib := assistant.NewSession(env, alog.MustParse(prog), candidateOracle{}, assistant.Config{})
	want, err := lib.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TableString() != want.Final.String() {
		t.Errorf("post-restart session differs from eager run over mutated corpus\nserver:\n%s\nlibrary:\n%s",
			res.TableString(), want.Final.String())
	}
}

// TestRequestBodyLimit: an oversized JSON body is refused with 413
// before the decoder buffers it; a normal-sized request on the same
// server still works.
func TestRequestBodyLimit(t *testing.T) {
	_, c, shutdown := newTestServer(t, Config{MaxRequestBytes: 1 << 10})
	defer shutdown()
	_, err := c.CreateSession(CreateSessionRequest{
		Tenant: "acme", Task: "T1", Records: 3,
		Program: strings.Repeat("% padding\n", 1<<10),
	})
	if StatusCode(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: err = %v, want 413", err)
	}
	created, err := c.CreateSession(CreateSessionRequest{Tenant: "acme", Task: "T1", Records: 3})
	if err != nil {
		t.Fatalf("normal create after 413: %v", err)
	}
	big := StepRequest{Answers: make([]AnswerJSON, 0, 1)}
	for i := 0; i < 200; i++ {
		big.Answers = append(big.Answers, AnswerJSON{Value: strings.Repeat("v", 64), Known: true})
	}
	if _, err := c.Step(created.ID, big); StatusCode(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized step: err = %v, want 413", err)
	}
}

// TestRowLineMatchesEncoder: a row line is byte for byte what json.Encoder
// writes for the StreamLine it stands for, HTML escaping, control
// characters, line separators, invalid UTF-8 and the omitted empty row
// included.
func TestRowLineMatchesEncoder(t *testing.T) {
	rows := []string{
		`(x: <b>Tom & Jerry</b>)`, `"quoted" 'single' \back\slash`, "two\nlines\r\tand\x01\x1f\x7f",
		"Zürich — 東京 ✓", "sep\u2028par\u2029end", "bad \xff\xfe utf8", "", "plain",
	}
	var got, want bytes.Buffer
	write := writeRowLine(&got)
	enc := json.NewEncoder(&want)
	for _, r := range rows {
		write(r)
		if err := enc.Encode(StreamLine{Type: "row", Row: r}); err != nil {
			t.Fatal(err)
		}
	}
	if got.String() != want.String() {
		t.Errorf("row lines\n%s\nwant\n%s", got.String(), want.String())
	}
}
