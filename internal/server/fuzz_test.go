package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iflex/internal/store"
)

// fuzzPool is the tenant cache pool FuzzHandlerBodies serves under.
const fuzzPool = 1000

// FuzzHandlerBodies posts arbitrary create, step and corpus bodies through
// Handler() to a fresh server with one mounted store: a create, and when it
// succeeds a step and a corpus mutation on the new session, each cut at a
// short step deadline. No request may panic or answer 5xx, and after every
// request each tenant's allocated cache bytes stay within [0, pool].
func FuzzHandlerBodies(f *testing.F) {
	const prog = "T(x, <p>) :- docs(x), ext(x, p), p > 500000.\next(x, p) :- from(x, p), numeric(p) = yes."
	storeCreate, _ := json.Marshal(CreateSessionRequest{Tenant: "a", Store: "docs", Program: prog, CacheBudgetBytes: 600})
	f.Add(`{"tenant":"a","task":"T1","records":3}`, `{}`, `{"put":[{"id":"p9","html":"x"}]}`)
	f.Add(`{"tenant":"a","task":"T9","records":2,"strategy":"sim","cache_budget_bytes":-1000000}`, `{"answers":[{"value":"yes","known":true}]}`, `{}`)
	f.Add(string(storeCreate), `{"deadline_ms":1}`, `{"put":[{"id":"p3","html":"Price: <i>725000</i>"}],"remove":["p1"]}`)
	f.Add(string(storeCreate), `{"answers":[{"known":false}]}`, `{"remove":["nope"]}`)
	f.Add(`{"tenant":"a","docs":{"docs":[{"id":"d","html":"<b>1</b>"}]},"program":"T(x) :- docs(x).","max_iterations":-1}`, `{"deadline_ms":-5}`, `{"put":[]}`)
	f.Fuzz(func(t *testing.T, create, step, corpus string) {
		dir := t.TempDir()
		w, err := store.Create(dir, store.Options{FS: store.RealFS(false)})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"p1", "p2"} {
			if err := w.Add(id, `House. Price: <i>`+id+`619000</i>`); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir, store.OpenOptions{FS: store.RealFS(false)})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		srv := New(Config{
			TenantCacheBudget: fuzzPool, MaxSessionsPerTenant: 2, MaxStepDeadline: 100 * time.Millisecond,
			Stores: map[string]*store.DiskStore{"docs": st},
		})
		defer srv.Close()
		h := srv.Handler()

		post := func(path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: %d %s", path, body, rec.Code, rec.Body)
			}
			srv.reg.mu.Lock()
			defer srv.reg.mu.Unlock()
			for name, ts := range srv.reg.tenants {
				if ts.cacheBytes < 0 || ts.cacheBytes > fuzzPool {
					t.Fatalf("POST %s %q: tenant %q holds %d cache bytes of a %d-byte pool", path, body, name, ts.cacheBytes, fuzzPool)
				}
			}
			return rec
		}
		rec := post("/v1/sessions", create)
		if rec.Code != http.StatusCreated {
			return
		}
		var created CreateSessionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
			t.Fatal(err)
		}
		post("/v1/sessions/"+created.ID+"/step", step)
		post("/v1/sessions/"+created.ID+"/corpus", corpus)
	})
}
