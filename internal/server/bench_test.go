package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"iflex/internal/corpus"
)

// BenchmarkResultEncode times the /result NDJSON stream of a finished T9
// session at 100 records per table: header, one line per compact tuple,
// the stats snapshot and the end line, served through the handler into a
// recorder with no network in between. The session is finalized once,
// before the timer starts, so every iteration replays the held result.
func BenchmarkResultEncode(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)
	task, err := corpus.TaskByID("T9")
	if err != nil {
		b.Fatal(err)
	}
	created, err := c.CreateSession(CreateSessionRequest{Tenant: "a", Task: "T9", Records: 100})
	if err != nil {
		b.Fatal(err)
	}
	oracle := task.Oracle()
	var answers []AnswerJSON
	for {
		sr, err := c.Step(created.ID, StepRequest{Answers: answers})
		if err != nil {
			b.Fatal(err)
		}
		if sr.Done {
			break
		}
		answers = answers[:0]
		for _, qj := range sr.Questions {
			q, err := ParseQuestion(qj)
			if err != nil {
				b.Fatal(err)
			}
			ans := oracle.Answer(q)
			answers = append(answers, AnswerJSON{Value: ans.Value, Known: ans.Known})
		}
	}
	res, err := c.Result(created.ID, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+created.ID+"/result", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(len(res.Rows)), "rows")
}
