package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/server"
)

// serveWorkload is the service path: an in-process iflexd behind a
// loopback listener, and one client per processor looping whole sessions
// over HTTP — create with inline pages, step until done, stream the
// result, delete. Each session's engine work is small, so the server's
// own layers (JSON, page parsing on create, registry, streaming) are a
// visible share of every reply. Sessions use the sequential strategy:
// with question simulation every step costs milliseconds of engine work
// whatever the corpus size, and the server's share all but disappears.
type serveWorkload struct {
	opt  options
	task *corpus.Task

	pool []*corpus.Corpus
	reqs []server.CreateSessionRequest

	// Library-path reference of every corpus: the table each served
	// session must reproduce, and the step times the HTTP overhead is
	// measured against.
	want    []string
	ref     *rec
	refProg *alog.Program
	refRes  *assistant.Result

	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string

	stepBytes, stepReplies atomic.Int64 // body bytes and count of step replies
}

func newServe(opt options) (*serveWorkload, error) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		return nil, err
	}
	return &serveWorkload{opt: opt, task: task}, nil
}

// setUp generates the corpora and the create requests that ship them.
func (w *serveWorkload) setUp() error {
	w.pool = booksPool(w.task, w.opt.sz.serveRecords, w.opt.sz.servePool, w.opt.seed)
	w.reqs = make([]server.CreateSessionRequest, len(w.pool))
	for i, c := range w.pool {
		docs := map[string][]server.Doc{}
		for name, t := range c.Tables {
			for j, raw := range t.Raw {
				docs[name] = append(docs[name], server.Doc{ID: t.Docs[j].ID(), HTML: raw})
			}
		}
		w.reqs[i] = server.CreateSessionRequest{
			Docs: docs, Program: w.task.Program,
			Strategy: "seq", Workers: 1, SubsetSeed: uint64(w.opt.seed),
			ConvergenceWindow: askEverything, MaxIterations: w.opt.sz.maxSteps,
		}
	}
	return nil
}

// prepare converges every corpus through the library and starts the
// server.
func (w *serveWorkload) prepare() error {
	w.ref = newRec(&tally{})
	w.want = make([]string, len(w.pool))
	prog := alog.MustParse(w.task.Program)
	for i, c := range w.pool {
		oracle := w.task.Oracle()
		s, res, table, err := converge(w.ref, func() *assistant.Session {
			return assistant.NewSession(w.task.Env(c), prog, oracle, w.opt.sessionConfig(assistant.Sequential{}, 1))
		}, oracle)
		if err != nil {
			return fmt.Errorf("library reference %d: %w", i, err)
		}
		if missing := corpus.UncoveredTruth(res.Final, w.task.Truth(c)); len(missing) > 0 {
			return fmt.Errorf("library reference %d lost %d true answers", i, len(missing))
		}
		w.want[i], w.refProg, w.refRes = table, s.Program(), res
	}

	w.srv = server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln)
	}()
	w.base = "http://" + ln.Addr().String()
	return nil
}

// countingTransport is one client's connection pool; it counts the body
// bytes of step replies.
type countingTransport struct {
	base           *http.Transport
	bytes, replies *atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/step") {
		t.replies.Add(1)
		resp.Body = countingBody{resp.Body, t.bytes}
	}
	return resp, err
}

// session runs one whole session over HTTP on corpus k and checks the
// streamed table against the library path's.
func (w *serveWorkload) session(cl *server.Client, r *rec, k int, tenant string) error {
	req := w.reqs[k]
	req.Tenant = tenant
	oracle := w.task.Oracle()
	var created server.CreateSessionResponse
	dCreate, err := r.do("server.create", 1, func() (err error) { created, err = cl.CreateSession(req); return err })
	if err != nil {
		return err
	}
	var answers []server.AnswerJSON
	for n := 0; ; n++ {
		var sr server.StepResponse
		d, err := r.do("server.step", 1, func() (err error) {
			sr, err = cl.Step(created.ID, server.StepRequest{Answers: answers})
			return err
		})
		if err != nil {
			return err
		}
		if n == 0 {
			r.add("e2e.first_step", (dCreate + d).Seconds())
		} else {
			r.add("e2e.step", d.Seconds())
		}
		if sr.Done {
			r.add("assistant.steps", float64(n+1))
			break
		}
		answers = answers[:0]
		for _, qj := range sr.Questions {
			q, err := server.ParseQuestion(qj)
			if err != nil {
				return err
			}
			a := oracle.Answer(q)
			answers = append(answers, server.AnswerJSON{Value: a.Value, Known: a.Known})
		}
	}
	var res *server.StreamedResult
	if _, err := r.do("server.result", 0, func() (err error) { res, err = cl.Result(created.ID, false, 0); return err }); err != nil {
		return err
	}
	r.batch["server.result"] += len(res.Rows)
	r.add("assistant.questions", float64(res.QuestionsAsked))
	if res.Stats != nil {
		addEngineStats(r, k, *res.Stats)
	}
	r.ops.check(res.TableString() == w.want[k], "session %s: served table differs from the library path's", created.ID)
	_, err = r.do("server.delete", 1, func() error { return cl.Delete(created.ID) })
	return err
}

// serveClient is one closed-loop client: its own connections, tenant and
// recorders.
type serveClient struct {
	idx           int
	cl            *server.Client
	plain, traced *rec
	rounds        int
}

// run loops n whole sessions. Client c's i'th session takes corpus
// c + i·clients, so concurrent sessions never share a corpus.
func (w *serveWorkload) run(c *serveClient, d *runData, n int) error {
	for ; n > 0; n-- {
		i := c.rounds
		r := c.plain
		if d.tr != nil && i%2 == 1 {
			r = c.traced
		}
		r.round = i*d.opt.procs + c.idx
		k := (c.idx + d.corpusFor(i, len(w.pool))*d.opt.procs) % len(w.pool)
		wall, err := r.do("harness.round", 1, func() error {
			return w.session(c.cl, r, k, fmt.Sprintf("tenant-%d", c.idx))
		})
		if err != nil {
			return err
		}
		r.add("e2e.round", wall.Seconds())
		c.rounds++
	}
	return nil
}

// measure runs one closed-loop client per processor, each through a fixed
// number of sessions. Rounds overlap, so CPU time and allocation are taken
// over the whole phase and divided by the sessions completed.
func (w *serveWorkload) measure(d *runData) error {
	clients := make([]*serveClient, d.opt.procs)
	for i := range clients {
		tr := &countingTransport{base: &http.Transport{}, bytes: &w.stepBytes, replies: &w.stepReplies}
		defer tr.base.CloseIdleConnections()
		cl := server.NewClient(w.base)
		cl.HTTP = &http.Client{Transport: tr}
		clients[i] = &serveClient{idx: i, cl: cl}
	}
	// every runs the clients side by side, each through n sessions.
	every := func(n int) error {
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *serveClient) {
				defer wg.Done()
				errs[i] = w.run(c, d, n)
			}(i, c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	// Rounds overlap, so the noise sentinel runs between parts of the
	// phase, not between rounds, ten times each.
	sentinel := func() {
		for i := 0; i < 10; i++ {
			d.noise = append(d.noise, refKernel())
		}
	}

	// One discarded warm-up session per client.
	for _, c := range clients {
		c.plain = newRec(&tally{})
	}
	if err := every(1); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for _, c := range clients {
		c.plain, c.traced, c.rounds = newRec(d.ops), newRec(d.ops), 0
		c.traced.tr = d.tr
	}
	// The phase runs in four parts with the sentinel around each, so that it
	// samples the machine across the whole run.
	d.overlapping = true
	const parts = 4
	for part := 0; part < parts; part++ {
		sentinel()
		runtime.GC()
		p := beginPhase()
		err := every(d.opt.rounds(w.opt.sz.serveSessions) / parts)
		p.end(d)
		if err != nil {
			return err
		}
	}
	sentinel()
	for _, c := range clients {
		d.plain.merge(c.plain)
		d.traced.merge(c.traced)
		d.rounds += c.rounds
	}
	d.traced.add("server.resp_bytes_per_step", ratio(float64(w.stepBytes.Load()), float64(w.stepReplies.Load())))
	// The same sessions stepped through the library, without HTTP, JSON or
	// the registry in the way.
	d.traced.add("server.http_overhead", d.traced.med("e2e.step")-w.ref.med("e2e.step"))
	d.traced.add("server.errors", float64(d.ops.failed.Load()))
	return nil
}

// replay reads the stats endpoint, converges every corpus through the
// library under the default window, then replays the layers on the last
// corpus and its library-path result.
func (w *serveWorkload) replay(r *rec) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl := server.NewClient(w.base)
	cl.HTTP = &http.Client{Transport: tr}
	for i := 0; i < 100; i++ {
		if _, err := r.do("server.stats", 1, func() error { _, err := cl.Stats(); return err }); err != nil {
			return err
		}
	}
	if err := replayDefaultWindow(r, w.opt, w.task, w.pool, assistant.Sequential{}, 1); err != nil {
		return err
	}
	c := w.pool[len(w.pool)-1]
	return replayLayers(r, replayInput{
		pages: pagesOf(c), programSrc: w.task.Program, env: w.task.Env(c),
		converged: w.refProg, final: w.refRes.Final, oracle: w.task.Oracle(), workers: 1,
	}, w.opt.sz.replayPages)
}

func (w *serveWorkload) close() {
	if w.hs != nil {
		_ = w.hs.Close()
		<-w.served
		w.srv.Close()
	}
}
