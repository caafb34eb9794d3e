package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/markup"
	"iflex/internal/server"
	"iflex/internal/store"
)

// TestDaemon is the end-to-end smoke of the real binary: build it, start
// it on a free port with a document store mounted, drive one task-backed
// T9 session to completion over HTTP, require the streamed table
// byte-identical to the library path, step a session over the store, one
// of whose shard records is corrupt, and require a degraded step naming
// that page, then SIGTERM the idle daemon and require a clean drain and
// exit 0.
func TestDaemon(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "iflexd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const corrupt = "dblife-0011"
	storeDir := corruptStore(t, 20, corrupt)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", "st="+storeDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op once the daemon has exited

	// One reader owns the daemon's log: it reports the address from the
	// "listening on" line and hands over the whole log at EOF, i.e. once
	// the process has exited.
	addrc, logc := make(chan string, 1), make(chan string, 1)
	go func() {
		listening := regexp.MustCompile(`listening on (\S+)`)
		var log strings.Builder
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			log.WriteString(sc.Text() + "\n")
			if m := listening.FindStringSubmatch(sc.Text()); m != nil {
				addrc <- m[1]
			}
		}
		logc <- log.String()
	}()
	var addr string
	select {
	case addr = <-addrc:
	case log := <-logc:
		t.Fatalf("daemon exited before listening:\n%s", log)
	case <-time.After(10 * time.Second):
		t.Fatal("no listening line within 10s")
	}

	const records, seed = 12, int64(1)
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	oracle := task.Oracle()
	c := server.NewClient("http://" + addr)
	created, err := c.CreateSession(server.CreateSessionRequest{
		Tenant: "smoke", Task: task.ID, Records: records, Seed: seed, Strategy: "seq",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every request carries a per-step deadline far too generous to fire:
	// the deadline_ms plumbing is exercised, the result must not show it.
	const deadlineMS = 10_000
	var answers []server.AnswerJSON
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("session did not terminate")
		}
		sr, err := c.Step(created.ID, server.StepRequest{Answers: answers, DeadlineMS: deadlineMS})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if sr.Done {
			break
		}
		answers = answers[:0]
		for _, qj := range sr.Questions {
			q, err := server.ParseQuestion(qj)
			if err != nil {
				t.Fatal(err)
			}
			ans := oracle.Answer(q)
			answers = append(answers, server.AnswerJSON{Value: ans.Value, Known: ans.Known})
		}
	}
	got, err := c.Result(created.ID, false, deadlineMS)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded != nil {
		t.Errorf("degraded under a %d ms step deadline: %s", deadlineMS, got.DegradedLine)
	}

	want, err := assistant.NewSession(task.Env(task.Generate(records, seed)), alog.MustParse(task.Program),
		task.Oracle(), assistant.Config{Strategy: assistant.Sequential{}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.TableString() != want.Final.String() {
		t.Errorf("daemon table differs from library path\ndaemon:\n%s\nlibrary:\n%s", got.TableString(), want.Final.String())
	}
	if got.QuestionsAsked != want.QuestionsAsked || got.Converged != want.Converged {
		t.Errorf("daemon (asked=%d converged=%v) vs library (asked=%d converged=%v)",
			got.QuestionsAsked, got.Converged, want.QuestionsAsked, want.Converged)
	}

	// A corrupt page degrades the step over the store instead of failing it.
	sc, err := c.CreateSession(server.CreateSessionRequest{Tenant: "store", Store: "st", Program: panelProgram, Strategy: "seq"})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := c.Step(sc.ID, server.StepRequest{DeadlineMS: deadlineMS})
	if err != nil {
		t.Fatalf("step over the corrupt store: %v", err)
	}
	if sr.Degraded == nil || len(sr.Degraded.Quarantined) != 1 || sr.Degraded.Quarantined[0].Doc != corrupt {
		t.Errorf("step degraded %+v, want %s quarantined", sr.Degraded, corrupt)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var log string
	select {
	case log = <-logc:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon still running 30s after SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("daemon exit after SIGTERM: %v, want status 0; log:\n%s", err, log)
	}
	if !strings.Contains(log, "drained cleanly") {
		t.Errorf("log lacks \"drained cleanly\":\n%s", log)
	}
}

// panelProgram is the DBLife panel program with the constraints Section
// 6.3 shows the developer adding.
const panelProgram = `
onPanel(d, x, <y>) :- docs(d), extractPanelists(d, x), extractConference(d, y).
Q(x, y) :- onPanel(d, x, y).
extractPanelists(d, x) :- from(d, x),
                          prec_label_contains(x, "panel"),
                          prec_label_max_dist(x, 700),
                          in-list(x) = distinct-yes.
extractConference(d, y) :- from(d, y), in-title(y) = yes,
                           starts_with(y, "[A-Z][A-Z]+"),
                           ends_with(y, "19\\d\\d|20\\d\\d"),
                           max_length(y, 12).
`

// corruptStore writes a store of pages DBLife pages and flips a byte of
// the stored text of page id inside its shard record, so that page fails
// its checksum when it is first loaded.
func corruptStore(t *testing.T, pages int, id string) string {
	dir := filepath.Join(t.TempDir(), "st")
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var raw string
	err = corpus.StreamDBLife(corpus.DBLifeConfig{Pages: pages, Seed: 7}, nil, func(pid, src string) error {
		if pid == id {
			raw = src
		}
		return w.Add(pid, src)
	})
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, "shard-0000.ifs")
	b, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	txt := markup.MustParse(id, raw).Text()
	off := bytes.Index(b, []byte(txt))
	if raw == "" || off < 0 {
		t.Fatalf("text of %s not found in the shard", id)
	}
	b[off+len(txt)/2] ^= 0x20
	if err := os.WriteFile(shard, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}
