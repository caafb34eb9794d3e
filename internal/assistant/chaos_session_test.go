package assistant_test

// Chaos tests through the full session loop: deterministic fault
// injection during a refinement session must leave transcripts and final
// tables byte-identical across worker counts and delta on/off, with the
// quarantined documents excluded — and nothing else.

import (
	"strings"
	"testing"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/fault"
	"iflex/internal/markup"
	"iflex/internal/text"
)

// chaosSessionConfig is a session setup whose question sequence is
// data-independent: Sequential strategy, a convergence window larger
// than the iteration bound (so convergence never truncates the loop),
// and a fixed subset seed. Sessions over different corpora then ask the
// same questions and refine to the same program.
func chaosSessionConfig(workers int, delta bool) assistant.Config {
	return assistant.OracleConfig(assistant.Config{
		Strategy:          assistant.Sequential{},
		MaxIterations:     3,
		ConvergenceWindow: 100,
		SubsetSeed:        1,
		Workers:           workers,
	}, delta)
}

// TestChaosSessionDeterministic runs a full T9 session under injected
// p-function faults at Workers 1 and 8, delta reuse on and off: every
// transcript and final table must be byte-identical, the quarantine
// non-empty, and the final result equal to a fault-free session over the
// corpus minus exactly the quarantined documents.
func TestChaosSessionDeterministic(t *testing.T) {
	const records = 40
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(records, 1)
	prog := alog.MustParse(task.Program)
	inj := fault.New(42, fault.Rule{Site: "pfunc", Mode: fault.ModeError, Num: 1, Den: 8})

	type cfg struct {
		workers int
		delta   bool
	}
	configs := []cfg{{1, false}, {8, false}, {1, true}, {8, true}}
	var transcripts, tables []string
	var quarantines [][]string
	for _, cf := range configs {
		env := task.Env(c)
		env.FaultHook = inj.Hook()
		res, err := assistant.NewSession(env, prog, task.Oracle(), chaosSessionConfig(cf.workers, cf.delta)).Run()
		if err != nil {
			t.Fatalf("workers=%d delta=%v: %v", cf.workers, cf.delta, err)
		}
		transcripts = append(transcripts, res.Transcript())
		tables = append(tables, res.Final.String())
		if res.Degraded == nil || len(res.Degraded.Quarantined) == 0 {
			t.Fatalf("workers=%d delta=%v: no quarantine in the degradation report", cf.workers, cf.delta)
		}
		quarantines = append(quarantines, res.Degraded.QuarantinedDocs())
	}
	for i := 1; i < len(configs); i++ {
		if transcripts[i] != transcripts[0] {
			t.Errorf("config %+v transcript differs:\n%s\n---\n%s", configs[i], transcripts[i], transcripts[0])
		}
		if tables[i] != tables[0] {
			t.Errorf("config %+v final table differs", configs[i])
		}
		if strings.Join(quarantines[i], ",") != strings.Join(quarantines[0], ",") {
			t.Errorf("config %+v quarantine %v differs from %v", configs[i], quarantines[i], quarantines[0])
		}
	}

	// A fault-free session over the corpus minus the quarantined
	// documents must produce the same final table: the degraded result is
	// exactly "everything minus the quarantined documents", nothing less.
	exclude := map[string]bool{}
	for _, id := range quarantines[0] {
		exclude[id] = true
	}
	cleanEnv := task.Env(c)
	for _, name := range task.Tables {
		var keep []*text.Document
		for _, d := range c.DocsOf(name) {
			if !exclude[d.ID()] {
				keep = append(keep, d)
			}
		}
		cleanEnv.AddDocTable(name, "x", keep)
	}
	cleanRes, err := assistant.NewSession(cleanEnv, prog, task.Oracle(), chaosSessionConfig(1, true)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if cleanRes.Degraded != nil {
		t.Fatalf("clean session degraded: %s", cleanRes.Degraded.Summary())
	}
	if cleanRes.Final.String() != tables[0] {
		t.Errorf("faulted session result differs from fault-free session over corpus minus quarantined docs:\nfaulted:\n%s\nclean:\n%s",
			tables[0], cleanRes.Final.String())
	}
}

// TestChaosSessionDeadline bounds a session with a deadline it cannot
// meet (injected per-probe latency): Run must return promptly with a
// partial result and a degradation report naming the expiry.
func TestChaosSessionDeadline(t *testing.T) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(60, 1)
	prog := alog.MustParse(task.Program)
	inj := fault.New(5, fault.Rule{Site: "pfunc", Mode: fault.ModeLatency, Num: 1, Den: 1, Latency: 2 * time.Millisecond})
	env := task.Env(c)
	env.FaultHook = inj.Hook()

	cfg := chaosSessionConfig(2, true)
	cfg.Deadline = 250 * time.Millisecond
	start := time.Now()
	res, err := assistant.NewSession(env, prog, task.Oracle(), cfg).Run()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	// The loop checkpoints at operator tuple/chunk granularity; allow a
	// generous multiple for scheduling noise, still far under the
	// fault-free runtime at 2ms per probe.
	if elapsed > 4*cfg.Deadline {
		t.Errorf("session took %v with a %v deadline", elapsed, cfg.Deadline)
	}
	if res.Final == nil {
		t.Fatal("nil final table from a deadline-bounded session")
	}
	if res.Degraded == nil || !res.Degraded.DeadlineExpired {
		t.Fatalf("degradation report missing or not expired: %+v", res.Degraded)
	}
}

// TestChaosMalformedMarkup drives malformed pages through a full session
// run: pages with NUL bytes and megabyte-scale attributes must parse and
// evaluate, extraction code crashing on the poisoned content must lead
// to quarantine rather than a crash, and outright unparseable markup
// must fail cleanly at parse time.
func TestChaosMalformedMarkup(t *testing.T) {
	// Truncated mid-tag markup is the one hard parse error: it must be an
	// error, never a panic.
	if _, err := markup.Parse("bad", `Price: 12<b class="x`); err == nil {
		t.Error("markup truncated mid-tag parsed without error")
	}

	docs := []*text.Document{
		markup.MustParse("ok1", "Item one<br>Price: 100<br>"),
		markup.MustParse("ok2", "Item two<br>Price: 250<br>"),
		markup.MustParse("nul", "Item\x00three<br>Price: 350<br>"),
		markup.MustParse("big", `<b junk="`+strings.Repeat("A", 1<<20)+`">Item four</b><br>Price: 400<br>`),
		markup.MustParse("cut", "Item five<br>Price: 5"), // truncated content, valid markup
	}
	env := engine.NewEnv()
	env.AddDocTable("pages", "x", docs)
	// cleanv stands in for extraction code that chokes on malformed
	// input: it panics outright when the value's document contains a NUL.
	env.Funcs["cleanv"] = engine.PFunc{Fn: func(args []text.Span) (bool, error) {
		if strings.ContainsRune(args[0].Doc().Text(), 0) {
			panic("extractor crashed on NUL byte")
		}
		return true, nil
	}}
	prog := alog.MustParse(`
Q(x, <v>) :- pages(x), extract(x, v), cleanv(v).
extract(x, v) :- from(x, v), numeric(v) = yes.
`)
	cfg := assistant.Config{
		Strategy:          assistant.Sequential{},
		MaxIterations:     2,
		ConvergenceWindow: 100,
		Workers:           4,
	}
	res, err := assistant.NewSession(env, prog, assistant.NewMapOracle(nil), cfg).Run()
	if err != nil {
		t.Fatalf("session over malformed corpus failed: %v", err)
	}
	if res.Degraded == nil {
		t.Fatal("no degradation report; the NUL page should have been quarantined")
	}
	q := res.Degraded.QuarantinedDocs()
	if len(q) != 1 || q[0] != "nul" {
		t.Fatalf("quarantined %v, want exactly [nul]", q)
	}
	// The surviving malformed-but-parseable pages must still contribute.
	out := res.Final.String()
	for _, want := range []string{"100", "250", "400"} {
		if !strings.Contains(out, want) {
			t.Errorf("result misses price %s from a surviving page:\n%s", want, out)
		}
	}
}
