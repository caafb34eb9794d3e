package assistant_test

// Tests of the session loop's drivers (step.go): a session stepped to
// completion must be byte-identical to Run with the same answers, the
// per-step deadline must be re-armed on every call (the stale-binding
// bug), an expired step must poison neither later steps nor the final
// result, and a faulted Finalize must stay retryable.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/fault"
	"iflex/internal/text"
)

// stepUntilDone drives a session through Step until Done, answering
// pending questions with the oracle. Each step runs under deadline d
// (0 = none).
func stepUntilDone(t *testing.T, s *assistant.Session, o *assistant.MapOracle, d time.Duration) {
	t.Helper()
	var answers []assistant.Answer
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("step loop did not terminate")
		}
		sr, err := s.StepDeadline(d, answers)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if sr.Done {
			return
		}
		answers = answers[:0]
		for _, q := range sr.Questions {
			answers = append(answers, o.Answer(q))
		}
	}
}

// stepToCompletion is stepUntilDone followed by Finalize under the same
// deadline.
func stepToCompletion(t *testing.T, s *assistant.Session, o *assistant.MapOracle, d time.Duration) *assistant.Result {
	t.Helper()
	stepUntilDone(t, s, o, d)
	res, err := s.Finalize(d)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return res
}

// sameSession fails unless got's transcript, final table, Converged and
// QuestionsAsked equal want's.
func sameSession(t *testing.T, label string, got, want *assistant.Result) {
	t.Helper()
	if got.Transcript() != want.Transcript() {
		t.Errorf("%s: transcript differs\ngot:\n%s\nwant:\n%s", label, got.Transcript(), want.Transcript())
	}
	if got.Final.String() != want.Final.String() {
		t.Errorf("%s: final table differs\ngot:\n%s\nwant:\n%s", label, got.Final.String(), want.Final.String())
	}
	if got.Converged != want.Converged || got.QuestionsAsked != want.QuestionsAsked {
		t.Errorf("%s: (converged=%v, asked=%d), want (converged=%v, asked=%d)",
			label, got.Converged, got.QuestionsAsked, want.Converged, want.QuestionsAsked)
	}
}

// TestStepMatchesRun pins the service-path contract: Run and Step are two
// drivers over one loop body, so for every corpus task and both
// strategies, stepping a session to completion with the oracle's answers
// yields a transcript and final table byte-identical to Run on a session
// with the same configuration — and so does switching from one driver to
// the other half way. The deadline case pins what only Run does: one
// Config.Deadline over the whole loop.
func TestStepMatchesRun(t *testing.T) {
	const records = 10
	for _, strat := range []struct {
		name string
		s    assistant.Strategy
	}{
		{"sequential", assistant.Sequential{}},
		{"simulation", assistant.Simulation{}},
	} {
		strat := strat
		t.Run(strat.name, func(t *testing.T) {
			for _, task := range corpus.Tasks() {
				c := task.Generate(records, 1)
				env := task.Env(c)
				cfg := assistant.Config{Strategy: strat.s, Alpha: assistant.ExplicitZero}

				run := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), cfg)
				want, err := run.Run()
				if err != nil {
					t.Fatalf("%s: run: %v", task.ID, err)
				}

				stepped := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), cfg)
				sameSession(t, task.ID+" stepped", stepToCompletion(t, stepped, task.Oracle(), 0), want)
			}
		})
	}
	t.Run("run after two steps", runAfterTwoSteps)
	t.Run("deadline", runDeadlineMidLoop)
}

// runAfterTwoSteps switches drivers half way, on every task: Run on a
// session already stepped twice answers the questions the second step
// left pending from the Oracle — they are not dropped as "I do not know"
// — and ends exactly where an undisturbed Run does.
func runAfterTwoSteps(t *testing.T) {
	for _, task := range corpus.Tasks() {
		c := task.Generate(10, 1)
		env := task.Env(c)
		cfg := assistant.Config{Strategy: assistant.Sequential{}, Alpha: assistant.ExplicitZero}
		want, err := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), cfg).Run()
		if err != nil {
			t.Fatalf("%s: run: %v", task.ID, err)
		}

		o := task.Oracle()
		s := assistant.NewSession(env, alog.MustParse(task.Program), o, cfg)
		sr, err := s.Step(nil)
		if err != nil {
			t.Fatalf("%s: step 1: %v", task.ID, err)
		}
		var answers []assistant.Answer
		for _, q := range sr.Questions {
			answers = append(answers, o.Answer(q))
		}
		if sr, err = s.Step(answers); err != nil {
			t.Fatalf("%s: step 2: %v", task.ID, err)
		}
		if len(sr.Questions) == 0 || len(s.Pending()) != len(sr.Questions) {
			t.Fatalf("%s: second step left %d questions pending of %d asked; the case is vacuous",
				task.ID, len(s.Pending()), len(sr.Questions))
		}
		got, err := s.Run()
		if err != nil {
			t.Fatalf("%s: run after two steps: %v", task.ID, err)
		}
		sameSession(t, task.ID, got, want)
	}
}

// armingOracle answers like the oracle it wraps and calls arm when asked
// its first question, i.e. between the first and the second iteration.
type armingOracle struct {
	assistant.Oracle
	asked int
	arm   func()
}

func (o *armingOracle) Answer(q assistant.Question) assistant.Answer {
	if o.asked++; o.asked == 1 {
		o.arm()
	}
	return o.Oracle.Answer(q)
}

// runDeadlineMidLoop makes Run's one Config.Deadline expire in the middle
// of the loop: a chunk-latency rule, armed once the first iteration is
// over, sleeps past the deadline inside the next execution. The loop must
// stop asking there, the cut iteration must not count as evidence of
// convergence, and the result must be the degraded partial table — still
// a superset over the documents it did process.
func runDeadlineMidLoop(t *testing.T) {
	task, err := corpus.TaskByID("T1")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(10, 1)
	const deadline = 300 * time.Millisecond
	inj := fault.New(1, fault.Rule{Site: "chunk", Mode: fault.ModeLatency, Num: 1, Den: 1, Latency: deadline + deadline/2})
	inj.Disable()
	o := &armingOracle{Oracle: task.Oracle(), arm: inj.Enable}
	senv, hook := task.Env(c), inj.Hook()
	senv.FaultHook = func(site string, docs []string) error {
		if site != "chunk" {
			return nil
		}
		defer inj.Disable() // one sleep is enough: the deadline is behind us
		return hook(site, docs)
	}
	s := assistant.NewSession(senv, alog.MustParse(task.Program), o, assistant.Config{
		Strategy: assistant.Sequential{}, Workers: 1, Deadline: deadline,
	})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if inj.Injected.Load() == 0 {
		t.Fatal("the latency rule never fired; the deadline cannot have expired mid-loop")
	}
	if res.Degraded == nil || !res.Degraded.DeadlineExpired {
		t.Fatalf("degradation report missing or not expired: %+v", res.Degraded)
	}
	if res.Converged {
		t.Error("Converged with the last iteration cut: a cut iteration counted as evidence")
	}
	n := len(res.Iterations)
	if n < 3 || res.Iterations[n-1].Mode != "full" {
		t.Fatalf("want at least a clean iteration, the cut one and the full pass:\n%s", res.Transcript())
	}
	if cut := res.Iterations[n-2]; len(cut.Questions) != 0 {
		t.Errorf("the cut iteration asked %v", cut.Questions)
	}
	logged := 0
	for _, it := range res.Iterations {
		logged += len(it.Questions)
	}
	if res.QuestionsAsked != o.asked || logged != o.asked {
		t.Errorf("QuestionsAsked=%d, logged=%d, oracle was asked %d", res.QuestionsAsked, logged, o.asked)
	}
	if o.asked >= 10 {
		t.Errorf("oracle asked %d questions; the loop did not stop at the cut", o.asked)
	}

	// Superset over the processed documents: whatever the refined program
	// yields on the corpus minus the unprocessed documents is in the table.
	// (The full pass starts after the expiry, so it may well process none.)
	gone := map[string]bool{}
	for _, id := range res.Degraded.UnprocessedDocs {
		gone[id] = true
	}
	env := task.Env(c)
	for _, name := range task.Tables {
		var keep []*text.Document
		for _, d := range c.DocsOf(name) {
			if !gone[d.ID()] {
				keep = append(keep, d)
			}
		}
		env.AddDocTable(name, "x", keep)
	}
	processed, err := engine.Run(s.Program(), env)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, tp := range res.Final.Tuples {
		have[tp.String()] = true
	}
	for _, tp := range processed.Tuples {
		if !have[tp.String()] {
			t.Errorf("tuple over processed documents missing from the degraded table: %s", tp)
		}
	}
}

// TestStepDeadlineRearmed is the regression test for the stale-binding
// bug: Config.Deadline used to be bound once at session start, so a
// session stepped across a pause longer than the deadline had every later
// step running against a long-expired context. Each StepDeadline call
// must get a fresh window.
func TestStepDeadlineRearmed(t *testing.T) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(12, 1)
	env := task.Env(c)
	o := task.Oracle()
	s := assistant.NewSession(env, alog.MustParse(task.Program), o, assistant.Config{})

	const d = 10 * time.Second
	sr, err := s.StepDeadline(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Degraded != nil {
		t.Fatalf("first step degraded under a generous deadline: %+v", sr.Degraded)
	}
	// The user thinks for longer than the per-step deadline would allow if
	// it had been bound at session start... (the clock on the first
	// binding keeps running between steps).
	start := time.Now()
	short := 30 * time.Millisecond
	time.Sleep(2 * short)
	// ...then answers. With a re-armed binding this step gets its own
	// fresh window and completes clean; with the old once-bound deadline
	// it would start already expired.
	var answers []assistant.Answer
	for _, q := range sr.Questions {
		answers = append(answers, o.Answer(q))
	}
	sr2, err := s.StepDeadline(short, answers)
	if err != nil {
		t.Fatal(err)
	}
	if sr2.Degraded != nil && sr2.Degraded.DeadlineExpired {
		// Only meaningful if the step itself was fast enough that a fresh
		// window could not have expired on its own.
		if elapsed := time.Since(start); elapsed < 2*short+short {
			t.Errorf("second step expired despite fresh %v window (elapsed %v): deadline not re-armed", short, elapsed)
		}
	}
}

// TestExpiredStepDoesNotPoison forces a step to expire (1ns deadline) and
// asserts the blast radius is that step alone: it comes back degraded
// with no questions but does not end the loop, the next step is clean,
// and the finalized result is byte-identical to an undisturbed session.
func TestExpiredStepDoesNotPoison(t *testing.T) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(12, 1)
	env := task.Env(c)

	ref := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.Config{})
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	o := task.Oracle()
	s := assistant.NewSession(env, alog.MustParse(task.Program), o, assistant.Config{})
	cut, err := s.StepDeadline(time.Nanosecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Degraded == nil || !cut.Degraded.DeadlineExpired {
		t.Fatalf("1ns step not degraded: %+v", cut.Degraded)
	}
	if cut.Done {
		t.Fatal("expired step ended the loop; it must only degrade that step")
	}
	if len(cut.Questions) != 0 {
		t.Fatalf("expired step served questions scored on a partial table: %v", cut.Questions)
	}

	// The next step (fresh window, no answers pending) must be clean: no
	// stale degradation report, and from here the session must converge to
	// exactly the undisturbed result.
	first, err := s.StepDeadline(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Degraded != nil {
		t.Fatalf("step after expiry inherited degradation: %+v", first.Degraded)
	}

	answers := make([]assistant.Answer, 0, len(first.Questions))
	for _, q := range first.Questions {
		answers = append(answers, o.Answer(q))
	}
	sr := first
	for i := 0; !sr.Done; i++ {
		if i > 200 {
			t.Fatal("step loop did not terminate")
		}
		if sr, err = s.StepDeadline(0, answers); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if sr.Degraded != nil {
			t.Fatalf("step %d degraded after the cut was over: %+v", i, sr.Degraded)
		}
		answers = answers[:0]
		for _, q := range sr.Questions {
			answers = append(answers, o.Answer(q))
		}
	}
	got, err := s.Finalize(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded != nil {
		t.Errorf("finalized result carries stale degradation: %+v", got.Degraded)
	}
	if got.Final.String() != want.Final.String() {
		t.Errorf("final table after an expired step differs from undisturbed run\ngot:\n%s\nwant:\n%s",
			got.Final.String(), want.Final.String())
	}
	if !got.Converged {
		t.Error("session with one expired step failed to converge")
	}
}

// cancelAtNext is Simulation whose step's cancellation fires as Next
// starts, before any trial runs.
type cancelAtNext struct {
	assistant.Simulation
	cancel context.CancelFunc
}

func (st cancelAtNext) Next(s *assistant.Session, space []assistant.Question, n int) ([]assistant.Question, error) {
	st.cancel()
	return st.Simulation.Next(s, space, n)
}

// TestDeadlineDuringSimulation is the regression test for questions picked
// from trials that never ran: a deadline that fires once the iteration has
// executed but before the simulation has scored anything used to leave
// every trial at size 0 and no error, so the first candidates came back as
// the best questions and the step reported no degradation. Such a step must
// come back like one cut during execution — degraded, no questions, not
// done — and the next step must re-simulate and ask what an undisturbed
// session asks.
func TestDeadlineDuringSimulation(t *testing.T) {
	task, err := corpus.TaskByID("T8")
	if err != nil {
		t.Fatal(err)
	}
	env := task.Env(task.Generate(40, 1))
	for _, workers := range []int{1, 2} {
		cfg := assistant.Config{Strategy: assistant.Simulation{}, Workers: workers}
		want, err := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), cfg).StepDeadline(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Questions) == 0 {
			t.Fatal("undisturbed first step asked nothing: the test shows nothing")
		}

		c, cancel := context.WithCancel(context.Background())
		cfg.Strategy = cancelAtNext{cancel: cancel}
		s := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), cfg)
		cut, err := s.StepContextForTest(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(cut.Questions) != 0 {
			t.Errorf("workers %d: step cut during simulation asked %v", workers, cut.Questions)
		}
		if cut.Degraded == nil || !cut.Degraded.DeadlineExpired {
			t.Errorf("workers %d: step cut during simulation not degraded: %+v", workers, cut.Degraded)
		}
		if cut.Done {
			t.Errorf("workers %d: step cut during simulation ended the loop", workers)
		}

		// The next step binds a fresh, unfired window (cancel now only
		// cancels the old one).
		next, err := s.StepDeadline(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if next.Degraded != nil {
			t.Errorf("workers %d: step after the cut inherited degradation: %+v", workers, next.Degraded)
		}
		if !slices.Equal(next.Questions, want.Questions) || next.Iteration.Tuples != want.Iteration.Tuples {
			t.Errorf("workers %d: step after the cut asked %v over %d tuples, undisturbed %v over %d",
				workers, next.Questions, next.Iteration.Tuples, want.Questions, want.Iteration.Tuples)
		}
	}
}

// TestEveryStepExpiredStillTerminates starves every step (1ns windows):
// the loop must still end at MaxIterations, and Finalize without a
// deadline must still produce the complete, non-degraded table.
func TestEveryStepExpiredStillTerminates(t *testing.T) {
	task, err := corpus.TaskByID("T6")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(10, 1)
	env := task.Env(c)
	s := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.Config{MaxIterations: 3})
	steps := 0
	for {
		sr, err := s.StepDeadline(time.Nanosecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Done {
			break
		}
		steps++
		if steps > 10 {
			t.Fatal("starved session did not hit the iteration bound")
		}
	}
	if steps != 3 {
		t.Errorf("starved session ran %d steps, want MaxIterations=3", steps)
	}
	res, err := s.Finalize(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != nil {
		t.Errorf("clean finalize after starved steps still degraded: %+v", res.Degraded)
	}
	if res.Final == nil || res.FinalTuples == 0 {
		t.Error("finalize produced no result")
	}
}

// TestStepAPIErrors pins the misuse errors: answering more questions than
// pending, and stepping or finalizing a finalized session.
func TestStepAPIErrors(t *testing.T) {
	task, err := corpus.TaskByID("T1")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(6, 1)
	env := task.Env(c)
	s := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.Config{})
	if _, err := s.StepDeadline(0, []assistant.Answer{assistant.DontKnow()}); err == nil {
		t.Error("answers with no pending questions accepted")
	}
	if _, err := s.Finalize(0); err != nil {
		t.Fatal(err)
	}
	if !s.Finished() {
		t.Error("Finished() false after Finalize")
	}
	if _, err := s.StepDeadline(0, nil); err == nil {
		t.Error("Step after Finalize accepted")
	}
	if _, err := s.Finalize(0); err == nil {
		t.Error("double Finalize accepted")
	}
	_, stepErr := s.Step(nil)
	if _, err := s.Run(); err == nil || err.Error() != stepErr.Error() {
		t.Errorf("Run after Finalize: %v, want Step's error %v", err, stepErr)
	}
}

// TestFinalizeRetryAfterFault is the regression test for a session that
// marked itself finished before its first full-corpus pass had produced
// anything: when that pass failed (here an injected error at an operator
// chunk boundary, outside any guarded unit, so nothing quarantines it)
// every later Finalize answered "session already finalized" and the
// result was lost. The first Finalize must
// return the fault, the second the complete result, byte-identical to an
// undisturbed session's.
func TestFinalizeRetryAfterFault(t *testing.T) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(30, 1) // enough pages that the subset leaves most out
	cfg := assistant.Config{Strategy: assistant.Sequential{}, SubsetSeed: 1}

	ref := assistant.NewSession(task.Env(c), alog.MustParse(task.Program), task.Oracle(), cfg)
	want := stepToCompletion(t, ref, task.Oracle(), 0)

	var armed atomic.Bool
	env := task.Env(c)
	env.FaultHook = func(site string, docs []string) error {
		if site == "chunk" && armed.CompareAndSwap(true, false) {
			return errors.New("injected fault in the full pass")
		}
		return nil
	}
	s := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), cfg)
	stepUntilDone(t, s, task.Oracle(), 0)
	armed.Store(true)
	if _, err := s.Finalize(0); err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("first Finalize: %v, want the injected fault", err)
	}
	if armed.Load() {
		t.Fatal("the full pass reached no operator chunk; the hook never fired")
	}
	if s.Finished() {
		t.Error("Finished() after a Finalize that produced no result")
	}
	got, err := s.Finalize(0)
	if err != nil {
		t.Fatalf("second Finalize: %v", err)
	}
	if got.Final.String() != want.Final.String() {
		t.Errorf("retried final table differs from an undisturbed session's\ngot:\n%s\nwant:\n%s",
			got.Final.String(), want.Final.String())
	}
	if got.FinalTuples != want.FinalTuples || got.Converged != want.Converged ||
		got.QuestionsAsked != want.QuestionsAsked || len(got.Iterations) != len(want.Iterations) {
		t.Errorf("retried result (tuples=%d converged=%v asked=%d iterations=%d) vs undisturbed (%d %v %d %d)",
			got.FinalTuples, got.Converged, got.QuestionsAsked, len(got.Iterations),
			want.FinalTuples, want.Converged, want.QuestionsAsked, len(want.Iterations))
	}
	if got.Degraded != nil {
		t.Errorf("retried result degraded: %s", got.Degraded.Summary())
	}
}

// TestStepExplain exercises the Explain accessor used by the service's
// -explain streaming.
func TestStepExplain(t *testing.T) {
	task, err := corpus.TaskByID("T1")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(6, 1)
	env := task.Env(c)
	s := assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.Config{})
	if _, err := s.Explain(); err == nil {
		t.Error("Explain before any execution accepted")
	}
	if _, err := s.StepDeadline(0, nil); err != nil {
		t.Fatal(err)
	}
	out, err := s.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Error("empty explain output")
	}
	snap := s.StatsSnapshot()
	if snap.NodesEvaluated == 0 {
		t.Errorf("snapshot shows no evaluations: %+v", snap)
	}
	_ = fmt.Sprintf("%v", snap) // snapshot must be renderable
}
