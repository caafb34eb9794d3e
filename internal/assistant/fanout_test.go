package assistant_test

// The simulation strategy's trials fan out through the session context's
// pool (engine.Context.ForEach): a panic during a trial reaches the Run
// caller, and Workers bounds every goroutine the session evaluates on.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
)

const fanoutWorkers = 2

// fanoutSession builds a two-step T8 session at Workers 2 over all 200
// records (nodes large enough for their chunks to fan out) whose
// FaultHook is hook.
func fanoutSession(t *testing.T, strategy assistant.Strategy, hook func(site string, docs []string) error) *assistant.Session {
	t.Helper()
	task, err := corpus.TaskByID("T8")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(200, 1)
	env := task.Env(c)
	env.FaultHook = hook
	return assistant.NewSession(env, alog.MustParse(task.Program), task.Oracle(), assistant.SubsetConfig(assistant.Config{
		Strategy:      strategy,
		MaxIterations: 2,
		SubsetSeed:    1,
		Workers:       fanoutWorkers,
	}, 1))
}

// phaseStrategy is Simulation with the "chunk" count read as its first
// Next starts and ends.
type phaseStrategy struct {
	assistant.Simulation
	calls        *atomic.Int64
	enter, leave *int64
}

func (p phaseStrategy) Next(s *assistant.Session, space []assistant.Question, n int) ([]assistant.Question, error) {
	first := *p.enter < 0
	if first {
		*p.enter = p.calls.Load()
	}
	qs, err := p.Simulation.Next(s, space, n)
	if first {
		*p.leave = p.calls.Load()
	}
	return qs, err
}

// TestSimulationPanicReachesRun: a FaultHook that panics on the Nth
// "chunk" call, N in the middle of the first step's simulations, panics
// out of Run, where recover sees it. When the trials ran on goroutines of
// their own, the panic killed the test binary.
func TestSimulationPanicReachesRun(t *testing.T) {
	var calls atomic.Int64
	enter, leave := int64(-1), int64(-1)
	count := func(site string, docs []string) error {
		if site == "chunk" {
			calls.Add(1)
		}
		return nil
	}
	probe := phaseStrategy{calls: &calls, enter: &enter, leave: &leave}
	if _, err := fanoutSession(t, probe, count).Run(); err != nil {
		t.Fatal(err)
	}
	if leave-enter < 2 {
		t.Fatalf("the first simulation step made %d chunk calls (from %d), want at least 2", leave-enter, enter)
	}
	nth := enter + (leave-enter)/2

	calls.Store(0)
	boom := func(site string, docs []string) error {
		if site == "chunk" && calls.Add(1) == nth {
			panic(fmt.Sprintf("injected chunk panic at call %d", nth))
		}
		return nil
	}
	recovered := func() (r any) {
		defer func() { r = recover() }()
		_, _ = fanoutSession(t, assistant.Simulation{}, boom).Run()
		return nil
	}()
	if recovered == nil || !strings.Contains(fmt.Sprint(recovered), "injected chunk panic") {
		t.Fatalf("Run's caller recovered %v, want the injected chunk panic", recovered)
	}
}

// TestSimulationStaysInsidePool: with a FaultHook that holds every
// "chunk" call briefly, the number of chunk calls in flight at once never
// exceeds Workers — trials and the chunks inside them share one pool. Run
// under -race (make race) it also covers ForEach regions that find no
// free slot: the trials hold it, so their chunks run on the caller.
func TestSimulationStaysInsidePool(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak, calls := 0, 0, 0
	hold := func(site string, docs []string) error {
		if site != "chunk" {
			return nil
		}
		mu.Lock()
		inFlight++
		calls++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil
	}
	res, err := fanoutSession(t, assistant.Simulation{}, hold).Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("the session made no chunk calls")
	}
	if peak > fanoutWorkers {
		t.Errorf("%d chunk calls in flight at once, want at most Workers = %d", peak, fanoutWorkers)
	}
	if got := res.Stats.PoolMaxExtra; got > fanoutWorkers-1 {
		t.Errorf("PoolMaxExtra = %d, want at most %d", got, fanoutWorkers-1)
	}
}
