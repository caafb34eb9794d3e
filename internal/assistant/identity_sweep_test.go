package assistant_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
)

// The identity sweep is the project's regression net for changes that must
// not move what a session computes: a registry of named sessions, each
// writing one canonical line, compared with testdata/sweep.golden. A line
// holds hashes of the transcript, the final table, the refined program, the
// executed plans and the degradation report, and every deterministic
// engine counter under its json name. A change that moves a line on purpose
// re-records the file with
//
//	go test ./internal/assistant -run TestIdentitySweep -update
//
// and says which sessions and fields moved, and why.

var updateSweep = flag.Bool("update", false, "re-record testdata/sweep.golden from this tree")

const sweepGolden = "testdata/sweep.golden"

// sweepSession is one registered session: its name and the function that
// runs it and writes its line (without the name) to w.
type sweepSession struct {
	name string
	long bool // skipped under -short
	run  func(w io.Writer) error
}

var sweepSessions []sweepSession

func registerSweep(name string, long bool, run func(w io.Writer) error) {
	sweepSessions = append(sweepSessions, sweepSession{name, long, run})
}

// The axes: every task (T1–T9 and the three DBLife programs) at 24 records,
// T3/T6/T8/T9 again at 200 and Panel/Project at 100 pages (the only legs
// where a hereditary max-tokens saves a call), each Sequential and
// Simulation × seeds 1–2 × Workers 1/8 × delta reuse on/off.
func init() {
	tasks := corpus.Tasks()
	tasks = append(tasks, corpus.DBLifeTasks()...)
	long := map[string]int{"T3": 200, "T6": 200, "T8": 200, "T9": 200, "Panel": 100, "Project": 100}
	for _, leg := range []int{24, 0} {
		for _, task := range tasks {
			records := leg
			if leg == 0 {
				if records = long[task.ID]; records == 0 {
					continue
				}
			}
			for _, strategy := range []string{"seq", "sim"} {
				for _, seed := range []int{1, 2} {
					for _, workers := range []int{1, 8} {
						for _, delta := range []bool{true, false} {
							name := fmt.Sprintf("%s/%d/%s/seed%d/w%d/delta=%t", task.ID, records, strategy, seed, workers, delta)
							registerSweep(name, records > 24, func(w io.Writer) error {
								return sweepRun(w, task, records, strategy, seed, workers, delta)
							})
						}
					}
				}
			}
		}
	}
}

// sweepRun runs one session to the end and writes its canonical line.
func sweepRun(w io.Writer, task *corpus.Task, records int, strategy string, seed, workers int, delta bool) error {
	cfg := assistant.Config{Strategy: assistant.Sequential{}, SubsetSeed: uint64(seed), Workers: workers}
	if strategy == "sim" {
		cfg.Strategy = assistant.Simulation{}
	}
	s := assistant.NewSession(task.Env(task.Generate(records, int64(seed))), alog.MustParse(task.Program), task.Oracle(),
		assistant.OracleConfig(cfg, delta))
	var mu sync.Mutex
	var base, trials []string
	s.CheckPlansForTest(func(_ *alog.Program, q assistant.Question, v string, plan *engine.Plan, size int) {
		mu.Lock()
		defer mu.Unlock()
		if q == (assistant.Question{}) {
			base = append(base, fmt.Sprintf("%d %s", size, plan))
		} else {
			trials = append(trials, fmt.Sprintf("%s=%s %d %s", q, v, size, plan))
		}
	})
	res, err := s.Run()
	if err != nil {
		return err
	}
	slices.Sort(trials)
	degraded, err := json.Marshal(res.Degraded)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "transcript=%s table=%s program=%s plans=%s trials=%s degraded=%s",
		sweepHash(res.Transcript()), sweepHash(res.Final.String()), sweepHash(s.Program().String()),
		sweepHash(strings.Join(base, "\n")), sweepHash(strings.Join(trials, "\n")), sweepHash(string(degraded)))
	writeDetCounters(w, reflect.ValueOf(res.Stats))
	return nil
}

func sweepHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:6])
}

// writeDetCounters writes every stat:"det" field of v (a Stats or the Work
// it embeds) as " json_name=value", in declaration order.
func writeDetCounters(w io.Writer, v reflect.Value) {
	for i := range v.NumField() {
		f := v.Type().Field(i)
		if f.Anonymous {
			writeDetCounters(w, v.Field(i))
			continue
		}
		if f.Tag.Get("stat") == "det" {
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			fmt.Fprintf(w, " %s=%d", name, v.Field(i).Int())
		}
	}
}

// TestIdentitySweep runs every registered session (under -short, the
// 24-record ones) and compares its line with the golden file; -update
// re-records the file, which needs the full sweep.
func TestIdentitySweep(t *testing.T) {
	if *updateSweep && testing.Short() {
		t.Fatal("-update re-records every session: drop -short")
	}
	golden, err := readSweepGolden()
	if err != nil && !*updateSweep {
		t.Fatal(err)
	}
	got := make([]string, len(sweepSessions))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, sc := range sweepSessions {
		if sc.long && testing.Short() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var b strings.Builder
			if err := sc.run(&b); err != nil {
				b.Reset()
				fmt.Fprintf(&b, "error=%q", err)
			}
			got[i] = b.String()
		}()
	}
	wg.Wait()
	if *updateSweep {
		var b strings.Builder
		for i, sc := range sweepSessions {
			fmt.Fprintf(&b, "%s %s\n", sc.name, got[i])
		}
		if err := os.WriteFile(sweepGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i, sc := range sweepSessions {
		if sc.long && testing.Short() {
			continue
		}
		want, ok := golden[sc.name]
		switch {
		case !ok:
			t.Errorf("%s: not in %s (re-record with -update)", sc.name, sweepGolden)
		case want != got[i]:
			t.Errorf("%s: %s", sc.name, sweepFieldDiff(want, got[i]))
		}
	}
	if len(golden) != len(sweepSessions) {
		t.Errorf("%s holds %d sessions, the registry %d (re-record with -update)", sweepGolden, len(golden), len(sweepSessions))
	}
}

// readSweepGolden maps each session name in the golden file to its line.
func readSweepGolden() (map[string]string, error) {
	f, err := os.Open(sweepGolden)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, line, _ := strings.Cut(sc.Text(), " ")
		m[name] = line
	}
	return m, sc.Err()
}

// sweepFieldDiff names the fields whose values differ between two lines.
func sweepFieldDiff(want, got string) string {
	fields := func(line string) map[string]string {
		m := map[string]string{}
		for _, kv := range strings.Fields(line) {
			k, v, _ := strings.Cut(kv, "=")
			m[k] = v
		}
		return m
	}
	w, g := fields(want), fields(got)
	var diffs []string
	for _, kv := range strings.Fields(want + " " + got) {
		k, _, _ := strings.Cut(kv, "=")
		if w[k] != g[k] && !slices.Contains(diffs, k) {
			diffs = append(diffs, k)
		}
	}
	for i, k := range diffs {
		diffs[i] = fmt.Sprintf("%s %s → %s", k, w[k], g[k])
	}
	return strings.Join(diffs, ", ")
}
