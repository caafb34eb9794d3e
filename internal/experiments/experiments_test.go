package experiments

import (
	"bytes"
	"strings"
	"testing"

	"iflex/internal/corpus"
)

// Small scale keeps harness tests quick while preserving shapes.
func opts(buf *bytes.Buffer) Options {
	return Options{Scale: 0.05, Seed: 1, Strategy: "sim", Out: buf}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(opts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Movies", "IMDB", "GarciaMolina", "Amazon", "Barnes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestTable2ValidatesAllPrograms(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(opts(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"T1", "T5", "T9"} {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("Table 2 output missing %s", id)
		}
	}
}

func TestRunScenario(t *testing.T) {
	task, err := corpus.TaskByID("T1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunScenario(Scenario{Task: task, Records: 20}, "sim", 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Missing != 0 {
		t.Errorf("superset violated: %d missing", out.Missing)
	}
	if out.Superset != 100 {
		t.Errorf("T1 should converge to 100%%, got %.0f%%", out.Superset)
	}
	if _, err := RunScenario(Scenario{Task: task, Records: 10}, "bogus", 1); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestTable3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("27 scenarios are slow")
	}
	var buf bytes.Buffer
	rows, err := Table3(opts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 27 {
		t.Fatalf("rows = %d, want 27", len(rows))
	}
	for _, r := range rows {
		// The paper's headline: iFlex beats Xlog in every scenario.
		if r.IFlexMin >= r.XlogMin {
			t.Errorf("%s n=%d: iFlex %.1f >= Xlog %.1f", r.Task, r.Records, r.IFlexMin, r.XlogMin)
		}
	}
	// Manual grows with size within each task.
	for i := 0; i+2 < len(rows); i += 3 {
		if !rows[i+2].ManualDNF && rows[i+2].ManualMin < rows[i].ManualMin {
			t.Errorf("%s: Manual not growing: %.1f -> %.1f", rows[i].Task, rows[i].ManualMin, rows[i+2].ManualMin)
		}
	}
}

func TestTable5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("18 sessions are slow")
	}
	var buf bytes.Buffer
	rows, err := Table5(opts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	seqWorseSomewhere := false
	for _, r := range rows {
		if r.Seq.Missing != 0 || r.Sim.Missing != 0 {
			t.Errorf("%s: superset violated (seq %d, sim %d missing)",
				r.Seq.Scenario.Task.ID, r.Seq.Missing, r.Sim.Missing)
		}
		// Sequential selection is cheaper per run...
		if r.Seq.ExecSeconds > r.Sim.ExecSeconds*1.5 {
			t.Errorf("%s: seq (%.2fs) should not be much slower than sim (%.2fs)",
				r.Seq.Scenario.Task.ID, r.Seq.ExecSeconds, r.Sim.ExecSeconds)
		}
		// ...but may land on much larger supersets (the paper's point).
		if r.Seq.Superset > r.Sim.Superset*2 {
			seqWorseSomewhere = true
		}
	}
	if !seqWorseSomewhere {
		t.Error("expected at least one task where sequential's superset is much larger")
	}
}

func TestTable6(t *testing.T) {
	if testing.Short() {
		t.Skip("DBLife sessions are slow")
	}
	var buf bytes.Buffer
	rows, err := Table6(opts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FinalTuples < r.TruthSize {
			t.Errorf("%s: result %d below truth %d", r.Task, r.FinalTuples, r.TruthSize)
		}
		if r.DevMinutes <= 0 {
			t.Errorf("%s: dev minutes = %v", r.Task, r.DevMinutes)
		}
	}
}

func TestScaleFloor(t *testing.T) {
	o := Options{Scale: 0.0001}.withDefaults()
	if got := o.scale(100); got != 10 {
		t.Errorf("scale floor = %d", got)
	}
	o = Options{Scale: 1}.withDefaults()
	if got := o.scale(100); got != 100 {
		t.Errorf("identity scale = %d", got)
	}
}

func TestScaling(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Scaling(Options{Scale: 1, Seed: 1, Out: &buf}, "T7", []int{20, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Tuples <= rows[0].Tuples {
		t.Errorf("result size should grow with corpus: %+v", rows)
	}
	if !strings.Contains(buf.String(), "Scaling") {
		t.Error("output missing header")
	}
	if _, err := Scaling(Options{}, "T99", []int{10}); err == nil {
		t.Error("unknown task should fail")
	}
}

func TestVariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sessions are slow")
	}
	var buf bytes.Buffer
	rows, err := Variance(Options{Scale: 0.03, Seed: 1, Strategy: "sim", Out: &buf}, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.AllCovered {
			t.Errorf("%s: a seed lost correct answers", r.Task)
		}
		if r.MinSuperset > r.MeanSuperset || r.MeanSuperset > r.MaxSuperset {
			t.Errorf("%s: spread out of order: %+v", r.Task, r)
		}
	}
}
