package corpus

import (
	"slices"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/engine"
	"iflex/internal/markup"
	"iflex/internal/similarity"
)

func TestMoviesGeneration(t *testing.T) {
	c := Movies(MoviesConfig{Records: 50, Seed: 1})
	for _, name := range []string{"IMDB", "Ebert", "Prasanna"} {
		tb := c.Tables[name]
		if tb == nil || len(tb.Docs) != 50 {
			t.Fatalf("%s table = %+v", name, tb)
		}
		if tb.Pages != 1 {
			t.Errorf("%s pages = %d", name, tb.Pages)
		}
	}
	// Deterministic.
	c2 := Movies(MoviesConfig{Records: 50, Seed: 1})
	if c.Tables["IMDB"].Docs[0].Text() != c2.Tables["IMDB"].Docs[0].Text() {
		t.Error("generation not deterministic")
	}
	// Seed changes content.
	c3 := Movies(MoviesConfig{Records: 50, Seed: 2})
	if c.Tables["IMDB"].Docs[0].Text() == c3.Tables["IMDB"].Docs[0].Text() {
		t.Error("seed has no effect")
	}
}

func TestMoviesTruthsNonTrivial(t *testing.T) {
	c := Movies(MoviesConfig{Records: 100, Seed: 1})
	t1, t2, t3 := c.TruthT1(), c.TruthT2(), c.TruthT3(similarity.Similar)
	if len(t1) == 0 || len(t1) == 100 {
		t.Errorf("T1 truth size = %d", len(t1))
	}
	if len(t2) == 0 {
		t.Errorf("T2 truth size = %d", len(t2))
	}
	if len(t3) == 0 {
		t.Errorf("T3 truth size = %d (need 3-way overlap)", len(t3))
	}
}

func TestDBLPGeneration(t *testing.T) {
	c := DBLP(DBLPConfig{Records: 60, Seed: 1})
	for _, name := range []string{"GarciaMolina", "SIGMOD", "ICDE", "VLDB"} {
		if len(c.Tables[name].Docs) != 60 {
			t.Fatalf("%s docs = %d", name, len(c.Tables[name].Docs))
		}
	}
	if n := len(c.TruthT4()); n == 0 || n == 60 {
		t.Errorf("T4 truth = %d", n)
	}
	if n := len(c.TruthT5()); n == 0 || n == 60 {
		t.Errorf("T5 truth = %d", n)
	}
	if n := len(c.TruthT6(similarity.Similar)); n == 0 {
		t.Errorf("T6 truth = %d (need shared authors)", n)
	}
}

func TestBooksGeneration(t *testing.T) {
	c := Books(BooksConfig{Records: 80, Seed: 1})
	if len(c.Tables["Amazon"].Docs) != 80 || len(c.Tables["Barnes"].Docs) != 80 {
		t.Fatal("book table sizes wrong")
	}
	if n := len(c.TruthT7()); n == 0 {
		t.Errorf("T7 truth = %d", n)
	}
	if n := len(c.TruthT8()); n == 0 {
		t.Errorf("T8 truth = %d", n)
	}
	if n := len(c.TruthT9(similarity.Similar)); n == 0 {
		t.Errorf("T9 truth = %d (need store overlap)", n)
	}
	// Asymmetric store sizes, as in the paper's full scenario.
	c2 := Books(BooksConfig{AmazonRecords: 40, BarnesRecords: 70, Seed: 1})
	if len(c2.Tables["Amazon"].Docs) != 40 || len(c2.Tables["Barnes"].Docs) != 70 {
		t.Error("asymmetric sizes not honoured")
	}
}

func TestDBLifeGeneration(t *testing.T) {
	c := DBLife(DBLifeConfig{Pages: 100, Seed: 1})
	if len(c.Tables["docs"].Docs) != 100 {
		t.Fatal("page count wrong")
	}
	if len(c.DBLife.Panelists) == 0 || len(c.DBLife.Chairs) == 0 || len(c.DBLife.Projects) == 0 {
		t.Fatalf("DBLife truth empty: %+v", c.DBLife)
	}
	if len(c.DBLife.TruthPanel()) == 0 || len(c.DBLife.TruthChair()) == 0 || len(c.DBLife.TruthProject()) == 0 {
		t.Error("truth key sets empty")
	}
}

func TestStatsTable1Shape(t *testing.T) {
	c := Books(BooksConfig{AmazonRecords: 2490, BarnesRecords: 5000, Seed: 1})
	s := c.Stats()
	if len(s.Tables) != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// Table 1: Amazon 249 pages, Barnes 500... our page model: Amazon 10
	// records/page, Barnes 1 record/page scaled to the corpus.
	if s.Tables[0].Name != "Amazon" || s.Tables[0].Pages != 249 {
		t.Errorf("Amazon pages = %+v", s.Tables[0])
	}
	if s.Tables[1].Name != "Barnes" || s.Tables[1].Pages != 5000 {
		t.Errorf("Barnes pages = %+v", s.Tables[1])
	}
}

func TestTaskRegistry(t *testing.T) {
	tasks := Tasks()
	if len(tasks) != 9 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	for i, task := range tasks {
		want := "T" + string(rune('1'+i))
		if task.ID != want {
			t.Errorf("task %d id = %s", i, task.ID)
		}
		if task.Program == "" || task.Oracle == nil || task.Truth == nil {
			t.Errorf("task %s incomplete", task.ID)
		}
	}
	if _, err := TaskByID("T5"); err != nil {
		t.Error(err)
	}
	if _, err := TaskByID("T99"); err == nil {
		t.Error("unknown task should fail")
	}
	if len(DBLifeTasks()) != 3 {
		t.Error("DBLife tasks missing")
	}
}

func TestSupersetPercent(t *testing.T) {
	if got := SupersetPercent(50, 50); got != 100 {
		t.Errorf("100%% case = %v", got)
	}
	if got := SupersetPercent(98, 61); got < 160 || got > 161 {
		t.Errorf("T3 case = %v", got)
	}
	if got := SupersetPercent(0, 0); got != 100 {
		t.Errorf("empty case = %v", got)
	}
}

func TestUncoveredTruth(t *testing.T) {
	c := Movies(MoviesConfig{Records: 30, Seed: 1})
	task, err := TaskByID("T1")
	if err != nil {
		t.Fatal(err)
	}
	env := task.Env(c)
	// The unconstrained program: whole-record contain cells must still
	// cover every truth title (superset).
	prog := alog.MustParse(task.Program)
	res, err := engine.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if missing := UncoveredTruth(res, task.Truth(c)); len(missing) != 0 {
		t.Errorf("initial program uncovered: %v", missing)
	}
	// A joined key is covered part by part, in column order, by one tuple:
	// (Alice, VLDB) is; (Bob, SIGMOD) is not, though Bob and SIGMOD each
	// appear, and neither is (VLDB, Alice).
	d := markup.MustParse("p", "Alice VLDB Bob SIGMOD")
	w := func(i int) compact.Cell { return compact.ExactCell(d.WholeSpan().TokenSpan(i, i+1)) }
	tab := compact.NewTable("x", "y")
	tab.Tuples = []compact.Tuple{{Cells: []compact.Cell{w(0), w(1)}}, {Cells: []compact.Cell{w(2), w(1)}}, {Cells: []compact.Cell{w(0), w(3)}}}
	truth := map[string]bool{"Alice|VLDB": true, "Bob|SIGMOD": true, "VLDB|Alice": true, "Bob": true}
	if missing := UncoveredTruth(tab, truth); !slices.Equal(missing, []string{"Bob|SIGMOD", "VLDB|Alice"}) {
		t.Errorf("joined keys: missing %v, want [Bob|SIGMOD VLDB|Alice]", missing)
	}
}
