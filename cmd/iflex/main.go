// Command iflex executes an Alog program over document directories and
// prints the approximate result as a compact table.
//
// Usage:
//
//	iflex -program houses.alog -table housePages=./houses -table schoolPages=./schools
//
// Each -table flag binds an extensional predicate to a directory of .html
// pages (one tuple per page). The program's query predicate (rule named Q,
// or the last non-description rule) defines the result.
//
// -store binds a predicate to a sharded document store built by
// iflex-corpus -store instead of a page directory:
//
//	iflex -program panels.alog -store docs=./dblife.ifs
//
// Store pages load lazily (bounded by -store-budget) and, when exactly
// one store is bound, token prefilters and join blocking are served from
// its persistent inverted index; results are byte-identical to -table.
//
// With -interactive, the next-effort assistant drives a refinement session
// on the terminal: it asks feature questions ("is extractHouses.p
// bold-font?"), you answer yes / distinct-yes / no / a parameter value, or
// press enter for "I do not know", and the program is refined until
// convergence.
//
// Exit status:
//
//	0  clean run
//	1  error (bad program, unreadable tables, execution failure)
//	2  usage error
//	3  completed, but degraded: a -timeout expired or documents were
//	   quarantined, so the printed table is a best-effort partial result
//	   (the degradation summary goes to stderr)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"iflex"
	"iflex/internal/prof"
)

// tableFlags collects repeated -table pred=dir bindings.
type tableFlags map[string]string

func (t tableFlags) String() string { return fmt.Sprint(map[string]string(t)) }

func (t tableFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("want pred=dir, got %q", v)
	}
	t[parts[0]] = parts[1]
	return nil
}

func main() {
	degraded, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "iflex:", err)
		os.Exit(1)
	}
	if degraded {
		// Distinct from success and from failure: the table printed, but it
		// is a best-effort partial result. Scripts checking only for exit 0
		// used to treat degraded output as complete.
		os.Exit(3)
	}
}

// run executes the command and reports whether the result was degraded
// (deadline cuts or quarantined documents — exit status 3).
func run() (degraded bool, err error) {
	var (
		programPath = flag.String("program", "", "path to the Alog program (required)")
		tables      = tableFlags{}
		stores      = tableFlags{}
		storeBudget = flag.Int64("store-budget", 256<<20, "resident-memory budget in bytes for -store page content (0 = unlimited)")
		interactive = flag.Bool("interactive", false, "drive a refinement session with the next-effort assistant")
		strategy    = flag.String("strategy", "seq", "question selection strategy: seq or sim")
		workers     = flag.Int("workers", 0, "worker pool size for evaluation and simulation (0 = one per CPU, 1 = serial)")
		maxTuples   = flag.Int("max-print", 50, "print at most this many result tuples")
		explain     = flag.Bool("explain", false, "print an EXPLAIN ANALYZE tree: per-operator rows, timing, cache status and work counts, then the counter totals")
		timeout     = flag.Duration("timeout", 0, "best-effort deadline: on expiry print the partial result plus a degradation summary (0 = none)")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		tracePath   = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Var(tables, "table", "bind an extensional predicate to a directory of .html pages (pred=dir, repeatable)")
	flag.Var(stores, "store", "bind an extensional predicate to a sharded document store built by iflex-corpus -store (pred=dir, repeatable)")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile, *tracePath)
	if err != nil {
		return false, err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "iflex: profiling:", err)
		}
	}()

	if *programPath == "" || len(tables)+len(stores) == 0 {
		flag.Usage()
		return false, fmt.Errorf("-program and at least one -table or -store are required")
	}
	src, err := os.ReadFile(*programPath)
	if err != nil {
		return false, err
	}
	prog, err := iflex.ParseProgram(string(src))
	if err != nil {
		return false, err
	}
	env := iflex.NewEnv()
	for pred, dir := range tables {
		docs, err := iflex.LoadDocuments(dir)
		if err != nil {
			return false, err
		}
		env.AddDocTable(pred, "x", docs)
		fmt.Fprintf(os.Stderr, "loaded %d pages into %s\n", len(docs), pred)
	}
	for pred, dir := range stores {
		s, err := iflex.OpenStore(dir, *storeBudget)
		if err != nil {
			return false, err
		}
		defer s.Close()
		// The engine consults one index per environment; with several
		// stores bound it falls back to query-time tokenization (results
		// are identical either way).
		if len(stores) == 1 {
			env.BindStore(pred, "x", s)
		} else {
			env.AddDocTable(pred, "x", s.Docs())
		}
		fmt.Fprintf(os.Stderr, "opened store %s into %s: %d pages, %d index tokens\n",
			dir, pred, s.Len(), s.Vocab())
	}

	if !*interactive {
		plan, err := iflex.Compile(prog, env)
		if err != nil {
			return false, err
		}
		ctx := iflex.NewContext(env)
		ctx.Workers = *workers
		c := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			c, cancel = context.WithTimeout(c, *timeout)
			defer cancel()
		}
		result, err := plan.ExecuteContext(c, ctx)
		if err != nil {
			return false, err
		}
		if *explain {
			analyzed, err := plan.Explain(ctx)
			if err != nil {
				return false, err
			}
			fmt.Println(analyzed)
		}
		printDegraded(result.Degraded)
		printResult(result, *maxTuples)
		return result.Degraded != nil, nil
	}

	strat, err := iflex.StrategyByName(*strategy)
	if err != nil {
		return false, err
	}
	stdin := bufio.NewScanner(os.Stdin)
	oracle := iflex.InteractiveOracle(func(q iflex.Question) (string, bool) {
		fmt.Printf("%s (enter = I do not know): ", q)
		if !stdin.Scan() {
			return "", false
		}
		ans := strings.TrimSpace(stdin.Text())
		return ans, ans != ""
	})
	session := iflex.NewSession(env, prog, oracle, iflex.SessionConfig{
		Strategy: strat, Workers: *workers, Deadline: *timeout,
	})
	res, err := session.Run()
	if err != nil {
		return false, err
	}
	fmt.Printf("converged=%v after %d iterations, %d questions\n",
		res.Converged, len(res.Iterations), res.QuestionsAsked)
	fmt.Println("refined program:")
	fmt.Println(session.Program())
	printDegraded(res.Degraded)
	printResult(res.Final, *maxTuples)
	return res.Degraded != nil, nil
}

// printDegraded reports a best-effort degradation (deadline cuts,
// quarantined documents) on stderr; a nil report is a clean run.
func printDegraded(d *iflex.Degraded) {
	if d == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "degraded: %s\n", d.Summary())
}

func printResult(t *iflex.Table, limit int) {
	fmt.Printf("result: %d compact tuples (%d expanded)\n", len(t.Tuples), t.NumExpandedTuples())
	fmt.Printf("(%s)\n", strings.Join(t.Cols, ", "))
	n := min(max(limit, 0), len(t.Tuples))
	shown := &iflex.Table{Cols: t.Cols, Tuples: t.Tuples[:n]}
	shown.RenderRows(func(row string) { fmt.Println("  " + row) })
	if n < len(t.Tuples) {
		fmt.Printf("... %d more\n", len(t.Tuples)-n)
	}
}
