package main

import (
	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
)

// convergeWorkload is the library path: a developer converges one task
// over one in-memory corpus per round. join_converge (T9) spends its time
// in the similarity join; extract_converge (T8) has no join and spends it
// in extraction, constraints and comparisons.
type convergeWorkload struct {
	opt     options
	task    *corpus.Task
	records int
	rounds  int // per run of runSeconds

	prog  *alog.Program
	pool  []*corpus.Corpus
	truth []map[string]bool

	// The last round's corpus and outcome, for the layer replays.
	lastK    int
	lastProg *alog.Program
	lastRes  *assistant.Result
}

func newConverge(opt options, taskID string, records, rounds int) (*convergeWorkload, error) {
	task, err := corpus.TaskByID(taskID)
	if err != nil {
		return nil, err
	}
	return &convergeWorkload{opt: opt, task: task, records: records, rounds: rounds}, nil
}

// setUp generates the corpora; generation parses every page.
func (w *convergeWorkload) setUp() error {
	w.pool = booksPool(w.task, w.records, w.opt.sz.pool, w.opt.seed)
	var err error
	w.prog, err = alog.Parse(w.task.Program)
	return err
}

func (w *convergeWorkload) prepare() error {
	w.truth = make([]map[string]bool, len(w.pool))
	for i, c := range w.pool {
		w.truth[i] = w.task.Truth(c)
	}
	return nil
}

func (w *convergeWorkload) measure(d *runData) error {
	return runSequential(d, w.opt.rounds(w.rounds), len(w.pool), func(k int, r *rec) error {
		c, oracle := w.pool[k], w.task.Oracle()
		s, res, _, err := converge(r, func() *assistant.Session {
			return assistant.NewSession(w.task.Env(c), w.prog, oracle, w.opt.sessionConfig(assistant.Simulation{}, w.opt.procs))
		}, oracle)
		if err != nil {
			return err
		}
		checkSuperset(r.ops, w.task.ID, res, w.truth[k])
		addEngineStats(r, k, s.StatsSnapshot())
		w.lastK, w.lastProg, w.lastRes = k, s.Program(), res
		return nil
	})
}

func (w *convergeWorkload) replay(r *rec) error {
	if err := replayDefaultWindow(r, w.opt, w.task, w.pool, assistant.Simulation{}, w.opt.procs); err != nil {
		return err
	}
	c := w.pool[w.lastK]
	return replayLayers(r, replayInput{
		pages: pagesOf(c), programSrc: w.task.Program, env: w.task.Env(c),
		converged: w.lastProg, final: w.lastRes.Final, oracle: w.task.Oracle(), workers: w.opt.procs,
	}, w.opt.sz.replayPages)
}

func (w *convergeWorkload) close() {}
