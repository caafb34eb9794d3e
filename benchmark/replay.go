package main

import (
	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/compact"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/feature"
	"iflex/internal/markup"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

// replayInput is what a workload hands to the layer replays: its own
// pages, program and last result, never inputs made up for the replay.
type replayInput struct {
	pages      []page
	programSrc string
	env        *engine.Env   // binds the tables the program reads
	converged  *alog.Program // the refined program the dialogue ended with
	final      *compact.Table
	oracle     *assistant.MapOracle
	workers    int
}

// replayLayers calls single layer functions directly on a workload's
// inputs, so that the traced pass can say what one page parse, one token
// comparison, one feature call or one rendered tuple costs. Replays run
// after the rounds and never feed an end-to-end metric.
func replayLayers(r *rec, in replayInput, maxPages int) error {
	pages := in.pages
	if len(pages) > maxPages {
		pages = pages[:maxPages]
	}

	// markup and text: parse each page, then rebuild and tokenize it.
	docs := make([]*text.Document, len(pages))
	srcBytes := 0
	for _, p := range pages {
		srcBytes += len(p.src)
	}
	for pass := 0; pass < 3; pass++ {
		if _, err := r.do("markup.parse", len(pages), func() error {
			for i, p := range pages {
				d, err := markup.Parse(p.id, p.src)
				if err != nil {
					return err
				}
				docs[i] = d
			}
			return nil
		}); err != nil {
			return err
		}
		r.add("markup.bytes", float64(srcBytes))
		tokens := 0
		r.do("text.tokenize", len(docs), func() error {
			for _, d := range docs {
				tokens += len(text.NewDocument(d.ID(), d.Text(), d.Marks()).Tokens())
			}
			return nil
		})
		r.add("text.tokens", float64(tokens))
	}

	// text and compact: render the final table's cells and tuples.
	tuples := in.final.Tuples
	cells := 0
	for _, tp := range tuples {
		cells += len(tp.Cells)
	}
	var sink int
	r.do("text.format_assignments", cells, func() error {
		for _, tp := range tuples {
			for _, c := range tp.Cells {
				sink += len(text.FormatAssignments(c.Assigns))
			}
		}
		return nil
	})
	r.do("compact.string", len(tuples), func() error { sink += len(in.final.String()); return nil })
	r.do("compact.canonical", len(tuples), func() error { sink += len(in.final.Canonical()); return nil })
	r.do("compact.fingerprint", len(tuples), func() error {
		for _, tp := range tuples {
			sink += int(tp.Fingerprint() & 1)
		}
		return nil
	})
	r.add("compact.mem_bytes_per_tuple", ratio(float64(in.final.MemBytes()), float64(len(tuples))))

	// similarity: tokenize the extracted first-column values (the titles)
	// and compare every pair, as the similarity join's verification does.
	var titles []string
	for _, tp := range tuples {
		tp.Cells[0].Values(func(s text.Span) bool {
			titles = append(titles, s.NormText())
			return len(titles) < 400
		})
		if len(titles) >= 400 {
			break
		}
	}
	toks := make([][]string, len(titles))
	r.do("similarity.tokens", len(titles), func() error {
		for i, t := range titles {
			toks[i] = similarity.NormalizedTokens(t)
		}
		return nil
	})
	matches := 0
	r.do("similarity.similar_tokens", len(toks)*len(toks), func() error {
		for _, a := range toks {
			for _, b := range toks {
				if similarity.SimilarTokens(a, b) {
					matches++
				}
			}
		}
		return nil
	})
	r.add("similarity.true_pairs", float64(matches))

	// feature: every answer the developer gave, refined over each page and
	// verified on what the refinement kept, through a cold memo.
	type fv struct{ name, value string }
	seen := map[fv]bool{}
	var answers []fv
	for _, m := range in.oracle.Answers {
		for name, value := range m {
			if k := (fv{name, value}); value != feature.Unknown && !seen[k] {
				seen[k] = true
				answers = append(answers, k)
			}
		}
	}
	memo := feature.NewMemo()
	var kept []text.Assignment
	var keptOf []fv
	refines := 0
	if _, err := r.do("feature.refine", len(docs)*len(answers), func() error {
		for _, a := range answers {
			f, err := in.env.Features.Lookup(a.name)
			if err != nil {
				return err
			}
			for _, d := range docs {
				as, _, err := memo.Refine(f, d.WholeSpan(), a.value)
				if err != nil {
					return err
				}
				refines++
				if len(as) > 0 {
					kept, keptOf = append(kept, as[0]), append(keptOf, a)
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := r.do("feature.verify", len(kept), func() error {
		for i, a := range kept {
			f, _ := in.env.Features.Lookup(keptOf[i].name)
			if _, _, err := memo.Verify(f, a.Span, keptOf[i].value); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// alog, engine and opt: parse, unfold, compile and optimize the initial
	// program; execute the converged one cold over the whole corpus.
	schema := in.env.Schema()
	for i := 0; i < 50; i++ {
		var prog *alog.Program
		if _, err := r.do("alog.parse", 1, func() (err error) { prog, err = alog.Parse(in.programSrc); return err }); err != nil {
			return err
		}
		if _, err := r.do("alog.unfold", 1, func() error { _, err := alog.Unfold(prog, schema); return err }); err != nil {
			return err
		}
		var plan *engine.Plan
		if _, err := r.do("engine.compile", 1, func() (err error) { plan, err = engine.Compile(prog, in.env); return err }); err != nil {
			return err
		}
		r.do("opt.optimize", 1, func() error { engine.OptimizePlan(plan, in.env, engine.OptOptions{}); return nil })
	}
	plan, err := engine.Compile(in.converged, in.env)
	if err != nil {
		return err
	}
	plan = engine.OptimizePlan(plan, in.env, engine.OptOptions{})
	for i := 0; i < 3; i++ {
		ctx := engine.NewContext(in.env)
		ctx.Workers = in.workers
		if _, err := r.do("engine.execute_full", 1, func() error { _, err := plan.Execute(ctx); return err }); err != nil {
			return err
		}
	}
	resultSink += uint64(sink)
	return nil
}

// replayDefaultWindow converges every corpus of a workload once more
// through the library under the product's default convergence window:
// the assistant stops once three iterations in a row leave the result's
// size unchanged. The measured rounds run with askEverything instead, so
// this is where the default stop is exercised and its cost recorded.
func replayDefaultWindow(r *rec, opt options, task *corpus.Task, pool []*corpus.Corpus, strategy assistant.Strategy, workers int) error {
	prog, err := alog.Parse(task.Program)
	if err != nil {
		return err
	}
	cfg := opt.sessionConfig(strategy, workers)
	cfg.ConvergenceWindow = 0
	for _, c := range pool {
		oracle := task.Oracle()
		session := newRec(r.ops) // keeps this session's steps out of the measured rounds' samples
		var res *assistant.Result
		if _, err := r.do("assistant.default_round", 1, func() (err error) {
			_, res, _, err = converge(session, func() *assistant.Session {
				return assistant.NewSession(task.Env(c), prog, oracle, cfg)
			}, oracle)
			return err
		}); err != nil {
			return err
		}
		checkSuperset(r.ops, task.ID+" under the default window", res, task.Truth(c))
		r.add("assistant.default_steps", session.med("assistant.steps"))
	}
	return nil
}
