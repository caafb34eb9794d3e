package engine

import (
	"iflex/internal/compact"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

// Bounds summarises an approximate result as the interval the paper's
// Section 4 sketches as future execution semantics: alongside the
// superset (every tuple that may exist), the *certain* lower bound —
// tuples present in every possible relation the result represents.
type Bounds struct {
	// Certain contains the non-maybe tuples whose cells are all pinned to
	// single values: they appear in every possible world.
	Certain *compact.Table
	// Possible is the full superset result.
	Possible *compact.Table
}

// ResultBounds splits a result table into its certain core and the full
// superset. A tuple is certain when it is not maybe and every cell
// encodes exactly one value (expansion cells with one value count).
func ResultBounds(t *compact.Table) Bounds {
	certain := compact.NewTable(t.Cols...)
	for _, tp := range t.Tuples {
		if tp.Maybe {
			continue
		}
		pinned := true
		for _, c := range tp.Cells {
			if _, ok := c.Singleton(); !ok {
				pinned = false
				break
			}
		}
		if pinned {
			certain.Tuples = append(certain.Tuples, tp.Clone())
		}
	}
	return Bounds{Certain: certain, Possible: t}
}

// UseTFIDF rebinds the similar/approxMatch p-functions to TF/IDF cosine
// similarity with document statistics learned from the environment's
// extensional tables (the paper's approxMatch "e.g., TF/IDF"). The
// threshold is the cosine score at or above which spans match. TF/IDF
// cosine is not a Jaccard/prefix token similarity, so the p-functions
// declare none: a join on them is σ over ×, calling the opaque Fn.
func (e *Env) UseTFIDF(threshold float64) {
	var docsSeen []string
	seen := docSet{}
	for _, t := range e.Tables {
		for _, tp := range t.Tuples {
			for _, c := range tp.Cells {
				for _, a := range c.Assigns {
					id := a.Span.Doc().ID()
					if !seen[id] {
						seen[id] = true
						docsSeen = append(docsSeen, a.Span.Doc().Text())
					}
				}
			}
		}
	}
	ti := similarity.NewTFIDF(docsSeen)
	fn := func(args []text.Span) (bool, error) {
		if len(args) != 2 {
			return false, errArity{}
		}
		return ti.Cosine(args[0].NormText(), args[1].NormText()) >= threshold, nil
	}
	tfidf := PFunc{Fn: fn}
	e.Funcs["similar"], e.Funcs["approxMatch"] = tfidf, tfidf
}

type errArity struct{}

func (errArity) Error() string { return "engine: similar expects 2 arguments" }
