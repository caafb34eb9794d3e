package engine

import (
	"iflex/internal/similarity"
	"iflex/internal/text"
)

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
