package corpus

import (
	"fmt"
	"sort"
	"strings"

	"iflex/internal/assistant"
	"iflex/internal/compact"
	"iflex/internal/engine"
	"iflex/internal/feature"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

// Task bundles everything one evaluation scenario needs: the initial Alog
// program (Table 2), the environment builder, the simulated developer
// (oracle) answering feature questions from how the generator formats the
// data, and the ground-truth result.
type Task struct {
	ID          string
	Domain      string
	Description string
	// Program is the initial Alog source (skeleton + empty-ish description
	// rules), mirroring Table 2.
	Program string
	// Tables lists the extensional tables the program reads.
	Tables []string
	// Generate builds the domain corpus at a given records-per-table size.
	Generate func(records int, seed int64) *Corpus
	// Oracle builds the simulated developer for this task.
	Oracle func() *assistant.MapOracle
	// Truth computes the correct result keys over a corpus.
	Truth func(c *Corpus) map[string]bool
}

// Env builds the engine environment binding the task's tables from a
// corpus.
func (t *Task) Env(c *Corpus) *engine.Env {
	env := engine.NewEnv()
	for _, name := range t.Tables {
		env.AddDocTable(name, "x", c.DocsOf(name))
	}
	return env
}

// boolBase fills correct answers for the boolean question features of an
// attribute: every feature in yes/distinctYes is answered accordingly,
// everything else in the boolean set is "no" except the ones listed in
// unknown. in-first-half is always unknown (record pages are tiny).
func boolBase(distinctYes, yes, unknown []string) map[string]string {
	boolFeatures := []string{
		"bold-font", "italic-font", "underlined", "hyperlinked",
		"in-list", "in-title", "numeric", "capitalized",
	}
	m := map[string]string{"in-first-half": feature.Unknown}
	for _, f := range boolFeatures {
		m[f] = feature.No
	}
	for _, f := range yes {
		m[f] = feature.Yes
	}
	for _, f := range distinctYes {
		m[f] = feature.DistinctYes
	}
	for _, f := range unknown {
		m[f] = feature.Unknown
	}
	return m
}

// with merges parametric answers into a boolean base.
func with(base map[string]string, extra map[string]string) map[string]string {
	for k, v := range extra {
		base[k] = v
	}
	return base
}

// Attribute answer profiles shared across tasks. Every profile states what
// a developer sees in the generated pages; wrong entries would break
// convergence-to-truth, which the corpus tests check end-to-end.
func boldTitleAnswers() map[string]string {
	return with(boolBase(
		[]string{"bold-font"}, []string{"in-list", "capitalized"}, nil),
		map[string]string{"max-tokens": "8", "max-length": "80"})
}

// Book titles contain lower-case connectives ("From Basics to Advanced"),
// so capitalized is genuinely "sometimes" -> unknown.
func bookBoldTitleAnswers() map[string]string {
	return with(boolBase(
		[]string{"bold-font"}, []string{"in-list"}, []string{"capitalized"}),
		map[string]string{"max-tokens": "10", "max-length": "90"})
}

func bookUnderlinedTitleAnswers() map[string]string {
	return with(boolBase(
		[]string{"underlined"}, []string{"in-list"}, []string{"capitalized"}),
		map[string]string{"max-tokens": "10", "max-length": "90"})
}

// paperTitleAnswers: paper titles contain lower-case connectives, so
// capitalized is genuinely "sometimes" -> unknown.
func paperTitleAnswers() map[string]string {
	return with(boolBase(
		[]string{"bold-font"}, []string{"in-list"}, []string{"capitalized"}),
		map[string]string{"max-tokens": "10", "max-length": "90"})
}

func labeledNumberAnswers(label string, extra map[string]string) map[string]string {
	m := with(boolBase(nil, []string{"in-list", "numeric", "capitalized"}, nil),
		map[string]string{"preceded-by": label, "max-tokens": "1"})
	return with(m, extra)
}

func italicAuthorsAnswers() map[string]string {
	return with(boolBase(
		[]string{"italic-font"}, []string{"in-list", "capitalized"}, nil),
		map[string]string{"preceded-by": "By"})
}

// Tasks returns the nine Table 2 tasks, in order.
func Tasks() []*Task {
	sim := similarity.Similar
	return []*Task{
		{
			ID: "T1", Domain: "Movies",
			Description: "IMDB top movies with fewer than 25,000 votes",
			Tables:      []string{"IMDB"},
			Generate:    func(n int, seed int64) *Corpus { return Movies(MoviesConfig{Records: n, Seed: seed}) },
			Program: `
imdbRec(x, <title>, <votes>) :- IMDB(x), extractIMDB(x, title, votes).
T1(title) :- imdbRec(x, title, votes), votes < 25000.
extractIMDB(x, title, votes) :- from(x, title), from(x, votes).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractIMDB.title": boldTitleAnswers(),
					"extractIMDB.votes": labeledNumberAnswers("Votes:",
						map[string]string{"min-value": "1000", "max-value": "500000"}),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.TruthT1() },
		},
		{
			ID: "T2", Domain: "Movies",
			Description: "Ebert top movies made between 1950 and 1970",
			Tables:      []string{"Ebert"},
			Generate:    func(n int, seed int64) *Corpus { return Movies(MoviesConfig{Records: n, Seed: seed}) },
			Program: `
ebertRec(x, <title>, <year>) :- Ebert(x), extractEbert(x, title, year).
T2(title) :- ebertRec(x, title, year), 1950 <= year, year < 1970.
extractEbert(x, title, year) :- from(x, title), from(x, year).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractEbert.title": boldTitleAnswers(),
					"extractEbert.year": labeledNumberAnswers("Made in:",
						map[string]string{"min-value": "1900", "max-value": "2010"}),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.TruthT2() },
		},
		{
			ID: "T3", Domain: "Movies",
			Description: "Movie titles that occur in IMDB, Ebert, and Prasanna's top movies",
			Tables:      []string{"IMDB", "Ebert", "Prasanna"},
			Generate:    func(n int, seed int64) *Corpus { return Movies(MoviesConfig{Records: n, Seed: seed}) },
			Program: `
ti(x, <t1>) :- IMDB(x), extractIMDBTitle(x, t1).
te(y, <t2>) :- Ebert(y), extractEbertTitle(y, t2).
tp(z, <t3>) :- Prasanna(z), extractPrasannaTitle(z, t3).
T3(t1) :- ti(x, t1), te(y, t2), tp(z, t3), similar(t1, t2), similar(t2, t3).
extractIMDBTitle(x, t) :- from(x, t).
extractEbertTitle(y, t) :- from(y, t).
extractPrasannaTitle(z, t) :- from(z, t).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractIMDBTitle.t":  boldTitleAnswers(),
					"extractEbertTitle.t": boldTitleAnswers(),
					// Prasanna titles are plain text: only the label and list
					// position pin them (the paper's T3 is a >100% outlier).
					"extractPrasannaTitle.t": with(boolBase(nil, []string{"in-list", "capitalized"}, nil),
						map[string]string{"preceded-by": "Movie:", "max-tokens": "8"}),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.TruthT3(sim) },
		},
		{
			ID: "T4", Domain: "DBLP",
			Description: "Garcia-Molina journal pubs",
			Tables:      []string{"GarciaMolina"},
			Generate:    func(n int, seed int64) *Corpus { return DBLP(DBLPConfig{Records: n, Seed: seed}) },
			Program: `
gmRec(x, <title>, <jy>) :- GarciaMolina(x), extractPublications(x, title, jy).
T4(title) :- gmRec(x, title, jy), jy != NULL.
extractPublications(x, title, jy) :- from(x, title), from(x, jy).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractPublications.title": paperTitleAnswers(),
					"extractPublications.jy": labeledNumberAnswers("Journal year:",
						map[string]string{"min-value": "1900", "max-value": "2010"}),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.TruthT4() },
		},
		{
			ID: "T5", Domain: "DBLP",
			Description: "VLDB short publications of 5 or fewer pages",
			Tables:      []string{"VLDB"},
			Generate:    func(n int, seed int64) *Corpus { return DBLP(DBLPConfig{Records: n, Seed: seed}) },
			Program: `
vldbRec(x, <title>, <fp>, <lp>) :- VLDB(x), extractVLDB(x, title, fp, lp).
T5(title) :- vldbRec(x, title, fp, lp), lp < fp + 5.
extractVLDB(x, title, fp, lp) :- from(x, title), from(x, fp), from(x, lp).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractVLDB.title": paperTitleAnswers(),
					"extractVLDB.fp": labeledNumberAnswers("Pages:",
						map[string]string{"followed-by": "-", "min-value": "1"}),
					"extractVLDB.lp": labeledNumberAnswers("-",
						map[string]string{"min-value": "1"}),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.TruthT5() },
		},
		{
			ID: "T6", Domain: "DBLP",
			Description: "SIGMOD/ICDE pubs sharing authors",
			Tables:      []string{"SIGMOD", "ICDE"},
			Generate:    func(n int, seed int64) *Corpus { return DBLP(DBLPConfig{Records: n, Seed: seed}) },
			Program: `
sg(x, <t1>, <a1>) :- SIGMOD(x), extractSIGMOD(x, t1, a1).
ic(y, <t2>, <a2>) :- ICDE(y), extractICDE(y, t2, a2).
T6(t1) :- sg(x, t1, a1), ic(y, t2, a2), similar(a1, a2).
extractSIGMOD(x, t, a) :- from(x, t), from(x, a).
extractICDE(y, t, a) :- from(y, t), from(y, a).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractSIGMOD.t": paperTitleAnswers(),
					"extractSIGMOD.a": italicAuthorsAnswers(),
					"extractICDE.t":   paperTitleAnswers(),
					"extractICDE.a":   italicAuthorsAnswers(),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.TruthT6(sim) },
		},
		{
			ID: "T7", Domain: "Books",
			Description: "B&N books with price over $100",
			Tables:      []string{"Barnes"},
			Generate:    func(n int, seed int64) *Corpus { return Books(BooksConfig{Records: n, Seed: seed}) },
			Program: `
bnRec(y, <title>, <bp>) :- Barnes(y), extractBarnes(y, title, bp).
T7(title) :- bnRec(y, title, bp), bp > 100.
extractBarnes(y, title, bp) :- from(y, title), from(y, bp).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractBarnes.title": bookUnderlinedTitleAnswers(),
					"extractBarnes.bp": labeledNumberAnswers("Our price:",
						map[string]string{"min-value": "1", "max-value": "300"}),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.TruthT7() },
		},
		{
			ID: "T8", Domain: "Books",
			Description: "Amazon books whose list price equals the new price and used price is less than the new price",
			Tables:      []string{"Amazon"},
			Generate:    func(n int, seed int64) *Corpus { return Books(BooksConfig{Records: n, Seed: seed}) },
			Program: `
amRec(x, <t>, <lp>, <np>, <up>) :- Amazon(x), extractAmazon(x, t, lp, np, up).
T8(t) :- amRec(x, t, lp, np, up), lp = np, up < np.
extractAmazon(x, t, lp, np, up) :- from(x, t), from(x, lp), from(x, np), from(x, up).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractAmazon.t":  bookBoldTitleAnswers(),
					"extractAmazon.lp": labeledNumberAnswers("List:", nil),
					"extractAmazon.np": labeledNumberAnswers("New:", nil),
					"extractAmazon.up": labeledNumberAnswers("Used:", nil),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.TruthT8() },
		},
		{
			ID: "T9", Domain: "Books",
			Description: "Books that are cheaper at Amazon than at Barnes",
			Tables:      []string{"Amazon", "Barnes"},
			Generate:    func(n int, seed int64) *Corpus { return Books(BooksConfig{Records: n, Seed: seed}) },
			Program: `
amT(x, <t1>, <np>) :- Amazon(x), extractAmazonT(x, t1, np).
bnT(y, <t2>, <bp>) :- Barnes(y), extractBarnesT(y, t2, bp).
T9(t1) :- amT(x, t1, np), bnT(y, t2, bp), similar(t1, t2), np < bp.
extractAmazonT(x, t, np) :- from(x, t), from(x, np).
extractBarnesT(y, t, bp) :- from(y, t), from(y, bp).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractAmazonT.t":  bookBoldTitleAnswers(),
					"extractAmazonT.np": labeledNumberAnswers("New:", nil),
					"extractBarnesT.t":  bookUnderlinedTitleAnswers(),
					"extractBarnesT.bp": labeledNumberAnswers("Our price:", nil),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.TruthT9(sim) },
		},
	}
}

// TaskByID returns one of the nine tasks.
func TaskByID(id string) (*Task, error) {
	for _, t := range Tasks() {
		if t.ID == id {
			return t, nil
		}
	}
	return nil, fmt.Errorf("corpus: unknown task %q", id)
}

// DBLifeTasks returns the three Section 6.3 programs (Table 6).
func DBLifeTasks() []*Task {
	gen := func(pages int, seed int64) *Corpus { return DBLife(DBLifeConfig{Pages: pages, Seed: seed}) }
	confAnswers := func() map[string]string {
		return with(boolBase(nil, []string{"in-title", "capitalized"}, nil),
			map[string]string{
				"starts-with": "[A-Z][A-Z]+",
				"ends-with":   `19\d\d|20\d\d`,
				"max-length":  "12",
				"max-tokens":  "2",
			})
	}
	return []*Task{
		{
			ID: "Panel", Domain: "DBLife",
			Description: "Find (x,y) where person x is a panelist at conference y",
			Tables:      []string{"docs"},
			Generate:    gen,
			Program: `
onPanel(d, x, <y>) :- docs(d), extractPanelists(d, x), extractConference(d, y).
Panel(x, y) :- onPanel(d, x, y).
extractPanelists(d, x) :- from(d, x).
extractConference(d, y) :- from(d, y).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractPanelists.x": with(boolBase([]string{"in-list"}, []string{"capitalized"}, nil),
						map[string]string{
							"prec-label-contains": "panel",
							"prec-label-max-dist": "700",
							"max-tokens":          "2",
							"max-length":          "30",
						}),
					"extractConference.y": confAnswers(),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.DBLife.TruthPanel() },
		},
		{
			ID: "Project", Domain: "DBLife",
			Description: "Find (x,y) where person x works on project y",
			Tables:      []string{"docs"},
			Generate:    gen,
			Program: `
worksOn(d, <x>, y) :- docs(d), extractOwner(d, x), extractProjects(d, y).
Project(x, y) :- worksOn(d, x, y).
extractOwner(d, x) :- from(d, x).
extractProjects(d, y) :- from(d, y).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractOwner.x": with(boolBase(nil, []string{"in-title", "capitalized"}, nil),
						map[string]string{"preceded-by": "Homepage of", "max-tokens": "2"}),
					"extractProjects.y": with(boolBase([]string{"italic-font"}, []string{"in-list", "capitalized"}, nil),
						map[string]string{"max-tokens": "1"}),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.DBLife.TruthProject() },
		},
		{
			ID: "Chair", Domain: "DBLife",
			Description: "Find (x,y,z) where person x is a chair of type y at conference z",
			Tables:      []string{"docs"},
			Generate:    gen,
			Program: `
chairAt(d, x, <ty>, <z>) :- docs(d), extractChairs(d, x), extractType(d, ty),
                            extractConference(d, z).
Chair(x, ty, z) :- chairAt(d, x, ty, z).
extractChairs(d, x) :- from(d, x).
extractType(d, ty) :- from(d, ty).
extractConference(d, z) :- from(d, z).
`,
			Oracle: func() *assistant.MapOracle {
				return assistant.NewMapOracle(map[string]map[string]string{
					"extractChairs.x": with(boolBase([]string{"bold-font"}, []string{"in-list", "capitalized"}, nil),
						map[string]string{"prec-label-contains": "committee", "max-tokens": "2"}),
					"extractType.ty": with(boolBase(nil, []string{"in-list", "capitalized"}, nil),
						map[string]string{"followed-by": "chair:", "max-tokens": "1"}),
					"extractConference.z": confAnswers(),
				})
			},
			Truth: func(c *Corpus) map[string]bool { return c.DBLife.TruthChair() },
		},
	}
}

// ResultKeys projects the result table onto its first column and returns
// the multiset of singleton value texts; ok is false when some cell is not
// a singleton (the result has not converged to exact values).
func ResultKeys(t *compact.Table) (map[string]int, bool) {
	out := map[string]int{}
	allExact := true
	for _, tp := range t.Expand().Tuples {
		v, ok := tp.Cells[0].Singleton()
		if !ok {
			allExact = false
			continue
		}
		out[normKey(v.NormText())]++
	}
	return out, allExact
}

// UncoveredTruth returns the truth keys not covered by any result tuple —
// the real superset-semantics check: a correct answer is lost only if no
// tuple can still take that value. A key is one value, which the first
// column must be able to take, or "|"-joined parts (the DBLife tasks),
// which one tuple's first columns must be able to take, in order.
func UncoveredTruth(t *compact.Table, truth map[string]bool) []string {
	var joined [][]string
	for k := range truth {
		if strings.Contains(k, "|") {
			joined = append(joined, strings.Split(k, "|"))
		}
	}
	covered := map[string]bool{}
	for _, tp := range t.Tuples {
		if len(tp.Cells) == 0 {
			continue
		}
		tp.Cells[0].Values(func(s text.Span) bool {
			if k := normKey(s.NormText()); truth[k] {
				covered[k] = true
			}
			return true
		})
		for _, parts := range joined {
			all := len(parts) <= len(tp.Cells)
			for i := 0; all && i < len(parts); i++ {
				all = false
				tp.Cells[i].Values(func(s text.Span) bool { all = normKey(s.NormText()) == parts[i]; return !all })
			}
			if all {
				covered[strings.Join(parts, "|")] = true
			}
		}
	}
	var missing []string
	for k := range truth {
		if !covered[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	return missing
}

// SupersetPercent computes the Tables 4/5 metric: result size relative to
// the correct size, in percent.
func SupersetPercent(resultTuples, correct int) float64 {
	if correct == 0 {
		if resultTuples == 0 {
			return 100
		}
		return float64(resultTuples+1) * 100
	}
	return 100 * float64(resultTuples) / float64(correct)
}

// KeysMatch reports whether the distinct result keys equal the truth set,
// and returns the sorted missing/extra keys for diagnostics.
func KeysMatch(keys map[string]int, truth map[string]bool) (missing, extra []string) {
	for k := range truth {
		if keys[k] == 0 {
			missing = append(missing, k)
		}
	}
	for k := range keys {
		if !truth[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return missing, extra
}
