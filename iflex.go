// Package iflex is a best-effort information extraction system, a from-
// scratch reproduction of "Toward Best-Effort Information Extraction"
// (Shen, DeRose, McCann, Doan, Ramakrishnan — SIGMOD 2008).
//
// Instead of writing precise procedural extractors up front, a developer
// writes an *approximate* program in Alog — a Datalog variant with
// possible-worlds annotations — runs it immediately, and refines it
// iteratively:
//
//	env := iflex.NewEnv()
//	env.AddDocTable("housePages", "x", docs)
//	prog, _ := iflex.ParseProgram(`
//	    houses(x, <p>) :- housePages(x), extractPrice(x, p).
//	    Q(x, p) :- houses(x, p), p > 500000.
//	    extractPrice(x, p) :- from(x, p), numeric(p) = yes.
//	`)
//	result, _ := iflex.Run(prog, env)       // an approximate superset
//	// ... examine, then refine:
//	prog.AddConstraint(iflex.AttrRef{Pred: "extractPrice", Var: "p"},
//	    "preceded-by", "Price:")
//	result, _ = iflex.Run(prog, env)        // narrower
//
// The refinement loop can be driven automatically by the next-effort
// assistant (NewSession), which picks the most useful question to ask
// ("is price in bold font?"), applies the answer as a domain constraint,
// and detects convergence.
//
// The package is a thin facade; the implementation lives in internal
// packages: alog (language), compact (approximate data model), engine
// (approximate query processor), assistant (next-effort assistant),
// feature (Verify/Refine text features), markup (page parsing).
package iflex

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/compact"
	"iflex/internal/engine"
	"iflex/internal/feature"
	"iflex/internal/markup"
	"iflex/internal/store"
	"iflex/internal/text"
)

// Re-exported core types. See the internal packages for full method
// documentation.
type (
	// Program is a parsed Alog program.
	Program = alog.Program
	// AttrRef names an extraction attribute (description-rule head variable).
	AttrRef = alog.AttrRef
	// Env binds extensional tables, p-functions, procedures and features.
	Env = engine.Env
	// Plan is a compiled execution plan over compact tables.
	Plan = engine.Plan
	// Context carries the reuse cache and subset filter across executions.
	Context = engine.Context
	// Table is a compact table (Section 3 of the paper).
	Table = compact.Table
	// Degraded reports best-effort degradation: deadline cuts (which
	// documents went unprocessed) and per-document quarantine. Attached
	// to result tables via Table.Degraded and SessionResult.Degraded.
	Degraded = compact.Degraded
	// QuarantineRecord names one quarantined document and why.
	QuarantineRecord = compact.QuarantineRecord
	// Document is a parsed page: text plus style marks.
	Document = text.Document
	// Span is a byte range of a document.
	Span = text.Span
	// Session drives the iterate-execute-refine loop with the assistant.
	Session = assistant.Session
	// SessionConfig tunes a session (strategy, convergence window, subset,
	// Workers pool size — results are byte-identical across worker counts).
	SessionConfig = assistant.Config
	// SessionResult is the outcome of a session run.
	SessionResult = assistant.Result
	// Question is a next-effort assistant question.
	Question = assistant.Question
	// Answer is a developer answer to a question.
	Answer = assistant.Answer
	// Oracle answers assistant questions.
	Oracle = assistant.Oracle
	// Feature is a pluggable text feature with Verify/Refine procedures.
	Feature = feature.Feature
	// Strategy selects the assistant's next questions.
	Strategy = assistant.Strategy
)

// StrategyByName resolves "seq" or "sim" to a Strategy.
func StrategyByName(name string) (Strategy, error) { return assistant.ByName(name) }

// ExplicitZero marks a SessionConfig field (Alpha, SubsetFraction) as a
// literal zero rather than "use the default".
const ExplicitZero = assistant.ExplicitZero

// Strategies for the next-effort assistant (Section 5.1).
var (
	// SequentialStrategy asks questions in a predefined importance order.
	SequentialStrategy = assistant.Sequential{}
	// SimulationStrategy simulates each candidate question and asks the one
	// with the smallest expected result size.
	SimulationStrategy = assistant.Simulation{}
)

// NewEnv returns an environment with the built-in feature library and the
// default similar/approxMatch p-functions.
func NewEnv() *Env { return engine.NewEnv() }

// ParseProgram parses Alog source (see the package example and
// internal/alog for the grammar).
func ParseProgram(src string) (*Program, error) { return alog.Parse(src) }

// MustParseProgram parses Alog source and panics on error.
func MustParseProgram(src string) *Program { return alog.MustParse(src) }

// Compile validates, unfolds and compiles a program against an environment.
func Compile(prog *Program, env *Env) (*Plan, error) { return engine.Compile(prog, env) }

// Run compiles and executes a program in a fresh context, returning the
// approximate result as a compact table (superset semantics: the set of
// possible relations it represents includes every relation the program
// defines).
func Run(prog *Program, env *Env) (*Table, error) { return engine.Run(prog, env) }

// NewContext returns an execution context whose reuse cache persists
// across iterations (Section 5.2). The context is safe for concurrent
// use: its cache deduplicates in-flight evaluations, and setting Workers
// (0 = one per CPU, 1 = serial) bounds every goroutine an evaluation on
// it runs on, the caller's included.
func NewContext(env *Env) *Context { return engine.NewContext(env) }

// NewSession prepares an assistant-driven refinement session.
func NewSession(env *Env, prog *Program, oracle Oracle, cfg SessionConfig) *Session {
	return assistant.NewSession(env, prog, oracle, cfg)
}

// ParseDocument parses one page of markup (a small HTML subset: b, i, u,
// a, li, title, h1-h3, p, div, br) into a Document.
func ParseDocument(id, src string) (*Document, error) { return markup.Parse(id, src) }

// LoadDocuments parses every *.html file under dir (sorted by name) into
// documents whose IDs are the file names.
func LoadDocuments(dir string) ([]*Document, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("iflex: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".html") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var docs []*Document
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("iflex: reading %s: %w", name, err)
		}
		d, err := markup.Parse(name, string(raw))
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// DocStore is a sharded, file-backed document store with a persistent
// inverted token index, built by iflex-corpus -store (or store.Create).
type DocStore = store.DiskStore

// OpenStore opens a document store for querying. residentBudget caps the
// estimated bytes of materialized page content kept in memory (0 =
// unlimited); pages beyond it are released and re-read on next touch.
// env.BindStore(pred, col, s) binds the store's pages and serves token
// prefilters and join blocking from the persistent index instead of
// tokenizing page text at query time; env.AddDocTable(pred, col, s.Docs())
// binds the pages alone (results are byte-identical either way).
func OpenStore(dir string, residentBudget int64) (*DocStore, error) {
	return store.Open(dir, store.OpenOptions{ResidentBudget: residentBudget})
}

// InteractiveOracle adapts a callback (e.g. a terminal prompt) into an
// Oracle. Return ok=false for "I do not know".
type InteractiveOracle func(q Question) (value string, ok bool)

// Answer implements Oracle.
func (f InteractiveOracle) Answer(q Question) Answer {
	v, ok := f(q)
	if !ok {
		return assistant.DontKnow()
	}
	return assistant.Know(v)
}

// AnswersOracle builds a fixed-answer oracle from attribute-keyed feature
// answers: map["extractPrice.p"]["bold-font"] = "yes". Questions without
// entries are answered "I do not know".
func AnswersOracle(answers map[string]map[string]string) Oracle {
	return assistant.NewMapOracle(answers)
}

// ExampleOracle answers assistant questions from developer-marked sample
// values: instead of answering "is price bold?" question by question, the
// developer highlights one or more example values per attribute and the
// oracle derives the feature answers by verification (the "more types of
// feedback" extension of Section 5.1.1).
func ExampleOracle(env *Env, examples map[AttrRef][]Span) Oracle {
	return assistant.NewExampleOracle(env.Features, examples)
}
