package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Spans are
// recorded from outside the program, around its public functions; a
// span's layer is its name up to the first dot.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Parent indexes the enclosing span in the trace's span list; -1 marks
	// a round, the root of one unit of user work.
	Parent int `json:"parent"`
	Round  int `json:"round"`
	// N is the batch size when the span covers a homogeneous batch of
	// calls (pages added, pages read, tokens decoded).
	N int `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, round, n int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.t0)), Parent: parent, Round: round, N: n})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// selfSeconds returns every span's self time: its duration minus the
// part its children cover.
func (t *tracer) selfSeconds() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		d := float64(s.EndNs-s.StartNs) / 1e9
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// roundShares splits the traced rounds' wall time by layer: each layer's
// self seconds inside rounds (replays excluded) and the rounds' total.
func (t *tracer) roundShares() (byLayer map[string]float64, total float64) {
	byLayer = map[string]float64{}
	for i, self := range t.selfSeconds() {
		if s := t.spans[i]; s.Round >= 0 {
			byLayer[layerOf(s.Name)] += self
			total += self
		}
	}
	return byLayer, total
}

// layerOf is the layer a span belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// write stores the trace as JSON: the span list, plus the traced rounds'
// self seconds by layer so that a reader need not recompute them.
func (t *tracer) write(path, workload string) error {
	byLayer, total := t.roundShares()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{
		"workload": workload, "round_seconds": total, "round_self_seconds_by_layer": byLayer, "spans": t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tally counts operations attempted and failed across all clients. A
// failed call, a refused session and a failed correctness check are all
// failed operations.
type tally struct {
	attempted, failed atomic.Int64
	logged            atomic.Int64
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	if t.logged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", args...)
	}
}

// check records one correctness check.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted.Add(1)
	if !ok {
		t.fail(format, args...)
	}
}

// rec collects one client's timings. Every call the harness makes into a
// layer goes through do, which always keeps the duration as a sample
// under the span name and, on traced rounds, also records a span.
type rec struct {
	samples map[string][]float64 // seconds per call, or one value per round
	batch   map[string]int       // summed batch sizes per span name
	// byCorpus holds per-round values by the corpus the round ran on, for
	// numbers that depend on the corpus and not on the machine.
	byCorpus map[string]map[int][]float64
	ops      *tally
	tr       *tracer // nil on untraced rounds
	round    int
	stack    []int // open span ids, innermost last
}

func newRec(ops *tally) *rec {
	return &rec{samples: map[string][]float64{}, batch: map[string]int{}, byCorpus: map[string]map[int][]float64{}, ops: ops}
}

// do times fn as one operation named name covering n units of work and
// counts it as attempted (and failed, when fn returns an error).
func (r *rec) do(name string, n int, fn func() error) (time.Duration, error) {
	id := -1
	if r.tr != nil {
		parent := -1
		if len(r.stack) > 0 {
			parent = r.stack[len(r.stack)-1]
		}
		id = r.tr.begin(name, parent, r.round, n)
		r.stack = append(r.stack, id)
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if id >= 0 {
		r.tr.end(id)
		r.stack = r.stack[:len(r.stack)-1]
	}
	r.samples[name] = append(r.samples[name], d.Seconds())
	r.batch[name] += n
	r.ops.attempted.Add(1)
	if err != nil {
		r.ops.fail("%s: %v", name, err)
	}
	return d, err
}

// add records a per-round value (a counter, or a derived duration).
func (r *rec) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// addFor records a per-round value of a round that ran on the given
// corpus.
func (r *rec) addFor(name string, corpus int, v float64) {
	if r.byCorpus[name] == nil {
		r.byCorpus[name] = map[int][]float64{}
	}
	r.byCorpus[name][corpus] = append(r.byCorpus[name][corpus], v)
}

// perCorpus is the mean over corpora of each corpus's median value. How
// many rounds a run completes depends on the machine; this does not, once
// every corpus has had a round.
func (r *rec) perCorpus(name string) float64 {
	var medians []float64
	for _, vs := range r.byCorpus[name] {
		medians = append(medians, median(vs))
	}
	return ratio(sum(medians), float64(len(medians)))
}

// merge folds another client's samples into r.
func (r *rec) merge(o *rec) {
	for k, v := range o.samples {
		r.samples[k] = append(r.samples[k], v...)
	}
	for k, v := range o.batch {
		r.batch[k] += v
	}
	for name, m := range o.byCorpus {
		for corpus, vs := range m {
			for _, v := range vs {
				r.addFor(name, corpus, v)
			}
		}
	}
}

// med is the median sample of name in seconds.
func (r *rec) med(name string) float64 { return median(r.samples[name]) }

// perUnit is the total time of name divided by its total batch size, in
// seconds per unit.
func (r *rec) perUnit(name string) float64 {
	return ratio(sum(r.samples[name]), float64(r.batch[name]))
}
