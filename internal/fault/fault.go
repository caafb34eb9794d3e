// Package fault is a deterministic fault-injection harness for chaos
// testing the engine's best-effort execution paths. An Injector decides
// — purely from a seed and a (site, document) pair — whether a fault
// fires, so a chaos run is exactly reproducible: same seed, same rules,
// same corpus ⇒ same faults, at any worker count and in any schedule.
//
// The injector deliberately knows nothing about the engine. It produces
// one plain closure, a Hook compatible with engine.Env.FaultHook, which
// the engine calls at p-function, feature, and proc boundaries with the
// documents involved and at operator chunk boundaries with the chunk's
// key ("c" and its start index). Latency faults sleep; error faults
// return an error; panic faults panic — which is the point: chaos tests
// assert the engine survives all three and quarantines exactly the
// documents the injector targets.
package fault

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Mode selects what a matching rule does when it fires.
type Mode int

const (
	// ModeError makes the hook return an error.
	ModeError Mode = iota
	// ModePanic makes the hook panic.
	ModePanic
	// ModeLatency makes the hook sleep for the rule's Latency.
	ModeLatency
	// ModeTruncate is only meaningful for Mangle: the rule marks
	// documents whose source bytes should be deterministically
	// corrupted before parsing. Hooks ignore truncate rules.
	ModeTruncate
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeLatency:
		return "latency"
	case ModeTruncate:
		return "truncate"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Rule arms one fault at one site. A rule fires for a given document
// when hash(seed, site, doc) mod Den < Num — i.e. roughly Num/Den of
// all documents fault at that site, but which ones is a pure function
// of the seed, never of timing.
type Rule struct {
	// Site names the injection point: "pfunc", "feature", "proc",
	// "blockindex" for the guarded units, "chunk" for operator chunk
	// boundaries (keyed "c" and the chunk's start index, so the schedule
	// is deterministic for a fixed input size at any worker count).
	Site string
	// Mode is what happens when the rule fires.
	Mode Mode
	// Num/Den is the firing ratio. Den 0 is treated as 1 (always).
	Num, Den uint64
	// Latency is the sleep duration for ModeLatency rules.
	Latency time.Duration
}

// Injector decides deterministically which (site, document) pairs
// fault. Safe for concurrent use.
type Injector struct {
	seed  uint64
	rules []Rule

	disabled atomic.Bool
	// Injected counts faults actually fired (scheduling-independent
	// for error/panic modes when the engine retries deterministically).
	Injected atomic.Int64
}

// New builds an injector with the given seed and rules.
func New(seed uint64, rules ...Rule) *Injector {
	return &Injector{seed: seed, rules: append([]Rule(nil), rules...)}
}

// Disable turns the injector off; hooks become no-ops. Used by chaos
// tests to re-run the same context fault-free and compare.
func (in *Injector) Disable() { in.disabled.Store(true) }

// Enable turns the injector back on.
func (in *Injector) Enable() { in.disabled.Store(false) }

// hit reports whether the rule fires for key material s.
func (in *Injector) hit(r Rule, s string) bool {
	den := r.Den
	if den == 0 {
		den = 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", in.seed, r.Site, s)
	return h.Sum64()%den < r.Num
}

// match returns the first armed rule at site that fires for doc, or nil.
func (in *Injector) match(site, doc string) *Rule {
	if in.disabled.Load() {
		return nil
	}
	for i := range in.rules {
		r := &in.rules[i]
		if r.Site != site || r.Mode == ModeTruncate {
			continue
		}
		if in.hit(*r, doc) {
			return r
		}
	}
	return nil
}

// WillFault reports whether any non-truncate rule fires for (site, doc),
// ignoring the disabled flag — it describes the schedule, not the
// current state.
func (in *Injector) WillFault(site, doc string) bool {
	for i := range in.rules {
		r := &in.rules[i]
		if r.Site != site || r.Mode == ModeTruncate {
			continue
		}
		if in.hit(*r, doc) {
			return true
		}
	}
	return false
}

// FaultyDocs returns the sorted subset of ids that fault at site —
// the oracle a chaos test compares the engine's quarantine set against.
func (in *Injector) FaultyDocs(site string, ids []string) []string {
	var out []string
	for _, id := range ids {
		if in.WillFault(site, id) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Hook returns a closure for engine.Env.FaultHook. For each document
// involved in the guarded unit of work, the first matching rule fires:
// latency sleeps (then continues scanning), error returns, panic panics.
func (in *Injector) Hook() func(site string, docs []string) error {
	return func(site string, docs []string) error {
		for _, d := range docs {
			r := in.match(site, d)
			if r == nil {
				continue
			}
			switch r.Mode {
			case ModeLatency:
				in.Injected.Add(1)
				time.Sleep(r.Latency)
			case ModePanic:
				in.Injected.Add(1)
				panic(fmt.Sprintf("fault: injected panic at %s for doc %s", site, d))
			default:
				in.Injected.Add(1)
				return fmt.Errorf("fault: injected error at %s for doc %s", site, d)
			}
		}
		return nil
	}
}

// Mangle deterministically corrupts a document's source bytes when a
// ModeTruncate rule fires for (site "truncate", doc). The corruption
// shape is chosen by the same hash, so a given document is always
// mangled the same way:
//
//	0: truncate mid-way (possibly mid-tag)
//	1: inject NUL bytes into the middle
//	2: blow up the first tag with a megabyte-scale attribute
//
// Documents no rule fires for are returned unchanged.
func (in *Injector) Mangle(doc, src string) string {
	var fired *Rule
	for i := range in.rules {
		r := &in.rules[i]
		if r.Mode != ModeTruncate {
			continue
		}
		if in.hit(*r, doc) {
			fired = r
			break
		}
	}
	if fired == nil || len(src) == 0 {
		return src
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|mangle|%s", in.seed, doc)
	hv := h.Sum64()
	switch hv % 3 {
	case 0:
		cut := int(hv % uint64(len(src)))
		if cut == 0 {
			cut = len(src) / 2
		}
		return src[:cut]
	case 1:
		mid := len(src) / 2
		return src[:mid] + "\x00\x00\x00" + src[mid:]
	default:
		i := strings.IndexByte(src, '<')
		j := -1
		if i >= 0 {
			j = strings.IndexByte(src[i:], '>')
		}
		if j <= 0 {
			return src[:len(src)/2] + "\x00" + src[len(src)/2:]
		}
		attr := ` junk="` + strings.Repeat("A", 1<<20) + `"`
		return src[:i+j] + attr + src[i+j:]
	}
}
