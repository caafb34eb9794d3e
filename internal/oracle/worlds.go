package oracle

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// A World is one possible relation: a multiset of concrete tuples, each a
// slice of normalised value texts. Tests enumerate them to check superset
// semantics on small inputs.
type World [][]string

// Canonical renders the world with tuples sorted, one per line, each cell
// as its text's byte length, ':' and the text, so cells and tuples decode
// unambiguously whatever bytes the texts hold.
func (w World) Canonical() string {
	lines := make([]string, len(w))
	for i, tp := range w {
		var b []byte
		for _, c := range tp {
			b = append(append(strconv.AppendInt(b, int64(len(c)), 10), ':'), c...)
		}
		lines[i] = string(b)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// ParseWorld is the inverse of Canonical.
func ParseWorld(canon string) World {
	if canon == "" {
		return nil
	}
	w := World{nil}
	for canon != "" {
		if canon[0] == '\n' {
			w, canon = append(w, nil), canon[1:]
			continue
		}
		n, rest, _ := strings.Cut(canon, ":")
		size, _ := strconv.Atoi(n)
		last := len(w) - 1
		w[last], canon = append(w[last], rest[:size]), rest[size:]
	}
	return w
}

// ErrTooManyWorlds is returned when enumeration would exceed the limit.
var ErrTooManyWorlds = fmt.Errorf("oracle: possible-worlds enumeration limit exceeded")

// Worlds enumerates every possible relation the a-table represents:
// (a) choose any subset of the maybe tuples plus all non-maybe tuples,
// (b) choose one value per cell of each chosen tuple (Section 3).
// The canonical rendering of each world is added to the result set.
// Enumeration fails with ErrTooManyWorlds once more than limit worlds
// would be produced.
func (a *ATable) Worlds(limit int) (map[string]bool, error) {
	out := make(map[string]bool)

	// valuations of one tuple: all concrete tuples it can denote.
	valuations := func(t ATuple) [][]string {
		acc := [][]string{nil}
		for _, cell := range t.Cells {
			if len(cell) == 0 {
				return nil // a cell with no possible value kills the tuple
			}
			var next [][]string
			for _, prefix := range acc {
				for _, v := range cell {
					row := make([]string, len(prefix)+1)
					copy(row, prefix)
					row[len(prefix)] = v.NormText()
					next = append(next, row)
				}
			}
			acc = next
		}
		return acc
	}

	perTuple := make([][][]string, len(a.Tuples))
	for i, t := range a.Tuples {
		perTuple[i] = valuations(t)
	}

	var rec func(i int, acc [][]string) error
	rec = func(i int, acc [][]string) error {
		if i == len(a.Tuples) {
			w := World(acc).Canonical()
			out[w] = true
			if len(out) > limit {
				return ErrTooManyWorlds
			}
			return nil
		}
		t := a.Tuples[i]
		if t.Maybe {
			// Option: exclude the tuple entirely.
			if err := rec(i+1, acc); err != nil {
				return err
			}
		}
		if len(perTuple[i]) == 0 {
			// A tuple with an empty cell is in no world: a maybe tuple's
			// worlds are the ones without it, a sure tuple has none.
			return nil
		}
		for _, row := range perTuple[i] {
			if err := rec(i+1, append(acc[:len(acc):len(acc)], row)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// IsSupersetOf reports whether every world in want appears in got — the
// paper's superset execution semantics: the computed set of possible
// relations must include every relation the program defines.
func IsSupersetOf(got, want map[string]bool) bool {
	for w := range want {
		if !got[w] {
			return false
		}
	}
	return true
}
