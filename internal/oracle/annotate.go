package oracle

import (
	"sort"
	"strings"

	"iflex/internal/text"
)

// BAnnotate is the a-table algorithm of Section 4.3 (Figure 5): given an
// a-table and the set of annotated attribute names, it builds one index
// per annotated attribute keyed by the non-annotated value tuples, and
// emits one output a-tuple per key. It is the reference the engine's
// annotation over compact tables is checked against.
func BAnnotate(in *ATable, annotated []string) *ATable {
	isAnn := map[int]bool{}
	for _, a := range annotated {
		for i, c := range in.Cols {
			if c == a {
				isAnn[i] = true
			}
		}
	}
	var keyIdx, annIdx []int
	for i := range in.Cols {
		if isAnn[i] {
			annIdx = append(annIdx, i)
		} else {
			keyIdx = append(keyIdx, i)
		}
	}
	type entry struct {
		keySpans []text.Span
		values   []map[string]text.Span // per annotated col: value text -> span
		sure     bool
	}
	index := map[string]*entry{}
	var order []string

	var rec func(t ATuple, i int, keySpans []text.Span, keyParts []string, single bool)
	rec = func(t ATuple, i int, keySpans []text.Span, keyParts []string, single bool) {
		if i == len(keyIdx) {
			key := strings.Join(keyParts, "␟")
			e, ok := index[key]
			if !ok {
				e = &entry{keySpans: append([]text.Span(nil), keySpans...), values: make([]map[string]text.Span, len(annIdx))}
				for j := range e.values {
					e.values[j] = map[string]text.Span{}
				}
				index[key] = e
				order = append(order, key)
			}
			for j, ai := range annIdx {
				for _, v := range t.Cells[ai] {
					if _, ok := e.values[j][v.NormText()]; !ok {
						e.values[j][v.NormText()] = v
					}
				}
			}
			if single && !t.Maybe {
				e.sure = true
			}
			return
		}
		cell := t.Cells[keyIdx[i]]
		for _, v := range cell {
			rec(t, i+1, append(keySpans, v), append(keyParts, v.NormText()), single && len(cell) == 1)
		}
	}
	for _, t := range in.Tuples {
		rec(t, 0, nil, nil, true)
	}

	out := NewATable(in.Cols...)
	for _, key := range order {
		e := index[key]
		t := ATuple{Cells: make([]ACell, len(in.Cols)), Maybe: !e.sure}
		for i, ki := range keyIdx {
			t.Cells[ki] = ACell{e.keySpans[i]}
		}
		for j, ai := range annIdx {
			texts := make([]string, 0, len(e.values[j]))
			for txt := range e.values[j] {
				texts = append(texts, txt)
			}
			sort.Strings(texts)
			var vals ACell
			for _, txt := range texts {
				vals = append(vals, e.values[j][txt])
			}
			t.Cells[ai] = vals
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out
}
