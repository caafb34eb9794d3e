// Package text defines the foundational data model for iFlex: documents,
// token-aligned spans, and assignments (the building blocks of compact
// tables, per Section 3 of the paper).
//
// A Document is plain text plus style "marks" (bold, italic, hyperlink,
// list item, title, section header, ...) produced by the markup parser.
// A Span is a byte range inside one document. Sub-spans are token-aligned:
// the set of sub-spans of a span is the set of contiguous token sequences
// it covers, which is exactly how the paper's Figure 2.e enumerates the
// possible values of contain("Cozy ... High").
//
// Documents come in two flavours sharing one type: eager documents
// (NewDocument) hold their content from construction, while lazy documents
// (NewLazyDocument) know only their ID and text length up front and
// materialize text, marks, and the token/line indexes on first access —
// the corpus-scale document store hands out lazy handles so a
// million-page corpus does not have to be resident to be queryable.
package text

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MarkKind identifies a style or structural region of a document.
type MarkKind int

// The mark kinds produced by the markup parser.
const (
	MarkBold MarkKind = iota
	MarkItalic
	MarkUnderline
	MarkLink
	MarkListItem
	MarkTitle
	MarkHeader // section header; its text is the "preceding label" of what follows
	numMarkKinds
)

var markNames = [...]string{
	MarkBold:      "bold",
	MarkItalic:    "italic",
	MarkUnderline: "underline",
	MarkLink:      "link",
	MarkListItem:  "list-item",
	MarkTitle:     "title",
	MarkHeader:    "header",
}

// String returns the human-readable name of the mark kind.
func (k MarkKind) String() string {
	if k < 0 || int(k) >= len(markNames) {
		return fmt.Sprintf("MarkKind(%d)", int(k))
	}
	return markNames[k]
}

// Mark is a styled or structural region [Start, End) of a document's text.
type Mark struct {
	Kind  MarkKind
	Start int
	End   int
}

// Link records a hyperlink region and its target URL.
type Link struct {
	Start  int
	End    int
	Target string
}

// Token is a whitespace-delimited token occupying [Start, End) of the text.
type Token struct {
	Start int
	End   int
}

// DocContent is the loadable content of a lazy document: the plain text
// plus the style marks and hyperlinks the markup parser produced.
type DocContent struct {
	Text  string
	Marks []Mark
	Links []Link
}

// LoadError is the panic value raised when a lazy document's content
// cannot be materialized (unreadable shard, checksum mismatch, text
// length drift). It unwinds like any per-document fault, so the engine's
// quarantine guard isolates the document instead of crashing.
type LoadError struct {
	Doc string
	Err error
}

func (e *LoadError) Error() string { return fmt.Sprintf("text: loading document %q: %v", e.Doc, e.Err) }
func (e *LoadError) Unwrap() error { return e.Err }

// docPayload is the materialized content of a document. It is immutable
// once published (swapped in behind an atomic pointer), so concurrent
// readers share it without locks; a lazy document may drop and later
// rebuild it — materialization is deterministic, so every rebuild is
// interchangeable.
type docPayload struct {
	text   string
	marks  []Mark   // sorted by Start
	tokens []Token  // sorted by Start, non-overlapping
	byKind [][]Mark // marks grouped by kind, each sorted by Start
	links  []Link   // hyperlink targets, sorted by Start

	lineStarts []int // offset of each line's first byte; lineStarts[0] == 0

	lowerOnce sync.Once
	lower     string // lazily computed strings.ToLower(text)
}

// Document is an immutable page of text with style marks and a token index.
// Construct with NewDocument or NewLazyDocument; the zero value is not
// usable. ID, Len, Span, and WholeSpan never touch the content; every
// other accessor materializes a lazy document on first use.
type Document struct {
	id      string
	textLen int
	// load, when non-nil, produces the document content on demand (lazy
	// documents); nil marks an eager document whose payload never drops.
	load func() (DocContent, error)

	mu      sync.Mutex // serializes materialization
	payload atomic.Pointer[docPayload]
}

// NewDocument builds a document from an id, its plain text, and style marks.
// Marks may be passed in any order; they are defensively copied and sorted.
func NewDocument(id, txt string, marks []Mark) *Document {
	d := &Document{id: id, textLen: len(txt)}
	d.payload.Store(buildPayload(txt, marks, nil))
	return d
}

// NewLazyDocument builds a document handle that materializes its content
// on first access. textLen must equal len(content.Text) of what load
// returns (recorded at ingest), so spans over the document can be built —
// and the whole-document span enumerated — without loading anything.
// load must be deterministic: a released document re-materializes through
// it and every rebuild must be identical. A load error (or a content
// whose text length disagrees with textLen) panics with *LoadError.
func NewLazyDocument(id string, textLen int, load func() (DocContent, error)) *Document {
	return &Document{id: id, textLen: textLen, load: load}
}

// buildPayload constructs the materialized content: defensively copied
// and sorted marks, the token and line indexes, and sorted links.
func buildPayload(txt string, marks []Mark, links []Link) *docPayload {
	p := &docPayload{text: txt}
	p.marks = make([]Mark, len(marks))
	copy(p.marks, marks)
	sort.SliceStable(p.marks, func(i, j int) bool {
		if p.marks[i].Start != p.marks[j].Start {
			return p.marks[i].Start < p.marks[j].Start
		}
		return p.marks[i].End > p.marks[j].End
	})
	p.byKind = make([][]Mark, numMarkKinds)
	for _, m := range p.marks {
		if m.Kind >= 0 && m.Kind < numMarkKinds {
			p.byKind[m.Kind] = append(p.byKind[m.Kind], m)
		}
	}
	p.tokenize()
	p.lineStarts = append(p.lineStarts, 0)
	for i := 0; i < len(txt); i++ {
		if txt[i] == '\n' {
			p.lineStarts = append(p.lineStarts, i+1)
		}
	}
	p.links = make([]Link, len(links))
	copy(p.links, links)
	sort.Slice(p.links, func(i, j int) bool { return p.links[i].Start < p.links[j].Start })
	return p
}

// content returns the materialized payload, loading it if necessary.
// Load failures panic with *LoadError: document content is read deep
// inside predicate and feature evaluation whose signatures carry no
// error, and the engine's per-document fault guard turns the panic into
// a quarantine of exactly this document.
func (d *Document) content() *docPayload {
	if p := d.payload.Load(); p != nil {
		return p
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p := d.payload.Load(); p != nil {
		return p
	}
	c, err := d.load()
	if err != nil {
		panic(&LoadError{Doc: d.id, Err: err})
	}
	if len(c.Text) != d.textLen {
		panic(&LoadError{Doc: d.id, Err: fmt.Errorf("content length %d != recorded length %d", len(c.Text), d.textLen)})
	}
	p := buildPayload(c.Text, c.Marks, c.Links)
	d.payload.Store(p)
	return p
}

// Loaded reports whether the document's content is currently resident.
func (d *Document) Loaded() bool { return d.payload.Load() != nil }

// Release drops a lazy document's materialized content so its memory can
// be reclaimed; the next access re-materializes through the load
// callback. Eager documents never release (their content has no other
// home); Release reports whether content was actually dropped. Spans and
// strings previously handed out remain valid — they keep the old payload
// alive until their own lifetimes end.
func (d *Document) Release() bool {
	if d.load == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.payload.Load() == nil {
		return false
	}
	d.payload.Store(nil)
	return true
}

// tokenize splits the text on whitespace — and additionally at mark
// boundaries, so that a style region always covers whole tokens even when
// punctuation abuts it ("<b>Basktall</b>," yields tokens "Basktall" and
// ",").
func (p *docPayload) tokenize() {
	boundary := make(map[int]bool, 2*len(p.marks))
	for _, m := range p.marks {
		boundary[m.Start] = true
		boundary[m.End] = true
	}
	inTok := false
	start := 0
	emit := func(end int) {
		p.tokens = append(p.tokens, Token{Start: start, End: end})
		inTok = false
	}
	for i := 0; i <= len(p.text); i++ {
		isSpace := i == len(p.text) || p.text[i] == ' ' || p.text[i] == '\t' || p.text[i] == '\n' || p.text[i] == '\r'
		switch {
		case !inTok && !isSpace:
			inTok = true
			start = i
		case inTok && isSpace:
			emit(i)
		case inTok && boundary[i]:
			emit(i)
			inTok = true
			start = i
		}
	}
}

// SetLinks attaches hyperlink targets (called by the markup parser during
// construction; the slice is copied and sorted by start offset). Lazy
// documents receive links through their DocContent instead.
func (d *Document) SetLinks(links []Link) {
	p := d.content()
	p.links = make([]Link, len(links))
	copy(p.links, links)
	sort.Slice(p.links, func(i, j int) bool { return p.links[i].Start < p.links[j].Start })
}

// Links returns the document's hyperlink targets, sorted by start offset.
// Do not modify the returned slice.
func (d *Document) Links() []Link { return d.content().links }

// LinkAt returns the link whose region contains offset, if any.
func (d *Document) LinkAt(offset int) (Link, bool) {
	for _, l := range d.content().links {
		if l.Start <= offset && offset < l.End {
			return l, true
		}
		if l.Start > offset {
			break
		}
	}
	return Link{}, false
}

// ID returns the document identifier (e.g. a file name or URL).
func (d *Document) ID() string { return d.id }

// Text returns the full plain text of the document.
func (d *Document) Text() string { return d.content().text }

// Len returns the length of the document text in bytes. It never loads a
// lazy document (the length is recorded at ingest).
func (d *Document) Len() int { return d.textLen }

// Tokens returns the document's token index. The slice must not be modified.
func (d *Document) Tokens() []Token { return d.content().tokens }

// Marks returns all style marks, sorted by start offset. Do not modify.
func (d *Document) Marks() []Mark { return d.content().marks }

// MarksOf returns the marks of one kind, sorted by start offset.
func (d *Document) MarksOf(k MarkKind) []Mark {
	if k < 0 || k >= numMarkKinds {
		return nil
	}
	return d.content().byKind[k]
}

// Span returns the span [start, end) of this document.
// It panics if the range is out of bounds or inverted.
func (d *Document) Span(start, end int) Span {
	if start < 0 || end > d.textLen || start > end {
		panic(fmt.Sprintf("text: span [%d,%d) out of range for doc %q (len %d)", start, end, d.id, d.textLen))
	}
	return Span{doc: d, start: start, end: end}
}

// WholeSpan returns the span covering the entire document.
func (d *Document) WholeSpan() Span { return Span{doc: d, start: 0, end: d.textLen} }

// tokenRange returns the indices [lo, hi) of tokens fully contained in
// [start, end). hi may equal lo when no token fits.
func (d *Document) tokenRange(start, end int) (lo, hi int) {
	tokens := d.content().tokens
	lo = sort.Search(len(tokens), func(i int) bool { return tokens[i].Start >= start })
	hi = lo
	for hi < len(tokens) && tokens[hi].End <= end {
		hi++
	}
	return lo, hi
}

// LineStart returns the byte offset of the first byte of the line
// containing offset (0 for the first line). Offsets past the text clamp
// to the last line. O(log lines) via the line-start index.
func (d *Document) LineStart(offset int) int {
	lineStarts := d.content().lineStarts
	i := sort.Search(len(lineStarts), func(i int) bool { return lineStarts[i] > offset })
	return lineStarts[i-1]
}

// LineEnd returns the byte offset just past the last byte of the line
// containing offset, excluding the newline itself.
func (d *Document) LineEnd(offset int) int {
	p := d.content()
	i := sort.Search(len(p.lineStarts), func(i int) bool { return p.lineStarts[i] > offset })
	if i < len(p.lineStarts) {
		return p.lineStarts[i] - 1 // byte before the next line's start is '\n'
	}
	return len(p.text)
}

// LowerText returns strings.ToLower of the full text, computed once per
// materialization. Callers doing case-insensitive offset arithmetic must
// check len(LowerText()) == Len(): Unicode case mapping can change byte
// length, in which case offsets do not line up and a per-window fold is
// needed.
func (d *Document) LowerText() string {
	p := d.content()
	p.lowerOnce.Do(func() { p.lower = strings.ToLower(p.text) })
	return p.lower
}

// HeaderBefore returns the closest header mark that ends at or before
// offset, and true if one exists. Used by the prec-label-* features.
func (d *Document) HeaderBefore(offset int) (Mark, bool) {
	hs := d.content().byKind[MarkHeader]
	i := sort.Search(len(hs), func(i int) bool { return hs[i].End > offset })
	if i == 0 {
		return Mark{}, false
	}
	return hs[i-1], true
}

// ResidentBytes estimates the memory a materialized document's payload
// occupies (text, token/byte indexes, marks, line starts) — the quantity
// the document store's resident-shard budget bounds. Returns 0 when the
// content is not resident.
func (d *Document) ResidentBytes() int64 {
	p := d.payload.Load()
	if p == nil {
		return 0
	}
	b := int64(len(p.text)) + int64(len(p.lower))
	b += int64(len(p.tokens)) * 16
	b += int64(len(p.marks)) * 24 * 2 // marks + byKind share entries but not headers
	b += int64(len(p.lineStarts)) * 8
	for _, l := range p.links {
		b += int64(len(l.Target)) + 24
	}
	return b
}

// normalizeSpace collapses runs of whitespace to single spaces and trims.
// A string that is already in that form is returned as is, without
// allocating; the result then aliases the argument (for Span.NormText, the
// page text).
func normalizeSpace(s string) string {
	if spaceNormalized(s) {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

// spaceNormalized reports whether s is ASCII with no whitespace but single
// interior spaces. It may say no to a normalised string (non-ASCII text,
// control bytes), never yes to one that is not.
func spaceNormalized(s string) bool {
	prevSpace := true // a leading space is a run to trim
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 || c < ' ' || (c == ' ' && prevSpace) {
			return false
		}
		prevSpace = c == ' '
	}
	return !prevSpace || s == ""
}
