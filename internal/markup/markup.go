// Package markup parses the small HTML-like page format used by the iFlex
// corpora into a text.Document: plain text plus style marks.
//
// The paper's domain constraints refer to appearance features of Web pages
// (bold-font, italic-font, underlined, hyperlinked, in-list, in-title,
// preceding section label). This package provides exactly the markup needed
// to carry those features, with a handwritten parser (no html package, per
// the from-scratch substrate rule):
//
//	<b> <i> <u>          bold / italic / underline
//	<a href="...">       hyperlink
//	<ul> <ol> <li>       lists (only <li> produces a mark)
//	<title>              page title
//	<h1> <h2> <h3>       section headers ("preceding labels")
//	<p> <div> <br>       structure; contribute whitespace only
//
// Entities &amp; &lt; &gt; &quot; &#39; are decoded. Unknown tags are
// skipped but their content is kept. Close tags that do not match an open
// tag are ignored; unclosed tags are closed at end of input.
package markup

import (
	"fmt"
	"strings"

	"iflex/internal/text"
)

// Parse converts markup source into a document with the given id.
// Hyperlink targets (href attributes) are preserved on the document.
func Parse(id, src string) (*text.Document, error) {
	c, err := ParseContent(id, src)
	if err != nil {
		return nil, err
	}
	d := text.NewDocument(id, c.Text, c.Marks)
	d.SetLinks(c.Links)
	return d, nil
}

// ParseContent converts markup source into raw document content without
// constructing a Document. The document store's ingest uses it to store
// each page parsed, so a load decodes the page instead of parsing it.
func ParseContent(id, src string) (text.DocContent, error) {
	p := parser{src: src}
	if err := p.run(); err != nil {
		return text.DocContent{}, fmt.Errorf("markup: parsing %s: %w", id, err)
	}
	return text.DocContent{Text: p.out.String(), Marks: p.marks, Links: p.links}, nil
}

// MustParse is Parse but panics on error; for tests and generators whose
// input is program-constructed.
func MustParse(id, src string) *text.Document {
	d, err := Parse(id, src)
	if err != nil {
		panic(err)
	}
	return d
}

type openTag struct {
	name   string
	kind   text.MarkKind
	start  int // offset in output text
	mark   bool
	target string // href for <a> tags
}

type parser struct {
	src   string
	pos   int
	out   strings.Builder
	marks []text.Mark
	links []text.Link
	stack []openTag
}

// tagKinds maps tag names to mark kinds. Tags present with mark=false are
// structural: recognised but produce no mark.
var tagKinds = map[string]struct {
	kind text.MarkKind
	mark bool
}{
	"b":      {text.MarkBold, true},
	"strong": {text.MarkBold, true},
	"i":      {text.MarkItalic, true},
	"em":     {text.MarkItalic, true},
	"u":      {text.MarkUnderline, true},
	"a":      {text.MarkLink, true},
	"li":     {text.MarkListItem, true},
	"title":  {text.MarkTitle, true},
	"h1":     {text.MarkHeader, true},
	"h2":     {text.MarkHeader, true},
	"h3":     {text.MarkHeader, true},
	"p":      {0, false},
	"div":    {0, false},
	"span":   {0, false},
	"ul":     {0, false},
	"ol":     {0, false},
	"table":  {0, false},
	"tr":     {0, false},
	"td":     {0, false},
	"body":   {0, false},
	"html":   {0, false},
	"head":   {0, false},
}

// blockTags separate their content from surroundings with newlines so that
// tokenization does not merge across structural boundaries.
var blockTags = map[string]bool{
	"li": true, "p": true, "div": true, "h1": true, "h2": true, "h3": true,
	"title": true, "tr": true, "table": true, "ul": true, "ol": true,
}

func (p *parser) run() error {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '<' {
			if err := p.tag(); err != nil {
				return err
			}
			continue
		}
		if c == '&' {
			p.entity()
			continue
		}
		p.out.WriteByte(c)
		p.pos++
	}
	// Close any tags left open at EOF.
	for len(p.stack) > 0 {
		p.close(p.stack[len(p.stack)-1].name)
	}
	return nil
}

// entity decodes an HTML entity at p.pos, or emits '&' literally.
func (p *parser) entity() {
	rest := p.src[p.pos:]
	for ent, r := range map[string]string{
		"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": `"`, "&#39;": "'", "&nbsp;": " ",
	} {
		if strings.HasPrefix(rest, ent) {
			p.out.WriteString(r)
			p.pos += len(ent)
			return
		}
	}
	p.out.WriteByte('&')
	p.pos++
}

// tag parses one <...> construct starting at p.pos.
func (p *parser) tag() error {
	end := strings.IndexByte(p.src[p.pos:], '>')
	if end < 0 {
		return fmt.Errorf("unterminated tag at offset %d", p.pos)
	}
	inner := p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1

	if strings.HasPrefix(inner, "!--") { // comment: skip to -->
		if i := strings.Index(p.src[p.pos:], "-->"); strings.HasSuffix(inner, "--") {
			// complete comment within one <...>; nothing to do
		} else if i >= 0 {
			p.pos += i + len("-->")
		} else {
			p.pos = len(p.src)
		}
		return nil
	}

	closing := strings.HasPrefix(inner, "/")
	name := inner
	if closing {
		name = inner[1:]
	}
	selfClose := strings.HasSuffix(name, "/")
	name = strings.TrimSuffix(name, "/")
	attrs := ""
	if i := strings.IndexAny(name, " \t\n"); i >= 0 {
		attrs = name[i+1:]
		name = name[:i]
	}
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return nil
	}
	if name == "br" {
		p.out.WriteByte('\n')
		return nil
	}
	info, known := tagKinds[name]
	if closing {
		if known {
			p.close(name)
		}
		if blockTags[name] {
			p.out.WriteByte('\n')
		}
		return nil
	}
	if blockTags[name] {
		p.out.WriteByte('\n')
	}
	if !known || selfClose {
		return nil
	}
	p.stack = append(p.stack, openTag{
		name:   name,
		kind:   info.kind,
		start:  p.out.Len(),
		mark:   info.mark,
		target: hrefAttr(attrs),
	})
	return nil
}

// hrefAttr extracts a quoted href="..." value from a tag's attribute text.
func hrefAttr(attrs string) string {
	i := strings.Index(strings.ToLower(attrs), "href=")
	if i < 0 {
		return ""
	}
	rest := attrs[i+len("href="):]
	if len(rest) == 0 {
		return ""
	}
	quote := rest[0]
	if quote != '"' && quote != '\'' {
		// Unquoted value: up to whitespace.
		if j := strings.IndexAny(rest, " \t\n"); j >= 0 {
			return rest[:j]
		}
		return rest
	}
	rest = rest[1:]
	if j := strings.IndexByte(rest, quote); j >= 0 {
		return rest[:j]
	}
	return ""
}

// close pops the innermost open tag with the given name, emitting its mark.
// Tags opened after it are closed (and marked) too, tolerating overlap like
// <b><i></b></i>.
func (p *parser) close(name string) {
	idx := -1
	for i := len(p.stack) - 1; i >= 0; i-- {
		if p.stack[i].name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // stray close tag
	}
	for i := len(p.stack) - 1; i >= idx; i-- {
		t := p.stack[i]
		if t.mark && p.out.Len() > t.start {
			p.marks = append(p.marks, text.Mark{Kind: t.kind, Start: t.start, End: p.out.Len()})
			if t.kind == text.MarkLink && t.target != "" {
				p.links = append(p.links, text.Link{Start: t.start, End: p.out.Len(), Target: t.target})
			}
		}
	}
	p.stack = p.stack[:idx]
}
