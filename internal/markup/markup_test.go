package markup

import (
	"strings"
	"testing"

	"iflex/internal/text"
)

func markTexts(d *text.Document, k text.MarkKind) []string {
	var out []string
	for _, m := range d.MarksOf(k) {
		out = append(out, strings.Join(strings.Fields(d.Text()[m.Start:m.End]), " "))
	}
	return out
}

func TestParseBold(t *testing.T) {
	d := MustParse("p1", "Price: <b>$351,000</b> firm")
	if got := d.Text(); got != "Price: $351,000 firm" {
		t.Fatalf("text = %q", got)
	}
	bold := markTexts(d, text.MarkBold)
	if len(bold) != 1 || bold[0] != "$351,000" {
		t.Fatalf("bold marks = %v", bold)
	}
}

func TestParseNested(t *testing.T) {
	d := MustParse("p", "<b>bold <i>both</i></b> plain")
	if got := markTexts(d, text.MarkBold); len(got) != 1 || got[0] != "bold both" {
		t.Fatalf("bold = %v", got)
	}
	if got := markTexts(d, text.MarkItalic); len(got) != 1 || got[0] != "both" {
		t.Fatalf("italic = %v", got)
	}
}

func TestParseOverlappingClose(t *testing.T) {
	// <b>x <i>y</b> z</i>: closing b also closes i at that point.
	d := MustParse("p", "<b>x <i>y</i></b> z")
	if len(d.MarksOf(text.MarkBold)) != 1 || len(d.MarksOf(text.MarkItalic)) != 1 {
		t.Fatalf("marks = %+v", d.Marks())
	}
}

func TestParseListAndHeaders(t *testing.T) {
	src := `<h2>Top High Schools</h2><ul><li>Basktall, Cherry Hills</li><li>Franklin, Robeson</li></ul>`
	d := MustParse("y1", src)
	items := markTexts(d, text.MarkListItem)
	if len(items) != 2 || items[0] != "Basktall, Cherry Hills" {
		t.Fatalf("list items = %v", items)
	}
	hdrs := markTexts(d, text.MarkHeader)
	if len(hdrs) != 1 || hdrs[0] != "Top High Schools" {
		t.Fatalf("headers = %v", hdrs)
	}
	// Block tags must keep tokens from merging.
	if strings.Contains(d.Text(), "HillsFranklin") {
		t.Errorf("block boundary lost: %q", d.Text())
	}
}

func TestParseTitleAndLink(t *testing.T) {
	d := MustParse("p", `<title>IMDB Top 250</title><a href="http://x">The Godfather</a> (1972)`)
	if got := markTexts(d, text.MarkTitle); len(got) != 1 || got[0] != "IMDB Top 250" {
		t.Fatalf("title = %v", got)
	}
	if got := markTexts(d, text.MarkLink); len(got) != 1 || got[0] != "The Godfather" {
		t.Fatalf("link = %v", got)
	}
}

func TestParseEntities(t *testing.T) {
	d := MustParse("p", "Barnes &amp; Noble &lt;query&gt; &quot;db&quot; &#39;x&#39;&nbsp;end")
	want := `Barnes & Noble <query> "db" 'x' end`
	if d.Text() != want {
		t.Fatalf("text = %q, want %q", d.Text(), want)
	}
}

func TestParseUnknownTagsKept(t *testing.T) {
	d := MustParse("p", "<font color=red>hello</font> <blink>world</blink>")
	if !strings.Contains(d.Text(), "hello") || !strings.Contains(d.Text(), "world") {
		t.Fatalf("unknown-tag content lost: %q", d.Text())
	}
}

func TestParseStrayCloseIgnored(t *testing.T) {
	d := MustParse("p", "a</b>b</i>c")
	if d.Text() != "abc" {
		t.Fatalf("text = %q", d.Text())
	}
	if len(d.Marks()) != 0 {
		t.Fatalf("stray closes produced marks: %+v", d.Marks())
	}
}

func TestParseUnclosedAtEOF(t *testing.T) {
	d := MustParse("p", "start <b>never closed")
	bold := markTexts(d, text.MarkBold)
	if len(bold) != 1 || bold[0] != "never closed" {
		t.Fatalf("bold = %v", bold)
	}
}

func TestParseSelfClosingAndBr(t *testing.T) {
	d := MustParse("p", "line1<br>line2<br/>line3")
	if d.Text() != "line1\nline2\nline3" {
		t.Fatalf("text = %q", d.Text())
	}
}

func TestParseComment(t *testing.T) {
	d := MustParse("p", "keep <!-- drop this --> keep2")
	if strings.Contains(d.Text(), "drop") || !strings.Contains(d.Text(), "keep2") {
		t.Fatalf("comment handling: %q", d.Text())
	}
}

func TestParseUnterminatedTagErrors(t *testing.T) {
	if _, err := Parse("p", "hello <b world"); err == nil {
		t.Fatal("expected error for unterminated tag")
	}
}

func TestParseEmptyElementNoMark(t *testing.T) {
	d := MustParse("p", "a<b></b>c")
	if len(d.MarksOf(text.MarkBold)) != 0 {
		t.Fatalf("empty element should not produce a mark: %+v", d.Marks())
	}
}

func TestParseAttributesIgnored(t *testing.T) {
	d := MustParse("p", `<a href="http://example.com" target="_blank">link text</a>`)
	if got := markTexts(d, text.MarkLink); len(got) != 1 || got[0] != "link text" {
		t.Fatalf("link = %v", got)
	}
}

func TestParseCaseInsensitiveTags(t *testing.T) {
	d := MustParse("p", "<B>loud</B> quiet")
	if got := markTexts(d, text.MarkBold); len(got) != 1 || got[0] != "loud" {
		t.Fatalf("bold = %v", got)
	}
}

// BenchmarkMarkupParse parses one small page that carries every mark kind
// the features read: title, heading, list, bold, italic, hyperlink.
func BenchmarkMarkupParse(b *testing.B) {
	src := `<title>SIGMOD 2008</title><h2>Panel</h2><ul><li><b>Alice Anderson</b>, chair</li>
<li><i>Bob Baxter</i></li></ul><p>Held in <a href="x">Vancouver</a>.</p>`
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}
