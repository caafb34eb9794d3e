package oracle

import (
	"reflect"
	"testing"
)

// TestParseWorldRoundTrips: ParseWorld inverts Canonical on cell texts
// that hold the separators a line-based rendering would split on, and on
// empty cells and tuples.
func TestParseWorldRoundTrips(t *testing.T) {
	for _, w := range []World{
		{{"x␟y", "z"}, {"x", "y␟z"}},
		{{"a\nb", ""}, {"1:", "c"}},
		{{}, {"only"}},
	} {
		canon := w.Canonical()
		back := ParseWorld(canon)
		if back.Canonical() != canon {
			t.Fatalf("%q: parsed back to %q", canon, back.Canonical())
		}
		if len(back) != len(w) {
			t.Fatalf("%q: %d tuples, parsed %d", canon, len(w), len(back))
		}
	}
	if got := ParseWorld(World{{"x␟y", "z"}}.Canonical()); !reflect.DeepEqual(got, World{{"x␟y", "z"}}) {
		t.Fatalf("parsed %q", got)
	}
}
