package store

import (
	"fmt"
	"testing"

	"iflex/internal/text"
)

func buildMutStore(t *testing.T, dir string, pages map[string]string, order []string) {
	t.Helper()
	w, err := Create(dir, Options{ShardDocs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range order {
		if err := w.Add(id, pages[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// postedIDs maps a token's postings to live document ids.
func postedIDs(t *testing.T, s *DiskStore, tok string) map[string]bool {
	t.Helper()
	ords, ok := s.TokenPostings(tok)
	if !ok {
		t.Fatalf("TokenPostings(%q) failed", tok)
	}
	out := map[string]bool{}
	for _, ord := range ords {
		out[s.meta[ord].id] = true
	}
	return out
}

func TestMutationGenerations(t *testing.T) {
	dir := t.TempDir()
	pages := map[string]string{
		"a": "<li><b>Alpha Systems</b><br>New: $10.00</li>",
		"b": "<li><b>Beta Design</b><br>New: $20.00</li>",
		"c": "<li><b>Gamma Theory</b><br>New: $30.00</li>",
		"d": "<li><b>Delta Rules</b><br>New: $40.00</li>",
	}
	buildMutStore(t, dir, pages, []string{"a", "b", "c", "d"})
	s, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	before := map[string]*text.Document{}
	for _, d := range s.Docs() {
		before[d.ID()] = d
	}

	m, err := s.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	// Update b, remove c, add e.
	if err := m.Put("b", "<li><b>Beta Redux</b><br>New: $25.00</li>"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("e", "<li><b>Epsilon Words</b><br>New: $50.00</li>"); err != nil {
		t.Fatal(err)
	}
	delta, err := m.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(delta.Added) != "[e]" || fmt.Sprint(delta.Updated) != "[b]" || fmt.Sprint(delta.Removed) != "[c]" {
		t.Fatalf("unexpected delta: %+v", delta)
	}

	check := func(s *DiskStore, label string) {
		t.Helper()
		var ids []string
		for _, d := range s.Docs() {
			ids = append(ids, d.ID())
		}
		if got := fmt.Sprint(ids); got != "[a b d e]" {
			t.Fatalf("%s: live view %v", label, got)
		}
		if s.Len() != 4 || s.NumDocs() != 6 {
			t.Fatalf("%s: Len=%d NumDocs=%d", label, s.Len(), s.NumDocs())
		}
		if got := postedIDs(t, s, "beta"); len(got) != 1 || !got["b"] {
			t.Fatalf("%s: postings for beta = %v", label, got)
		}
		if got := postedIDs(t, s, "redux"); len(got) != 1 || !got["b"] {
			t.Fatalf("%s: postings for redux = %v", label, got)
		}
		if got := postedIDs(t, s, "gamma"); len(got) != 0 {
			t.Fatalf("%s: postings for removed doc's token = %v", label, got)
		}
		if got := postedIDs(t, s, "new"); len(got) != 4 {
			t.Fatalf("%s: postings for shared token = %v", label, got)
		}
		// The updated record reads back the superseding content.
		b, ok := s.DocByID("b")
		if !ok {
			t.Fatalf("%s: DocByID(b) missing", label)
		}
		if toks, ok := s.BlockTokens(b); !ok || !contains(toks, "redux") {
			t.Fatalf("%s: BlockTokens(b) = %v %v", label, toks, ok)
		}
	}
	check(s, "in-place")

	// Unchanged documents keep their handles; the updated one does not.
	for _, d := range s.Docs() {
		switch d.ID() {
		case "a", "d":
			if before[d.ID()] != d {
				t.Fatalf("unchanged doc %q lost its handle", d.ID())
			}
		case "b":
			if before["b"] == d {
				t.Fatal("updated doc b kept its stale handle")
			}
		}
	}

	// A reopened store sees the same corpus.
	s2, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "reopened")

	// Second generation: remove the update target again.
	m2, err := s2.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := postedIDs(t, s2, "redux"); len(got) != 0 {
		t.Fatalf("postings after removing updated doc = %v", got)
	}
	s3, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	var ids []string
	for _, d := range s3.Docs() {
		ids = append(ids, d.ID())
	}
	if got := fmt.Sprint(ids); got != "[a d e]" {
		t.Fatalf("gen-2 reopen live view %v", got)
	}
	if s3.Generation() != 2 {
		t.Fatalf("generation = %d", s3.Generation())
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
