package store_test

// Crash-injection suite: the store's mutations run against a recording
// write-through filesystem (fault.CrashFS), then every disk state a
// power cut could leave behind — a kill at each write/sync/rename
// boundary, plus torn-write prefixes of every unsynced tail — is
// materialized and reopened. The invariant under test is all-or-
// nothing: Open must succeed and yield a corpus byte-identical to
// exactly generation G (the commit never happened) or G+1 (it fully
// happened) — never a mix, never a failed open. Ingest has the weaker
// contract that a crashed ingest is recoverable: Open refuses the
// unfinished directory and a fresh Create sweeps it.
//
// This file is an external test (package store_test) because fault
// imports store for the FS seam types.

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"iflex/internal/fault"
	"iflex/internal/similarity"
	"iflex/internal/store"
)

func crashPages() (map[string]string, []string) {
	return map[string]string{
		"a": "<li><b>Alpha Systems</b><br>New: $10.00</li>",
		"b": "<li><b>Beta Design</b><br>New: $20.00</li>",
		"c": "<li><b>Gamma Theory</b><br>New: $30.00</li>",
		"d": "<li><b>Delta Rules</b><br>New: $40.00</li>",
	}, []string{"a", "b", "c", "d"}
}

// ingest builds a fresh store at dir from the crash pages.
func ingest(t *testing.T, dir string, fsys store.FS) {
	t.Helper()
	pages, order := crashPages()
	w, err := store.Create(dir, store.Options{ShardDocs: 3, FS: fsys})
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

// corpusDump renders everything observable about a store into one
// string: manifest counts, the ordinal space, the live view's
// ids/ordinals/texts/token lists, and every vocabulary token's postings.
// Two stores with equal dumps are indistinguishable to the engine.
func corpusDump(t *testing.T, s *store.DiskStore) string {
	t.Helper()
	var b strings.Builder
	man := s.Manifest()
	fmt.Fprintf(&b, "gen=%d docs=%d shards=%d vocab=%d base=%d ordinals=%d\n",
		man.Generation, man.Docs, man.Shards, man.Vocab, man.BaseDocs, s.NumDocs())
	for _, d := range s.Docs() {
		ord, ok := s.DocOrdinal(d)
		if !ok {
			t.Fatalf("DocOrdinal(%s) failed", d.ID())
		}
		fmt.Fprintf(&b, "doc %s ord=%d len=%d text=%q\n", d.ID(), ord, d.Len(), d.Text())
		bt, ok := s.BlockTokens(d)
		if !ok {
			t.Fatalf("BlockTokens(%s) failed", d.ID())
		}
		ids, ok := s.TokenIDs(d)
		if !ok {
			t.Fatalf("TokenIDs(%s) failed", d.ID())
		}
		toks := make([]string, len(ids))
		for i, id := range ids {
			toks[i] = s.Token(id)
		}
		if want := similarity.Tokens(d.Text()); !slices.Equal(toks, want) {
			t.Fatalf("%s: token ids name %v, the text has %v", d.ID(), toks, want)
		}
		fmt.Fprintf(&b, "  block=%v tokens=%v\n", bt, toks)
	}
	for _, tok := range s.SortedTokens() {
		ords, ok := s.TokenPostings(tok)
		if !ok {
			t.Fatalf("TokenPostings(%q) failed", tok)
		}
		fmt.Fprintf(&b, "tok %q -> %v\n", tok, ords)
	}
	return b.String()
}

func openDump(t *testing.T, dir string) string {
	t.Helper()
	s, err := store.Open(dir, store.OpenOptions{FS: store.RealFS(false)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return corpusDump(t, s)
}

// crashMutationScenario commits one mutation through a CrashFS on a
// store at generation preGens and checks every enumerated crash state.
func crashMutationScenario(t *testing.T, preGens int) {
	dir := filepath.Join(t.TempDir(), "store")
	ingest(t, dir, nil)

	// Advance to the scenario's starting generation (real fs, no record).
	if preGens >= 1 {
		s, err := store.Open(dir, store.OpenOptions{FS: store.RealFS(false)})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.BeginMutation()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Put("b", "<li><b>Beta Redux</b><br>New: $25.00</li>"); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove("c"); err != nil {
			t.Fatal(err)
		}
		if err := m.Put("e", "<li><b>Epsilon Words</b><br>New: $50.00</li>"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	refG := openDump(t, dir)

	// The recorded commit: the first-generation scenario updates,
	// removes, and adds; the second removes a previously updated doc.
	cfs, err := fault.NewCrashFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, store.OpenOptions{FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	if preGens == 0 {
		if err := m.Put("b", "<li><b>Beta Redux</b><br>New: $25.00</li>"); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove("c"); err != nil {
			t.Fatal(err)
		}
		if err := m.Put("e", "<li><b>Epsilon Words</b><br>New: $50.00</li>"); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := m.Remove("b"); err != nil {
			t.Fatal(err)
		}
		if err := m.Put("f", "<li><b>Zeta Crash</b><br>New: $60.00</li>"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	// Commit applies the generation in place; Open replays it from the
	// sidecar. Both must leave the same store.
	committed := corpusDump(t, s)
	s.Close()
	refG1 := openDump(t, dir)
	if refG1 == refG {
		t.Fatal("mutation changed nothing; scenario is vacuous")
	}
	if committed != refG1 {
		t.Fatalf("the committed store differs from its reopening:\n--- committed ---\n%s--- reopened ---\n%s", committed, refG1)
	}

	states := cfs.States(0)
	if len(states) < 10 {
		t.Fatalf("only %d crash states enumerated (ops: %v)", len(states), cfs.OpLog())
	}
	scratch := t.TempDir()
	var sawG, sawG1, swept int
	for i, st := range states {
		sdir := filepath.Join(scratch, fmt.Sprintf("state-%04d", i))
		if err := st.Materialize(sdir); err != nil {
			t.Fatalf("state %q: materialize: %v", st.Desc, err)
		}
		rs, err := store.Open(sdir, store.OpenOptions{FS: store.RealFS(false)})
		if err != nil {
			t.Fatalf("state %q: Open failed after crash: %v", st.Desc, err)
		}
		var want string
		switch g := rs.Generation(); g {
		case preGens:
			want = refG
			sawG++
		case preGens + 1:
			want = refG1
			sawG1++
		default:
			t.Fatalf("state %q: recovered to generation %d, want %d or %d",
				st.Desc, g, preGens, preGens+1)
		}
		got, notes := corpusDump(t, rs), rs.Recovery()
		rs.Close()
		if got != want {
			t.Fatalf("state %q: recovered corpus differs from its generation's reference:\n--- got ---\n%s--- want ---\n%s",
				st.Desc, got, want)
		}
		if slices.ContainsFunc(notes, func(n string) bool { return strings.HasPrefix(n, "swept orphan") }) {
			recoverUnderCrash(t, st, rs.Generation(), want)
			swept++
		}
		// Recovery must be idempotent: a second open repairs nothing new
		// and sees the same corpus.
		rs2, err := store.Open(sdir, store.OpenOptions{FS: store.RealFS(false)})
		if err != nil {
			t.Fatalf("state %q: second Open failed: %v", st.Desc, err)
		}
		if notes := rs2.Recovery(); len(notes) != 0 {
			t.Fatalf("state %q: second open still repairing: %v", st.Desc, notes)
		}
		if got2 := corpusDump(t, rs2); got2 != want {
			t.Fatalf("state %q: corpus drifted across reopens", st.Desc)
		}
		rs2.Close()
	}
	if sawG == 0 || sawG1 == 0 {
		t.Fatalf("enumeration never exercised both outcomes: %d states at gen %d, %d at gen %d",
			sawG, preGens, sawG1, preGens+1)
	}
	if swept == 0 {
		t.Fatal("no crash state's reopen swept an orphan: recovery itself was never crashed")
	}
}

// recoverUnderCrash crashes the recovery of st: it reopens st through a
// CrashFS, so that the reopen's own removes (the orphan sweep) and
// writes (a rollback's manifest) are recorded, and requires every state a
// power cut during that reopen could leave to reopen to gen and the
// corpus want, which the first recovery of st reached.
func recoverUnderCrash(t *testing.T, st fault.CrashState, gen int, want string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	if err := st.Materialize(dir); err != nil {
		t.Fatalf("state %q: materialize: %v", st.Desc, err)
	}
	cfs, err := fault.NewCrashFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, store.OpenOptions{FS: cfs})
	if err != nil {
		t.Fatalf("state %q: Open through a CrashFS failed: %v", st.Desc, err)
	}
	got, g := corpusDump(t, s), s.Generation()
	s.Close()
	if g != gen || got != want {
		t.Fatalf("state %q: recovery through a CrashFS reached generation %d, want %d, or another corpus", st.Desc, g, gen)
	}
	ops := cfs.OpLog()
	if !slices.ContainsFunc(ops, func(op string) bool { return strings.HasPrefix(op, "remove ") }) {
		t.Fatalf("state %q: the sweeping reopen recorded no remove: %v", st.Desc, ops)
	}
	scratch := t.TempDir()
	for i, rst := range cfs.States(0) {
		sdir := filepath.Join(scratch, fmt.Sprintf("state-%04d", i))
		if err := rst.Materialize(sdir); err != nil {
			t.Fatalf("state %q, recovery %q: materialize: %v", st.Desc, rst.Desc, err)
		}
		rs, err := store.Open(sdir, store.OpenOptions{FS: store.RealFS(false)})
		if err != nil {
			t.Fatalf("state %q, recovery %q: Open failed: %v\nrecovery ops: %v", st.Desc, rst.Desc, err, ops)
		}
		got, g := corpusDump(t, rs), rs.Generation()
		rs.Close()
		if g != gen || got != want {
			t.Fatalf("state %q, recovery %q: reopened to generation %d, want %d, or another corpus:\n--- got ---\n%s--- want ---\n%s",
				st.Desc, rst.Desc, g, gen, got, want)
		}
	}
}

func TestCrashMutationCommit(t *testing.T)         { crashMutationScenario(t, 0) }
func TestCrashSecondGenerationCommit(t *testing.T) { crashMutationScenario(t, 1) }

// TestCrashIngest kills the initial ingest at every boundary. A store
// is only readable once the manifest appears — and the manifest is
// published last, so every state either opens as the complete corpus
// or refuses to open; in the latter case a fresh Create must sweep the
// leftovers and re-ingest to the exact same corpus.
func TestCrashIngest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfs, err := fault.NewCrashFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, dir, cfs)
	ref := openDump(t, dir)

	scratch := t.TempDir()
	var complete, recovered int
	for i, st := range cfs.States(0) {
		sdir := filepath.Join(scratch, fmt.Sprintf("state-%04d", i))
		if err := st.Materialize(sdir); err != nil {
			t.Fatalf("state %q: materialize: %v", st.Desc, err)
		}
		s, err := store.Open(sdir, store.OpenOptions{FS: store.RealFS(false)})
		if err == nil {
			got := corpusDump(t, s)
			s.Close()
			if got != ref {
				t.Fatalf("state %q: opened but differs from the completed ingest", st.Desc)
			}
			complete++
			continue
		}
		// Unreadable: the crash predates the manifest publish. Re-ingest
		// over the debris must work and match.
		ingest(t, sdir, nil)
		if got := openDump(t, sdir); got != ref {
			t.Fatalf("state %q: re-ingest after crash differs from reference", st.Desc)
		}
		recovered++
	}
	if complete == 0 || recovered == 0 {
		t.Fatalf("enumeration never exercised both outcomes: %d complete, %d recovered", complete, recovered)
	}
}
