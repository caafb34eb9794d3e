package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenListing renders every file of dir as "name size sha256", one a
// line, in name order.
func goldenListing(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %x\n", filepath.Base(name), len(data), sha256.Sum256(data))
	}
	return b.String()
}

// TestWrittenBytesGolden: ingesting the sample pages, and committing a
// mutation that adds tokens, an update and a removal on top, writes
// exactly the bytes testdata/written.golden lists. The store's format
// carries token ids in first-seen order, so a change to how ingest or a
// commit tokenizes, interns or buffers shows here as a changed shard,
// tokens.idx or sidecar.
func TestWrittenBytesGolden(t *testing.T) {
	dir := t.TempDir()
	ids, raws := samplePages(25)
	buildStore(t, dir, ids, raws, 7)
	s, err := Open(dir, OpenOptions{FS: RealFS(false)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, err := s.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []error{
		m.Put("page-0003", "<title>Page 3 Revised</title><p>The <b>Gizmo Deluxe</b> costs <i>$99.95</i>.</p>"),
		m.Put("page-new", "<p>Zeta eta theta, <a href=\"http://shop/new\">alpha</a> Widget.</p>"),
		m.Remove("page-0010"),
	} {
		if op != nil {
			t.Fatal(op)
		}
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	got := goldenListing(t, dir)
	want, err := os.ReadFile(filepath.Join("testdata", "written.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("written files differ from testdata/written.golden:\ngot\n%swant\n%s", got, want)
	}
}
