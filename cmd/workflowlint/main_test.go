package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A workflow whose second job lost its key: its name, runs-on and steps
// repeat inside the crash job, silently merging the two jobs into one.
const lostJobKey = `
jobs:
  crash:
    name: crash
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      # a comment
      - run: go test -run Crash ./...
    name: optimizer report
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
`

const clean = `
name: CI
on:
  push:
    branches: [main]
  pull_request:
jobs:
  a:
    name: first
    steps:
      - uses: actions/checkout@v4
        with:
          go-version: "1.24"
      - run: |
          name: not a key
          name: still not a key
      - run: make verify
        continue-on-error: true
  b:
    name: second
    steps:
      - run: echo "name: x"
      - name: quoted
        "with": 1
`

func TestDuplicateKeys(t *testing.T) {
	got := duplicateKeys(lostJobKey)
	if len(got) != 3 {
		t.Fatalf("want name, runs-on and steps flagged, got %q", got)
	}
	for i, key := range []string{"name", "runs-on", "steps"} {
		if !strings.Contains(got[i], `"`+key+`"`) {
			t.Errorf("problem %d = %q, want key %q", i, got[i], key)
		}
	}
	if got := duplicateKeys(clean); len(got) != 0 {
		t.Errorf("clean workflow flagged: %q", got)
	}
	if got := duplicateKeys("steps:\n  - run: a\n    run: b\n"); len(got) != 1 {
		t.Errorf("duplicate inside a sequence item not flagged: %q", got)
	}
}

// TestRepositoryWorkflows lints the workflows this repository ships.
func TestRepositoryWorkflows(t *testing.T) {
	files, err := filepath.Glob("../../.github/workflows/*.y*ml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range duplicateKeys(string(src)) {
			t.Errorf("%s:%s", f, p)
		}
	}
}
