package store

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// readDir returns every file of dir by name.
func readDir(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// overclaimed returns manifest b claiming one generation more than the
// store has, a new shard included, with the base as it is.
func overclaimed(t testing.TB, b []byte) []byte {
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	if man.Generation == 0 {
		man.BaseDocs = man.Docs
	}
	man.Generation++
	out, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzOpenManifest: whatever the manifest says about a store's files, Open
// either fails and leaves every file of the directory byte-identical, or
// succeeds and leaves a store that opens again; it never panics, and what it allocates is in proportion to the
// directory. The manifest sits over one of two stores — fresh from a
// Writer, or after one committed mutation (a second shard and a delta
// sidecar) — and the seeds are their manifests as written and, as
// overclaimed, one generation ahead: Open used to "roll back" that
// generation through the last shard it found, the base shard of a fresh
// store, sweep it, and succeed over a store that then failed to reopen.
func FuzzOpenManifest(f *testing.F) {
	fresh, committed := f.TempDir(), f.TempDir()
	for _, dir := range []string{fresh, committed} {
		w, err := Create(dir, Options{FS: RealFS(false)})
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range [][2]string{{"p", "<b>x</b> y"}, {"q", "z <i>w</i>"}} {
			if err := w.Add(p[0], p[1]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
	}
	s, err := Open(committed, OpenOptions{FS: RealFS(false)})
	if err != nil {
		f.Fatal(err)
	}
	m, err := s.BeginMutation()
	if err != nil {
		f.Fatal(err)
	}
	if err := m.Put("q", "new <b>z</b>"); err != nil {
		f.Fatal(err)
	}
	if err := m.Put("r", "added"); err != nil {
		f.Fatal(err)
	}
	if err := m.Remove("p"); err != nil {
		f.Fatal(err)
	}
	if _, err := m.Commit(); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	stores := [2]map[string][]byte{readDir(f, fresh), readDir(f, committed)}
	f.Add(false, stores[0][manifestName])
	f.Add(true, stores[1][manifestName])
	f.Add(false, []byte(overclaimed(f, stores[0][manifestName])))
	f.Add(true, []byte(overclaimed(f, stores[1][manifestName])))
	f.Fuzz(func(t *testing.T, afterCommit bool, manifest []byte) {
		files := maps.Clone(stores[0])
		if afterCommit {
			files = maps.Clone(stores[1])
		}
		files[manifestName] = manifest
		size := 0
		for _, b := range files {
			size += len(b)
		}
		dir := t.TempDir()
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir, OpenOptions{FS: RealFS(false)})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(size)+1<<20 {
			t.Fatalf("allocated %d bytes opening a %d-byte store", grew, size)
		}
		if err == nil {
			// What Open repaired must be a store, not a directory it can no
			// longer open.
			recovery := s.Recovery()
			s.Close()
			if s, err = Open(dir, OpenOptions{FS: RealFS(false)}); err != nil {
				t.Fatalf("Open succeeded (%v), then the store it left failed to open: %v", recovery, err)
			}
			s.Close()
			return
		}
		got := readDir(t, dir)
		var changed []string
		for name, b := range files {
			if g, ok := got[name]; !ok || string(g) != string(b) {
				changed = append(changed, name)
			}
		}
		for name := range got {
			if _, ok := files[name]; !ok {
				changed = append(changed, name)
			}
		}
		if len(changed) > 0 {
			t.Fatalf("Open failed (%v) and changed %v", err, changed)
		}
	})
}
