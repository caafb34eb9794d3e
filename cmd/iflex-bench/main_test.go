package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseProfile decompresses a pprof profile (gzipped protobuf) and
// returns its payload. A profile truncated by os.Exit before
// pprof.StopCPUProfile could flush it fails right here.
func parseProfile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not a valid gzipped profile: %v", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: corrupt profile payload: %v", path, err)
	}
	return data
}

// TestFailingRunStillFlushesProfile is the regression test for the
// exit-path bug: run used to os.Exit(1) on a table error, skipping the
// deferred profile stop and leaving an unparseable CPU profile. A run
// that fails after profiling starts must still yield a parseable profile.
func TestFailingRunStillFlushesProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	var out, errOut strings.Builder
	// -out into a nonexistent directory fails after prof.Start.
	code := run([]string{
		"-cpuprofile", prof,
		"-out", filepath.Join(dir, "no", "such", "dir", "results.txt"),
		"-table", "1", "-scale", "0.05",
	}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if data := parseProfile(t, prof); len(data) == 0 {
		t.Error("profile payload is empty")
	}

	// An unknown table (exit 2) must flush the profile too.
	prof2 := filepath.Join(dir, "cpu2.prof")
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-cpuprofile", prof2, "-table", "bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown table: exit code = %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "unknown table") {
		t.Errorf("stderr missing unknown-table diagnostic: %s", errOut.String())
	}
	parseProfile(t, prof2)
}

// TestRunWritesOutFile covers the happy path through run: exit 0, the
// -out copy holds the rendered table, and the profile parses.
func TestRunWritesOutFile(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "results.txt")
	prof := filepath.Join(dir, "cpu.prof")
	var out, errOut strings.Builder
	code := run([]string{"-cpuprofile", prof, "-out", outFile, "-table", "2", "-scale", "0.05"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, errOut.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "T1") || !strings.Contains(out.String(), "T1") {
		t.Errorf("-out copy and stdout should both carry the table; file:\n%s", data)
	}
	parseProfile(t, prof)
}
