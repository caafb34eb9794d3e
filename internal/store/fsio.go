package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem seam every store write goes through.
// Reads stay on plain os calls — only mutations (creates, writes, syncs,
// renames, removes) matter for crash consistency, and routing them
// through one interface lets a test harness record the exact sequence of
// durability-relevant operations and reconstruct the disk state a kill
// at any boundary would leave behind (internal/fault.CrashFS).
//
// The production implementation (RealFS) maps directly onto the OS; with
// sync disabled it keeps the same protocol (temp files, renames) but
// turns Sync/SyncDir into no-ops, trading the durable-commit guarantee
// for lower commit latency.
type FS interface {
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// Rename atomically replaces newpath with oldpath. The rename is
	// durable only after a SyncDir of the parent directory.
	Rename(oldpath, newpath string) error
	// Remove deletes path. Missing files are not an error.
	Remove(path string) error
	// SyncDir fsyncs a directory, making its entry operations (creates,
	// renames, removes) durable.
	SyncDir(dir string) error
	// ReadDir lists the file names in dir (no recursion, no order
	// guarantee beyond os.ReadDir's sorting).
	ReadDir(dir string) ([]string, error)
}

// File is the writable handle FS.Create returns.
type File interface {
	io.Writer
	// Sync makes all bytes written so far durable.
	Sync() error
	Close() error
}

// RealFS returns the production filesystem. With sync true, Sync and
// SyncDir are real fsyncs; with sync false they are no-ops (the commit
// protocol — temp file, rename, single publish point — is unchanged, so
// a crash still never yields a torn manifest or sidecar on filesystems
// with atomic rename, but freshly committed generations may be lost).
func RealFS(sync bool) FS { return osFS{sync: sync} }

type osFS struct{ sync bool }

func (fs osFS) Create(path string) (File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return osFile{File: f, sync: fs.sync}, nil
}

func (fs osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (fs osFS) Remove(path string) error {
	err := os.Remove(path)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

func (fs osFS) SyncDir(dir string) error {
	if !fs.sync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func (fs osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

type osFile struct {
	*os.File
	sync bool
}

func (f osFile) Sync() error {
	if !f.sync {
		return nil
	}
	return f.File.Sync()
}

// atomicWriteFile durably publishes what write writes at path: write to
// path+".tmp", fsync, close, rename over path, fsync the parent
// directory. After the rename the new content is the only content a
// reader can see; after the directory sync it survives a crash. A crash
// at any earlier point leaves at most a *.tmp orphan (swept by Open) plus
// the old file.
func atomicWriteFile(fs FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// writeBytes is the atomicWriteFile callback that writes data in one call.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// writeManifest publishes man as dir's manifest.json.
func writeManifest(fs FS, dir string, man Manifest) error {
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(fs, filepath.Join(dir, manifestName), writeBytes(append(mb, '\n')))
}

// sweepStoreOrphans removes leftover store files a crash may have
// stranded in dir: *.tmp staging files, shard files beyond the
// manifest's shard count, and delta sidecars beyond its generation.
// With keepShards/keepGens both -1 every store file is swept (a crashed
// ingest never published a manifest, so nothing in the directory is
// reachable). Unrecognized names (e.g. truth.txt) are left alone, and
// removal failures are reported back rather than failing the caller —
// an unreferenced orphan is by definition unreachable.
func sweepStoreOrphans(fs FS, dir string, keepShards, keepGens int) (removed []string, errs []error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, []error{err}
	}
	for _, name := range names {
		var n int
		sweep := false
		switch {
		case filepath.Ext(name) == ".tmp":
			sweep = true
		case parseSeq(name, "shard-", ".ifs", &n):
			sweep = n >= keepShards && keepShards >= 0 || keepShards < 0
		case parseSeq(name, "delta-", ".idx", &n):
			sweep = n > keepGens && keepGens >= 0 || keepGens < 0
		case name == indexName || name == manifestName:
			sweep = keepShards < 0
		}
		if !sweep {
			continue
		}
		if err := fs.Remove(filepath.Join(dir, name)); err != nil {
			errs = append(errs, fmt.Errorf("sweep %s: %w", name, err))
			continue
		}
		removed = append(removed, name)
	}
	return removed, errs
}

// parseSeq matches prefix + digits + suffix and extracts the number.
func parseSeq(name, prefix, suffix string, n *int) bool {
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	v := 0
	for i := 0; i < len(mid); i++ {
		c := mid[i]
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + int(c-'0')
	}
	*n = v
	return true
}
