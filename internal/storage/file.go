package storage

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/vfs"
)

// Write saves an index as a format v2 file (see MarshalV2; a pending
// delta buffer is folded into the saved layers). The write is atomic
// and crash-durable: see WriteFS.
func Write(path string, ix *core.Index) error {
	_, err := WriteFS(vfs.OS{}, path, ix, nil)
	return err
}

// WriteFS is Write against an explicit filesystem (the seam the crash
// tests inject a power-loss simulator through), with an opaque aux
// blob stored alongside the index (the WAL keeps the hierarchical
// compactor's spec there). It follows the full atomic-replace
// discipline:
//
//	write temp → fsync temp → rename over path → fsync directory
//
// Rename alone makes the replacement atomic against concurrent readers
// but not against power loss: without the temp-file fsync the new name
// can point at zero-filled pages after a crash, and without the
// directory fsync the rename itself may not survive. Either omission
// loses a "saved" index; TestWriteSurvivesCrash pins both. It returns
// the size of the file written.
func WriteFS(fsys vfs.FS, path string, ix *core.Index, aux []byte) (int64, error) {
	data, err := MarshalV2(ix, aux)
	if err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return 0, err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// Load reads an index file fully back into a mutable in-memory
// core.Index, preserving the stored layer partition (no re-peeling)
// and, for v2, the shell tables. See LoadBytes.
func Load(path string) (*core.Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, _, err := LoadBytes(data, core.Options{})
	return ix, err
}

// LoadBytes decodes a complete index file of either format onto the
// heap and returns the index with its aux blob: v2 through LoadV2Bytes,
// v1 through the read-only migrator decodeV1 (v1 has no aux blob). No
// reference to buf is retained.
func LoadBytes(buf []byte, opt core.Options) (*core.Index, []byte, error) {
	v, err := FormatVersion(buf)
	if err != nil {
		return nil, nil, err
	}
	if v == 2 {
		return LoadV2Bytes(buf, opt)
	}
	ix, err := decodeV1(buf, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("format v1: %w", err)
	}
	return ix, nil, nil
}
