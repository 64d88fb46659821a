// Package ckpt stores durable, versioned snapshots of a coordinator's state
// so a crashed process can resume from the last completed boundary instead of
// forfeiting the run.
//
// The package is deliberately payload-agnostic: callers hand it opaque bytes
// (the master wire-encodes its own record) and ckpt guarantees only atomicity
// and integrity. Each snapshot is one file, `ckpt-<seq>.snap`, written as
// tmp + fsync + rename (+ directory fsync), so a crash mid-write can never
// replace a good snapshot with a torn one. The file header carries a magic,
// a format version, the payload length and a CRC-32 over the payload;
// LoadLatest walks snapshots newest-first and the first one that validates
// wins, so a torn or corrupted newest file silently falls back to the
// previous good snapshot.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// magic identifies a snapshot file; version gates future format changes.
const (
	magic   = "P2CKPT\x00\x01"
	version = 1
)

// headerSize is magic + version (u32) + payload length (u64) + CRC-32 (u32).
const headerSize = len(magic) + 4 + 8 + 4

// keepSnapshots is how many good snapshots Save retains. Two, not one: the
// newest may be the file a crash tore, and recovery then needs its
// predecessor intact.
const keepSnapshots = 2

// ErrNoSnapshot is returned by LoadLatest when the directory holds no valid
// snapshot at all.
var ErrNoSnapshot = errors.New("ckpt: no valid snapshot")

// Save atomically writes payload as snapshot seq under dir, creating dir if
// needed, then prunes all but the newest keepSnapshots snapshot files. seq
// must increase across calls — LoadLatest trusts it for recency ordering.
func Save(dir string, seq uint64, payload []byte) (string, error) {
	final := filepath.Join(dir, fmt.Sprintf("ckpt-%016d.snap", seq))
	if err := WriteFile(final, payload); err != nil {
		return "", err
	}
	prune(dir)
	return final, nil
}

// WriteFile atomically writes payload to path in the checked snapshot
// format (magic, format version, payload length, CRC-32; tmp + fsync +
// rename + directory fsync), creating the parent directory if needed. It is
// the raw write primitive behind Save, exported for other durable-artifact
// stores (the serving layer's theory snapshots) that want the same
// integrity guarantees under their own naming and retention policy.
func WriteFile(path string, payload []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed

	hdr := make([]byte, headerSize)
	n := copy(hdr, magic)
	binary.BigEndian.PutUint32(hdr[n:], version)
	binary.BigEndian.PutUint64(hdr[n+4:], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[n+12:], crc32.ChecksumIEEE(payload))
	if _, err := tmp.Write(hdr); err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: fsync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	syncDir(dir) // make the rename itself durable; best-effort
	return nil
}

// LoadLatest returns the payload and sequence number of the newest snapshot
// under dir that passes integrity checks, skipping torn or corrupt files.
func LoadLatest(dir string) ([]byte, uint64, error) {
	names, err := snapshots(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("ckpt: %w", err)
	}
	for i := len(names) - 1; i >= 0; i-- { // newest first
		payload, err := read(filepath.Join(dir, names[i]))
		if err != nil {
			continue // torn or corrupt: the previous good snapshot wins
		}
		return payload, seqOf(names[i]), nil
	}
	return nil, 0, ErrNoSnapshot
}

// ReadFile validates and returns one checked-format file's payload —
// the read side of WriteFile.
func ReadFile(path string) ([]byte, error) { return read(path) }

// read validates and returns one snapshot file's payload.
func read(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < headerSize || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("ckpt: %s: bad header", path)
	}
	n := len(magic)
	if v := binary.BigEndian.Uint32(b[n:]); v != version {
		return nil, fmt.Errorf("ckpt: %s: unsupported version %d", path, v)
	}
	plen := binary.BigEndian.Uint64(b[n+4:])
	sum := binary.BigEndian.Uint32(b[n+12:])
	payload := b[headerSize:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("ckpt: %s: torn write (%d of %d payload bytes)", path, len(payload), plen)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("ckpt: %s: checksum mismatch", path)
	}
	return payload, nil
}

// snapshots lists snapshot file names under dir sorted by sequence number.
func snapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "ckpt-") && strings.HasSuffix(e.Name(), ".snap") {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool { return seqOf(names[i]) < seqOf(names[j]) })
	return names, nil
}

func seqOf(name string) uint64 {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".snap")
	seq, _ := strconv.ParseUint(s, 10, 64)
	return seq
}

// prune removes all but the newest keepSnapshots snapshot files; best-effort.
func prune(dir string) {
	names, err := snapshots(dir)
	if err != nil || len(names) <= keepSnapshots {
		return
	}
	for _, name := range names[:len(names)-keepSnapshots] {
		os.Remove(filepath.Join(dir, name))
	}
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
