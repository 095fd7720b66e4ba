// Package ckpt makes long-running sweeps crash-safe: a versioned,
// checksummed, append-only journal records every completed sweep point, so
// a SIGINT, deadline, or mid-sweep error throws away at most the in-flight
// points, never the completed ones. A resumed sweep skips journaled points
// and — because every point is a pure function of (configuration, seed) and
// journal records round-trip exactly through JSON — produces output
// bit-identical to an uninterrupted run.
//
// The package offers two building blocks:
//
//   - Journal: the append-only record of completed points, one checksummed
//     line per record, keyed by a canonical hash of the point's
//     configuration and seed (Key). Appends are fsynced, so a crash loses
//     at most the record being written; loading detects torn writes,
//     bit flips, version skew, and duplicates, and returns errors — never
//     panics — naming the first bad record's byte offset.
//   - Snapshots: whole-file atomic JSON writes (temp file → fsync → rename)
//     with a checksum envelope, for small metadata like a sweep's identity.
//
// The sweep executor, runner.Run, consults the journal to skip completed
// points and appends each fresh one as it completes.
package ckpt

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// journalMagic is the first line of every journal file; the version suffix
// guards against reading a future format with today's decoder.
const journalMagic = "nocsprint-journal v1"

// castagnoli is the CRC-32C polynomial table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Key returns the canonical content hash of a sweep point's configuration:
// the SHA-256 of its JSON encoding, in hex. Two points collide only if
// their configurations encode identically, so a journal written under one
// set of parameters can never satisfy a sweep run under another — changed
// parameters change every key, and the sweep simply recomputes.
func Key(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("ckpt: encoding point key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Record is one journaled sweep point: its key and the JSON encoding of its
// result exactly as it was recorded.
type Record struct {
	Key    string
	Result json.RawMessage
}

// Decode parses a journal byte stream into its records. It is strict: any
// deviation — wrong or missing header, a record line without a trailing
// newline (a torn write), a malformed or mismatched checksum (a bit flip),
// an invalid result payload, or a duplicate key — is rejected with an error
// naming the byte offset of the first bad record. It never panics, whatever
// the input.
func Decode(data []byte) ([]Record, error) {
	head, rest, found := bytes.Cut(data, []byte("\n"))
	if !found {
		return nil, fmt.Errorf("ckpt: journal header %q is truncated (want %q)", clip(head), journalMagic)
	}
	if string(head) != journalMagic {
		return nil, fmt.Errorf("ckpt: journal header %q is not %q (wrong version or not a journal)", clip(head), journalMagic)
	}
	var (
		records []Record
		seen    = make(map[string]bool)
		offset  = len(head) + 1 // byte offset of the current record line
	)
	for len(rest) > 0 {
		line, tail, found := bytes.Cut(rest, []byte("\n"))
		if !found {
			return nil, fmt.Errorf("ckpt: torn record at offset %d: no trailing newline (%d trailing bytes)", offset, len(line))
		}
		rec, err := decodeRecord(line)
		if err != nil {
			return nil, fmt.Errorf("ckpt: record at offset %d: %w", offset, err)
		}
		if seen[rec.Key] {
			return nil, fmt.Errorf("ckpt: record at offset %d: duplicate key %s", offset, rec.Key)
		}
		seen[rec.Key] = true
		records = append(records, rec)
		offset += len(line) + 1
		rest = tail
	}
	return records, nil
}

// decodeRecord parses one journal line: `crc32c-hex8 key result-json`.
func decodeRecord(line []byte) (Record, error) {
	crcField, payload, found := bytes.Cut(line, []byte(" "))
	if !found {
		return Record{}, fmt.Errorf("malformed line %q: no checksum field", clip(line))
	}
	if len(crcField) != 8 {
		return Record{}, fmt.Errorf("malformed checksum %q: want 8 hex digits", clip(crcField))
	}
	var want uint32
	if _, err := fmt.Sscanf(string(crcField), "%08x", &want); err != nil {
		return Record{}, fmt.Errorf("malformed checksum %q: %v", clip(crcField), err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return Record{}, fmt.Errorf("checksum mismatch: line carries %08x, payload hashes to %08x (corrupt or torn write)", want, got)
	}
	keyField, result, found := bytes.Cut(payload, []byte(" "))
	if !found {
		return Record{}, fmt.Errorf("malformed payload %q: no key field", clip(payload))
	}
	key := string(keyField)
	if key == "" {
		return Record{}, fmt.Errorf("empty record key")
	}
	if !json.Valid(result) {
		return Record{}, fmt.Errorf("result for key %s is not valid JSON", key)
	}
	return Record{Key: key, Result: json.RawMessage(append([]byte(nil), result...))}, nil
}

// encodeRecord renders one journal line (without the trailing newline).
func encodeRecord(key string, result []byte) ([]byte, error) {
	if key == "" || strings.ContainsAny(key, " \n") {
		return nil, fmt.Errorf("ckpt: invalid record key %q: must be non-empty without spaces or newlines", clip([]byte(key)))
	}
	if bytes.ContainsAny(result, "\n") {
		return nil, fmt.Errorf("ckpt: result for key %s contains a newline", key)
	}
	payload := make([]byte, 0, len(key)+1+len(result))
	payload = append(payload, key...)
	payload = append(payload, ' ')
	payload = append(payload, result...)
	line := make([]byte, 0, 9+len(payload))
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, castagnoli))
	return append(line, payload...), nil
}

// clip truncates arbitrary bytes for error messages.
func clip(b []byte) string {
	const max = 40
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// Journal is an append-only, crash-safe record of completed sweep points.
// It is safe for concurrent use: sweep workers append results as they
// complete.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	have map[string]json.RawMessage
	path string
}

// RemoveOrphanTemps deletes stale snapshot temp files from dir: a kill -9
// (or power loss) between WriteSnapshot's CreateTemp and its rename leaves a
// `.<name>.tmp-*` file behind that no one will ever rename or reuse — its
// random suffix is gone with the dead process. Journal Open/Create sweep
// their directory through this, so a crash-restart cycle cannot accumulate
// partial files next to the live journal and snapshots. Only files matching
// the exact temp-name shape are touched; removal errors other than "already
// gone" are reported (the first one), after attempting every candidate.
// It returns the number of files removed.
func RemoveOrphanTemps(dir string) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, ".*.tmp-*"))
	if err != nil {
		// The pattern is constant and valid; Glob only errors on bad
		// patterns, but keep the error path honest.
		return 0, fmt.Errorf("ckpt: scanning %s for orphan temp files: %w", dir, err)
	}
	removed := 0
	var firstErr error
	for _, m := range matches {
		if fi, err := os.Lstat(m); err != nil || fi.IsDir() {
			continue // races with a concurrent writer or an odd directory: leave it
		}
		switch err := os.Remove(m); {
		case err == nil:
			removed++
		case !os.IsNotExist(err) && firstErr == nil:
			firstErr = fmt.Errorf("ckpt: removing orphan temp file %s: %w", m, err)
		}
	}
	return removed, firstErr
}

// Create starts a fresh journal at path, truncating any existing file, and
// writes the versioned header. Orphaned snapshot temp files in the
// journal's directory (left by a crash mid-rename) are removed first.
func Create(path string) (*Journal, error) {
	if _, err := RemoveOrphanTemps(filepath.Dir(path)); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ckpt: creating journal: %w", err)
	}
	if _, err := f.WriteString(journalMagic + "\n"); err != nil {
		f.Close()
		return nil, fmt.Errorf("ckpt: writing journal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("ckpt: syncing journal header: %w", err)
	}
	return &Journal{f: f, have: make(map[string]json.RawMessage), path: path}, nil
}

// Open loads an existing journal for resume: it decodes every record —
// rejecting the whole file with a descriptive error if any record is torn,
// corrupt, duplicated, or from another version — and reopens the file for
// appending. Orphaned snapshot temp files in the journal's directory (left
// by a kill -9 between a snapshot's temp write and its rename) are removed
// first, so a crashed run's debris never survives a restart.
func Open(path string) (*Journal, error) {
	if _, err := RemoveOrphanTemps(filepath.Dir(path)); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading journal: %w", err)
	}
	records, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reopening journal for append: %w", err)
	}
	have := make(map[string]json.RawMessage, len(records))
	for _, rec := range records {
		have[rec.Key] = rec.Result
	}
	return &Journal{f: f, have: have, path: path}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of journaled records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.have)
}

// Lookup returns the recorded result for key, if present.
func (j *Journal) Lookup(key string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.have[key]
	return raw, ok
}

// Append records one completed point: the result's JSON encoding is
// checksummed, written as one line, and fsynced before Append returns, so
// a subsequent crash cannot lose it. Appending a key the journal already
// holds is an error — sweep keys are unique by construction.
func (j *Journal) Append(key string, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("ckpt: encoding result for key %s: %w", key, err)
	}
	line, err := encodeRecord(key, raw)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.have[key]; dup {
		return fmt.Errorf("ckpt: key %s already journaled", key)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("ckpt: appending record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ckpt: syncing journal: %w", err)
	}
	j.have[key] = json.RawMessage(raw)
	return nil
}

// Close releases the journal's file handle. Records are already durable —
// every Append fsyncs — so Close after an interrupt loses nothing.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("ckpt: closing journal: %w", err)
	}
	return nil
}

// snapshotEnvelope wraps a snapshot's payload with version and checksum so
// ReadSnapshot can reject corruption instead of decoding garbage.
type snapshotEnvelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	CRC32C  string          `json:"crc32c"`
	Data    json.RawMessage `json:"data"`
}

const snapshotFormat = "nocsprint-snapshot"

// WriteSnapshot atomically replaces path with a checksummed JSON snapshot
// of v: the bytes land in a temp file in the same directory, are fsynced,
// and only then renamed over path, so readers observe either the old
// snapshot or the new one — never a torn mix.
func WriteSnapshot(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ckpt: encoding snapshot: %w", err)
	}
	env, err := json.Marshal(snapshotEnvelope{
		Format:  snapshotFormat,
		Version: 1,
		CRC32C:  fmt.Sprintf("%08x", crc32.Checksum(data, castagnoli)),
		Data:    data,
	})
	if err != nil {
		return fmt.Errorf("ckpt: encoding snapshot envelope: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: creating snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	if _, err := w.Write(append(env, '\n')); err == nil {
		err = w.Flush()
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing snapshot temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: publishing snapshot: %w", err)
	}
	// Persist the rename itself: fsync the directory when the platform
	// allows it (best-effort elsewhere).
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadSnapshot loads a snapshot written by WriteSnapshot into v, verifying
// the envelope's format, version, and checksum first.
func ReadSnapshot(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ckpt: reading snapshot: %w", err)
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("ckpt: snapshot %s does not parse: %w", path, err)
	}
	if env.Format != snapshotFormat || env.Version != 1 {
		return fmt.Errorf("ckpt: snapshot %s has format %q v%d, want %q v1", path, env.Format, env.Version, snapshotFormat)
	}
	want := fmt.Sprintf("%08x", crc32.Checksum(env.Data, castagnoli))
	if env.CRC32C != want {
		return fmt.Errorf("ckpt: snapshot %s checksum %s does not match payload %s (corrupt)", path, env.CRC32C, want)
	}
	if err := json.Unmarshal(env.Data, v); err != nil {
		return fmt.Errorf("ckpt: snapshot %s payload: %w", path, err)
	}
	return nil
}
