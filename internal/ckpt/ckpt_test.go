package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKeyDeterministicAndDiscriminating(t *testing.T) {
	type pt struct {
		Level int
		Rate  float64
		Seed  int64
	}
	a1, err := Key(pt{4, 0.15, 7})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Key(pt{4, 0.15, 7})
	if a1 != a2 {
		t.Errorf("Key is not deterministic: %s vs %s", a1, a2)
	}
	if len(a1) != 64 {
		t.Errorf("Key length %d, want 64 hex chars", len(a1))
	}
	for _, other := range []pt{{5, 0.15, 7}, {4, 0.16, 7}, {4, 0.15, 8}} {
		b, _ := Key(other)
		if b == a1 {
			t.Errorf("Key(%+v) collides with Key(%+v)", other, pt{4, 0.15, 7})
		}
	}
}

type testResult struct {
	N int
	F float64
	S string
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]testResult{}
	for i := 0; i < 5; i++ {
		key, _ := Key(i)
		r := testResult{N: i, F: 0.1 * float64(i), S: fmt.Sprintf("pt%d", i)}
		if err := j.Append(key, r); err != nil {
			t.Fatal(err)
		}
		want[key] = r
	}
	if j.Len() != 5 {
		t.Errorf("Len = %d", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 5 {
		t.Errorf("reopened Len = %d", re.Len())
	}
	for key, r := range want {
		raw, ok := re.Lookup(key)
		if !ok {
			t.Fatalf("key %s missing after reopen", key)
		}
		wantRaw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(wantRaw) {
			t.Errorf("raw = %s, want %s", raw, wantRaw)
		}
	}
	// The reopened journal keeps appending.
	key6, _ := Key(6)
	if err := re.Append(key6, testResult{N: 6}); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 6 {
		t.Errorf("after append+reopen Len = %d", re2.Len())
	}
}

func TestJournalAppendDuplicateKey(t *testing.T) {
	j, err := Create(filepath.Join(t.TempDir(), "j"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append("k", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("k", 2); err == nil {
		t.Error("duplicate Append accepted")
	}
}

func TestJournalRejectsBadKeysAndResults(t *testing.T) {
	j, err := Create(filepath.Join(t.TempDir(), "j"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append("", 1); err == nil {
		t.Error("empty key accepted")
	}
	if err := j.Append("has space", 1); err == nil {
		t.Error("key with space accepted")
	}
	if err := j.Append("k", func() {}); err == nil {
		t.Error("unmarshalable result accepted")
	}
}

// TestOpenRejectsCorruption drives every load-time rejection path and checks
// the errors are descriptive (offset of the first bad record) and that a
// fresh journal can then be created over the rejected file — the CLI's
// warn-and-start-fresh path.
func TestOpenRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, contents []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// A valid two-record journal to mutate.
	base := filepath.Join(dir, "base")
	j, err := Create(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("aaaa", testResult{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("bbbb", testResult{N: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	good, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	// A record whose checksum is fine but whose result is not JSON.
	notJSON, err := encodeRecord("cccc", []byte("not-json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		contents []byte
		want     string
	}{
		{"empty", nil, "truncated"},
		{"wrong-header", []byte("some-other-file v9\n"), "not"},
		{"torn-last-record", good[:len(good)-3], "no trailing newline"},
		{"bit-flip", flipByte(good, len(good)-10), "checksum mismatch"},
		{"bad-checksum-field", append(append([]byte(nil), good...), []byte("deadbeef not-a-record\n")...), "checksum mismatch"},
		{"invalid-json-result", append(append([]byte(nil), good...), append(notJSON, '\n')...), "not valid JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mk(tc.name, tc.contents)
			if _, err := Open(p); err == nil {
				t.Fatalf("corrupt journal accepted")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
			// Fresh run proceeds: Create truncates the rejected file.
			fresh, err := Create(p)
			if err != nil {
				t.Fatalf("cannot start fresh over rejected journal: %v", err)
			}
			fresh.Close()
		})
	}

	// Duplicate record: append the same line twice by hand.
	line, err := encodeRecord("cccc", []byte(`{"N":3}`))
	if err != nil {
		t.Fatal(err)
	}
	dup := append(append([]byte(nil), good...), append(line, '\n')...)
	dup = append(dup, append(line, '\n')...)
	if _, err := Open(mk("dup", dup)); err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Errorf("duplicate record: err = %v", err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

func TestDecodeReportsOffsetOfFirstBadRecord(t *testing.T) {
	var buf []byte
	buf = append(buf, journalMagic+"\n"...)
	line, _ := encodeRecord("good", []byte(`{"x":1}`))
	buf = append(buf, append(line, '\n')...)
	badAt := len(buf)
	bad, _ := encodeRecord("bad", []byte(`{"x":2}`))
	bad[10] ^= 0x01 // corrupt inside the payload
	buf = append(buf, append(bad, '\n')...)
	_, err := Decode(buf)
	if err == nil {
		t.Fatal("corrupt record accepted")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("offset %d", badAt)) {
		t.Errorf("err = %v, want offset %d", err, badAt)
	}
}

func TestSnapshotRoundTripAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	type meta struct {
		Name string
		Fast bool
	}
	if err := WriteSnapshot(path, meta{"fig11", true}); err != nil {
		t.Fatal(err)
	}
	var got meta
	if err := ReadSnapshot(path, &got); err != nil {
		t.Fatal(err)
	}
	if got != (meta{"fig11", true}) {
		t.Errorf("round trip = %+v", got)
	}
	// Overwrite is atomic-replace: second write wins cleanly.
	if err := WriteSnapshot(path, meta{"faults", false}); err != nil {
		t.Fatal(err)
	}
	if err := ReadSnapshot(path, &got); err != nil {
		t.Fatal(err)
	}
	if got != (meta{"faults", false}) {
		t.Errorf("after rewrite = %+v", got)
	}
	// Corrupt payload: checksum must catch it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flipByte(raw, len(raw)/2), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadSnapshot(path, &got); err == nil {
		t.Error("corrupt snapshot accepted")
	}
	// Not JSON at all.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadSnapshot(path, &got); err == nil {
		t.Error("non-JSON snapshot accepted")
	}
}
