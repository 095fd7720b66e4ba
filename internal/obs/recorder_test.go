package obs

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFileName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"fig11/l4/r00/noc", "fig11_l4_r00_noc"},
		{"eval/dedup/NoC-sprinting", "eval_dedup_NoC-sprinting"},
		{"a b\tc", "a_b_c"},
		{"", "point"},
		{"safe._-09AZ", "safe._-09AZ"},
	}
	for _, c := range cases {
		if got := FileName(c.in); got != c.want {
			t.Errorf("FileName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// jsonlLines decodes every line of a collector JSONL stream into generic maps.
func jsonlLines(t *testing.T, r io.Reader) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWriteJSONLMergesEventsInCycleOrder pins the stream shape: one meta
// line, then events and samples merged so every event precedes the first
// sample whose window covers it.
func TestWriteJSONLMergesEventsInCycleOrder(t *testing.T) {
	net := testNet(t)
	rec, err := NewRecorder(Config{Interval: 100})
	if err != nil {
		t.Fatal(err)
	}
	col := rec.NewCollector(net, "merge", rec.Config())
	net.SetProbe(col)
	col.Emit(5, EventFault, 3, "early")
	for i := 0; i < 250; i++ {
		net.Step()
	}
	col.Emit(150, EventRepair, 0, "mid")
	col.Emit(9999, EventDeclaredDead, 7, "after the last sample")

	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := jsonlLines(t, &buf)
	var shape []string
	for _, m := range lines {
		shape = append(shape, m["type"].(string))
	}
	want := []string{"meta", "event", "sample", "event", "sample", "sample", "event"}
	if strings.Join(shape, ",") != strings.Join(want, ",") {
		t.Fatalf("stream shape %v, want %v", shape, want)
	}
	if lines[0]["label"] != "merge" || lines[0]["interval"] != float64(100) || lines[0]["routers"] != float64(16) {
		t.Errorf("meta line: %v", lines[0])
	}
	// Cycle monotonicity across the merged stream: each record's cycle must
	// not precede the previous sample's.
	var prevSample float64
	for i, m := range lines[1:] {
		cyc := m["cycle"].(float64)
		if m["type"] == "sample" {
			if cyc <= prevSample {
				t.Errorf("line %d: sample cycle %v not increasing", i+1, cyc)
			}
			prevSample = cyc
		} else if cyc < prevSample {
			t.Errorf("line %d: event cycle %v precedes sample %v", i+1, cyc, prevSample)
		}
	}
}

// TestWriteJSONLFieldOrder pins the stable key order of each record type —
// external consumers and the golden files depend on it.
func TestWriteJSONLFieldOrder(t *testing.T) {
	net := testNet(t)
	rec, err := NewRecorder(Config{Interval: 50})
	if err != nil {
		t.Fatal(err)
	}
	col := rec.NewCollector(net, "order", rec.Config())
	net.SetProbe(col)
	col.Emit(1, EventFault, 2, "d")
	for i := 0; i < 50; i++ {
		net.Step()
	}
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], `{"type":"meta","label":`) {
		t.Errorf("meta key order: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], `{"type":"event","cycle":1,"kind":"fault","node":2,"detail":"d"}`) {
		t.Errorf("event key order: %s", lines[1])
	}
	wantSample := `{"type":"sample","cycle":50,"window":50,"injected_flits":0,` +
		`"injected_packets":0,"ejected_flits":0,"ejected_packets":0,"dropped_flits":0,` +
		`"active_routers":16,"buffered_flits":0,"queue_depth":0,"mesh_util":0,` +
		`"region_util":0,"power_w":0,"temp_k":0,"router_util":`
	if !strings.HasPrefix(lines[2], wantSample) {
		t.Errorf("sample key order:\n got %s\nwant prefix %s", lines[2], wantSample)
	}
}

func TestWriteCSVHeaderMatchesSampleFields(t *testing.T) {
	net := testNet(t)
	rec, err := NewRecorder(Config{Interval: 50})
	if err != nil {
		t.Fatal(err)
	}
	col := rec.NewCollector(net, "csv", rec.Config())
	net.SetProbe(col)
	for i := 0; i < 120; i++ {
		net.Step()
	}
	var buf bytes.Buffer
	if err := col.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + two full windows + partial
		t.Fatalf("%d CSV rows, want 4", len(rows))
	}
	// The header must match the Sample JSON tags in declaration order.
	var tags []string
	b, _ := json.Marshal(Sample{})
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.Token() // {
	for dec.More() {
		tok, _ := dec.Token()
		if key, ok := tok.(string); ok {
			tags = append(tags, key)
			dec.Token() // skip value
		}
	}
	if strings.Join(rows[0], ",") != strings.Join(tags, ",") {
		t.Errorf("CSV header %v != Sample JSON tags %v", rows[0], tags)
	}
}

// TestRecorderWriteFiles covers the per-collector file output including the
// duplicate-label stem dedup ("~2" suffix instead of a silent overwrite).
func TestRecorderWriteFiles(t *testing.T) {
	rec, err := NewRecorder(Config{Interval: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // same label twice: must not overwrite
		net := testNet(t)
		net.SetProbe(rec.NewCollector(net, "dup/point", rec.Config()))
		for j := 0; j < 60*(i+1); j++ {
			net.Step()
		}
	}
	net := testNet(t)
	net.SetProbe(rec.NewCollector(net, "unique", rec.Config()))
	for j := 0; j < 60; j++ {
		net.Step()
	}

	dir := filepath.Join(t.TempDir(), "out")
	if err := rec.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"dup_point.jsonl", "dup_point.csv",
		"dup_point~2.jsonl", "dup_point~2.csv",
		"unique.jsonl", "unique.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing output file %s: %v", name, err)
		}
	}

	// Collectors come back in label order, dup labels both present.
	var labels []string
	for _, c := range rec.Collectors() {
		labels = append(labels, c.label)
	}
	if strings.Join(labels, ",") != "dup/point,dup/point,unique" {
		t.Errorf("collector order %v", labels)
	}
}

func TestWriteFilesEmptyRecorderIsNoOp(t *testing.T) {
	rec, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "never-created")
	if err := rec.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("empty recorder created %s", dir)
	}
}

func TestWriteFilesSurfacesDeviceErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	net := testNet(t)
	rec, err := NewRecorder(Config{Interval: 10})
	if err != nil {
		t.Fatal(err)
	}
	c := rec.NewCollector(net, "full", rec.Config())
	net.SetProbe(c)
	for i := 0; i < 20; i++ {
		net.Step()
	}
	f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("cannot open /dev/full")
	}
	defer f.Close()
	if err := c.WriteJSONL(f); err == nil {
		t.Error("JSONL write to /dev/full reported success")
	}
}
