package obs

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nocsprint/internal/noc"
)

// Recorder owns the telemetry configuration for one sweep and the collectors
// it spawned. NewCollector is safe to call from concurrent sweep workers; each
// returned Collector still belongs to exactly one goroutine (the one running
// its sweep point).
type Recorder struct {
	mu   sync.Mutex
	cfg  Config
	cols []*Collector
}

// NewRecorder validates cfg and returns an empty recorder.
func NewRecorder(cfg Config) (*Recorder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Recorder{cfg: cfg.WithDefaults()}, nil
}

// Config returns the recorder's (defaulted) base configuration, which
// callers pass to NewCollector as is or derive per-point configurations from.
func (r *Recorder) Config() Config { return r.cfg }

// NewCollector builds a collector for net with configuration cfg and
// registers it under label. cfg is the recorder's Config or one derived from
// it (the fault driver, for example, uses a thermal model scaled to its own
// cycle time); it must be valid, and an invalid one is a programming error
// and panics. NewCollector does not attach the collector: the caller
// installs it with net.SetProbe, together with any other probe the network
// carries. Labels identify sweep points in the serialized output and should
// be unique per recorder.
func (r *Recorder) NewCollector(net *noc.Network, label string, cfg Config) *Collector {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	c := newCollector(cfg, label, net)
	r.mu.Lock()
	r.cols = append(r.cols, c)
	r.mu.Unlock()
	return c
}

// Collectors returns the registered collectors sorted by label, so
// serialized output is deterministic regardless of sweep worker count.
func (r *Recorder) Collectors() []*Collector {
	r.mu.Lock()
	out := make([]*Collector, len(r.cols))
	copy(out, r.cols)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// jsonMeta/jsonSample/jsonEvent fix the JSONL field order; the golden test
// asserts it stays stable.
type jsonMeta struct {
	Type     string `json:"type"`
	Label    string `json:"label"`
	Interval int    `json:"interval"`
	Routers  int    `json:"routers"`
}

type jsonSample struct {
	Type string `json:"type"`
	Sample
	RouterUtil []float64 `json:"router_util"`
}

type jsonEvent struct {
	Type string `json:"type"`
	Event
}

// WriteJSONL serializes one collector as a meta line followed by the sample
// and event streams merged in cycle order (an event sorts before the first
// sample whose window covers it).
func (c *Collector) WriteJSONL(w io.Writer) error {
	c.Finish()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonMeta{Type: "meta", Label: c.label, Interval: int(c.interval), Routers: c.routers}); err != nil {
		return fmt.Errorf("obs: writing meta for %s: %w", c.label, err)
	}
	ei := 0
	emit := func(upTo int64) error {
		for ei < len(c.events) && (upTo < 0 || c.events[ei].Cycle <= upTo) {
			if err := enc.Encode(jsonEvent{Type: "event", Event: c.events[ei]}); err != nil {
				return fmt.Errorf("obs: writing event %d for %s: %w", ei, c.label, err)
			}
			ei++
		}
		return nil
	}
	for i, s := range c.samples {
		if err := emit(s.Cycle); err != nil {
			return err
		}
		if err := enc.Encode(jsonSample{Type: "sample", Sample: s, RouterUtil: c.RouterUtil(i)}); err != nil {
			return fmt.Errorf("obs: writing sample %d for %s: %w", i, c.label, err)
		}
	}
	if err := emit(-1); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteCSV serializes the sample series (events are JSONL-only) with a
// header row; per-router utilization is omitted to keep the table rectangular
// across reconfigurations.
func (c *Collector) WriteCSV(w io.Writer) error {
	c.Finish()
	cw := csv.NewWriter(w)
	header := []string{
		"cycle", "window", "injected_flits", "injected_packets",
		"ejected_flits", "ejected_packets", "dropped_flits",
		"active_routers", "buffered_flits", "queue_depth",
		"mesh_util", "region_util", "power_w", "temp_k",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("obs: writing CSV header for %s: %w", c.label, err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := func(v int64) string { return strconv.FormatInt(v, 10) }
	for i, s := range c.samples {
		row := []string{
			d(s.Cycle), d(s.Window), d(s.InjectedFlits), d(s.InjectedPackets),
			d(s.EjectedFlits), d(s.EjectedPackets), d(s.DroppedFlits),
			strconv.Itoa(s.ActiveRouters), d(s.BufferedFlits), f(s.QueueDepth),
			f(s.MeshUtil), f(s.RegionUtil), f(s.PowerW), f(s.TempK),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("obs: writing CSV row %d for %s: %w", i, c.label, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// FileName returns the file stem a collector's label maps to: every byte
// outside [a-zA-Z0-9._-] becomes '_', so hierarchical labels like
// "fig11/l4/r00/noc" stay readable and filesystem-safe.
func FileName(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "point"
	}
	return b.String()
}

// WriteFiles writes one JSONL file and one CSV file per collector under dir
// (created if needed), named after the sanitized label. Write and close
// errors are joined so a short write surfaced only at Close — the failure
// mode the trace path had — is never swallowed.
func (r *Recorder) WriteFiles(dir string) error {
	cols := r.Collectors()
	if len(cols) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: creating output dir: %w", err)
	}
	used := make(map[string]int, len(cols))
	for _, c := range cols {
		name := FileName(c.label)
		used[name]++
		if n := used[name]; n > 1 {
			// Two collectors sanitized to the same stem (e.g. the same
			// experiment attached twice under an "all" run): suffix rather
			// than silently overwrite.
			name = fmt.Sprintf("%s~%d", name, n)
		}
		stem := filepath.Join(dir, name)
		if err := writeFile(stem+".jsonl", c.WriteJSONL); err != nil {
			return err
		}
		if err := writeFile(stem+".csv", c.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// writeFile streams write(f) into path, joining the write error with Close's
// so neither masks the other.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: creating %s: %w", path, err)
	}
	werr := write(f)
	cerr := f.Close()
	if err := errors.Join(werr, cerr); err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	return nil
}
