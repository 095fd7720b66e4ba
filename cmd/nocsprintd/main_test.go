package main

import (
	"encoding/json"
	"expvar"
	"io"
	"strings"
	"testing"
	"time"

	"nocsprint/internal/core"
	"nocsprint/internal/serve"
)

func TestParseArgsDefaults(t *testing.T) {
	o, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8089" || o.state != "nocsprintd-state" || o.queueCap != 16 ||
		o.concurrency != 1 {
		t.Errorf("defaults = %+v", o)
	}
	if o.retryAfter != 5*time.Second ||
		o.abortGrace != 30*time.Second || o.drainTimeout != 2*time.Minute {
		t.Errorf("duration defaults = %+v", o)
	}
}

func TestParseArgsOverrides(t *testing.T) {
	o, err := parseArgs([]string{
		"-addr", "127.0.0.1:0", "-state", "/tmp/s", "-queue", "4",
		"-concurrency", "2", "-job-timeout", "10m",
		"-max-body", "4096",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:0" || o.queueCap != 4 || o.concurrency != 2 ||
		o.jobTimeout != 10*time.Minute || o.maxBody != 4096 {
		t.Errorf("overrides lost: %+v", o)
	}
}

func TestParseArgsRejectsBadValues(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"zero queue", []string{"-queue", "0"}, "-queue"},
		{"zero concurrency", []string{"-concurrency", "0"}, "-concurrency"},
		{"negative timeout", []string{"-job-timeout", "-1s"}, "durations"},
		{"negative retry after", []string{"-retry-after", "-5s"}, "durations"},
		{"zero body limit", []string{"-max-body", "0"}, "-max-body"},
		{"positional argument", []string{"stray"}, "unexpected argument"},
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"removed retry flag", []string{"-retry-attempts", "3"}, "retry-attempts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestPublishedMetricsRenderServer: the "nocsprintd" expvar renders the
// daemon's server's MetricsSnapshot, before and after that server runs a
// job.
func TestPublishedMetricsRenderServer(t *testing.T) {
	if expvar.Get("nocsprintd") != nil {
		t.Skip("the nocsprintd expvar is already published in this process (go test -count > 1)")
	}
	srv, err := serve.New(serve.Config{
		StateDir: t.TempDir(),
		Run:      func(serve.JobSpec, core.NetSimParams) (any, error) { return "ok", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	publishMetrics(srv)
	check := func() serve.MetricsSnapshot {
		t.Helper()
		want := srv.MetricsSnapshot()
		var got serve.MetricsSnapshot
		if err := json.Unmarshal([]byte(expvar.Get("nocsprintd").String()), &got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("published metrics %+v, want %+v", got, want)
		}
		return got
	}
	check()
	job, err := srv.Submit(serve.JobSpec{Experiment: "fig11"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if v, ok := srv.Job(job.ID); ok && v.State == serve.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the job to finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m := check(); m.Admitted != 1 || m.Done != 1 {
		t.Errorf("published metrics %+v, want admitted=1 done=1", m)
	}
}
