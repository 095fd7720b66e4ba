package serve

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"nocsprint/internal/core"
)

func TestParseSpecValid(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`{
		"experiment": "fig11", "fast": true, "check": true,
		"workers": 2, "seed": 7, "timeout": "90s"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Experiment != "fig11" || !spec.Fast || !spec.Check || spec.Workers != 2 || spec.Seed != 7 {
		t.Errorf("spec fields lost: %+v", spec)
	}
	if spec.Timeout.Std() != 90*time.Second {
		t.Errorf("timeout = %v, want 90s", spec.Timeout)
	}
}

// TestParseSpecStrict: every malformed submission must be rejected with an
// error naming what's wrong — a typo can never silently select defaults.
func TestParseSpecStrict(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"experiment":"fig11","workres":2}`, `unknown field "workres"`},
		{"missing experiment", `{"fast":true}`, `field "experiment": required`},
		{"unknown experiment", `{"experiment":"fig99"}`, `unknown experiment "fig99"`},
		{"negative workers", `{"experiment":"fig11","workers":-1}`, `field "workers"`},
		{"negative timeout", `{"experiment":"fig11","timeout":"-5s"}`, `field "timeout"`},
		{"numeric timeout", `{"experiment":"fig11","timeout":90}`, `duration string`},
		{"bad duration", `{"experiment":"fig11","timeout":"ninety"}`, `invalid duration`},
		{"wrong type", `{"experiment":"fig11","workers":"two"}`, `field "workers"`},
		{"trailing data", `{"experiment":"fig11"} {"more":1}`, `trailing data`},
		{"not json", `experiment=fig11`, `spec:`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(strings.NewReader(tc.body))
			if err == nil {
				t.Fatalf("spec %s was accepted", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestUnknownFieldListsJobSpecTags: the field list an unknown-field error
// quotes is JobSpec's JSON field names, in declaration order.
func TestUnknownFieldListsJobSpecTags(t *testing.T) {
	var names []string
	typ := reflect.TypeOf(JobSpec{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		names = append(names, name)
	}
	_, err := ParseSpec(strings.NewReader(`{"experiment":"fig11","bogus":1}`))
	if want := "(known fields: " + strings.Join(names, ", ") + ")"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("unknown-field error %v does not list %s", err, want)
	}
}

// TestExperimentsListedSorted: the daemon's experiment set is every name
// the core registry answers, its entries' and their aliases', sorted, and
// Validate admits exactly those names — the CLI-only trace and all are
// rejected like any unknown name.
func TestExperimentsListedSorted(t *testing.T) {
	exps := core.ExperimentNames()
	if len(exps) != len(core.Experiments())+1 {
		t.Fatalf("ExperimentNames() lists %d, want the registry's %d entries and fig10", len(exps), len(core.Experiments()))
	}
	for i := 1; i < len(exps); i++ {
		if exps[i-1] >= exps[i] {
			t.Errorf("ExperimentNames() not sorted at %d: %s >= %s", i, exps[i-1], exps[i])
		}
	}
	for _, name := range exps {
		if err := (JobSpec{Experiment: name}).Validate(); err != nil {
			t.Errorf("registry experiment %q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"trace", "all", "fig99"} {
		if err := (JobSpec{Experiment: name}).Validate(); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("experiment %q: Validate = %v, want an unknown-experiment error", name, err)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"2m30s"`)); err != nil {
		t.Fatal(err)
	}
	b, err := d.MarshalJSON()
	if err != nil || string(b) != `"2m30s"` {
		t.Errorf("round trip = %s, %v", b, err)
	}
}
