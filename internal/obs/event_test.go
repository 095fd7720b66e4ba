package obs

import (
	"strings"
	"testing"
)

func TestEventKindStringRoundTrip(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		var back EventKind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("kind %q: %v", text, err)
		}
		if back != k {
			t.Errorf("kind %d round-tripped to %d via %q", k, back, text)
		}
		if k.String() != string(text) {
			t.Errorf("String %q != MarshalText %q", k.String(), text)
		}
	}
}

func TestEventKindRejectsUnknown(t *testing.T) {
	if _, err := numEventKinds.MarshalText(); err == nil {
		t.Error("out-of-range kind marshalled")
	}
	var k EventKind
	if err := k.UnmarshalText([]byte("meltdown")); err == nil {
		t.Error("unknown kind name unmarshalled")
	}
	if err := k.UnmarshalText(nil); err == nil {
		t.Error("empty kind name unmarshalled")
	}
	if !strings.Contains(EventKind(200).String(), "200") {
		t.Errorf("unknown kind String() = %q", EventKind(200).String())
	}
}
