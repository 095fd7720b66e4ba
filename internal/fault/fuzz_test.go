package fault

import (
	"testing"
)

// FuzzFaultSchedule drives Parse with arbitrary schedule text and mesh sizes:
// parsing and validation must never panic, and any schedule that validates
// must uphold the survivability contract the governor relies on — at least
// one node no event can ever retire, so repair is never asked to form an
// empty region — and must round-trip through its text form unchanged.
func FuzzFaultSchedule(f *testing.F) {
	f.Add("perm:3@100", 16)
	f.Add("trans:7@50+400\nperm:3@100\nlink:1-2@200\ntrip@75", 16)
	f.Add("perm:0@5 ; trans:1@6+10 ; trip@7", 4)
	f.Add("link:0-1@10;link:2-3@11", 9)
	f.Add("trip@0\ntrip@0\ntrip@1", 1)
	f.Add("", 2)
	f.Add("perm:-1@3", 16)
	f.Add("trans:2@9223372036854775807+1", 4)
	f.Add("link:1-1@0", 4)
	f.Add("perm:0@1\nperm:1@1", 2)
	f.Fuzz(func(t *testing.T, text string, nodes int) {
		if nodes > 1<<16 {
			nodes %= 1 << 16 // keep the fatal-set sweep cheap
		}
		s, err := Parse(text, nodes)
		if err != nil {
			if s != nil {
				t.Fatalf("Parse returned both a schedule and error %v", err)
			}
			return
		}
		// Validated schedules leave a survivor: some node appears in no
		// potentially-fatal event.
		fatal := make(map[int]bool)
		for _, e := range s.Events() {
			switch e.Kind {
			case RouterPermanent, RouterTransient:
				fatal[e.Node] = true
			case LinkPermanent:
				fatal[e.A] = true
				fatal[e.B] = true
			}
		}
		if len(fatal) >= s.nodes {
			t.Fatalf("validated schedule can retire all %d nodes:\n%s", s.nodes, s)
		}
		// Health queries and cursor walks never panic on a valid schedule.
		for _, e := range s.Events() {
			if e.Node >= 0 {
				s.HealthyAt(e.Node, e.Cycle)
			}
		}
		cur, n := s.Cursor(), 0
		for _, e := range s.Events() {
			n += len(cur.Due(e.Cycle))
		}
		if n != len(s.events) {
			t.Fatalf("cursor yielded %d of %d events", n, len(s.events))
		}
		// The text form is a fixed point: render -> parse -> render.
		again, err := Parse(s.String(), s.nodes)
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", s.String(), err)
		}
		if again.String() != s.String() {
			t.Fatalf("round trip unstable: %q -> %q", s.String(), again.String())
		}
	})
}
