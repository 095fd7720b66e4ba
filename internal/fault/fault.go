// Package fault provides deterministic fault injection for the NoC
// simulator: schedules of transient and permanent router faults, link
// faults, and thermal-emergency trips, generated from a seed or parsed from
// a text form. A Schedule is pure data — the sprint governor
// (internal/sprint) decides how the system reacts to each event and the
// experiment driver (internal/core) applies the resulting reconfigurations
// to the network. Schedules are fully determined by their inputs, so a run
// under faults is exactly as reproducible as a fault-free run.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies fault events.
type Kind int

const (
	// RouterTransient takes a router out of service for Duration cycles;
	// the governor retries resuming it with backoff and may declare it
	// permanently failed if it stays unhealthy.
	RouterTransient Kind = iota
	// RouterPermanent is a fail-stop router fault: the node never returns.
	RouterPermanent
	// LinkPermanent kills the bidirectional link between two adjacent
	// routers. CDOR's restricted turn set cannot route around a missing
	// in-region link, so the governor retires the endpoint farther from the
	// master.
	LinkPermanent
	// ThermalTrip is a thermal emergency: the die crossed the trip
	// temperature and the governor must shed sprint level (graceful
	// degradation) instead of waiting for the hard junction limit.
	ThermalTrip
)

// String returns the schedule-text keyword for the kind.
func (k Kind) String() string {
	switch k {
	case RouterTransient:
		return "trans"
	case RouterPermanent:
		return "perm"
	case LinkPermanent:
		return "link"
	case ThermalTrip:
		return "trip"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// Cycle is when the fault fires (is detected by the governor).
	Cycle int64
	// Kind selects the fault class.
	Kind Kind
	// Node is the faulted router for router faults, -1 otherwise.
	Node int
	// A and B are the link endpoints for link faults, -1 otherwise.
	A, B int
	// Duration is how many cycles a transient fault persists: resume
	// attempts before Cycle+Duration find the node still unhealthy.
	Duration int64
}

// String renders the event in the schedule text form.
func (e Event) String() string {
	switch e.Kind {
	case RouterTransient:
		return fmt.Sprintf("trans:%d@%d+%d", e.Node, e.Cycle, e.Duration)
	case RouterPermanent:
		return fmt.Sprintf("perm:%d@%d", e.Node, e.Cycle)
	case LinkPermanent:
		return fmt.Sprintf("link:%d-%d@%d", e.A, e.B, e.Cycle)
	case ThermalTrip:
		return fmt.Sprintf("trip@%d", e.Cycle)
	default:
		return fmt.Sprintf("?@%d", e.Cycle)
	}
}

// Describe renders the event as a human-readable sentence fragment, for
// event timelines and logs where the compact schedule text form (String) is
// too terse.
func (e Event) Describe() string {
	switch e.Kind {
	case RouterTransient:
		return fmt.Sprintf("transient router fault at node %d for %d cycles", e.Node, e.Duration)
	case RouterPermanent:
		return fmt.Sprintf("permanent router fault at node %d", e.Node)
	case LinkPermanent:
		return fmt.Sprintf("permanent link fault %d-%d", e.A, e.B)
	case ThermalTrip:
		return "thermal trip"
	default:
		return fmt.Sprintf("unknown fault kind %d", int(e.Kind))
	}
}

// Schedule is an ordered list of fault events over a mesh of a known size.
type Schedule struct {
	nodes  int
	events []Event
}

// New builds a schedule over a nodes-router mesh from events (in any order;
// they are sorted by cycle, ties kept in input order) and validates it.
func New(nodes int, events []Event) (*Schedule, error) {
	s := &Schedule{nodes: nodes, events: append([]Event(nil), events...)}
	sort.SliceStable(s.events, func(a, b int) bool { return s.events[a].Cycle < s.events[b].Cycle })
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Events returns the events in cycle order (a copy).
func (s *Schedule) Events() []Event { return append([]Event(nil), s.events...) }

// Validate reports the first invalid event, or nil. Beyond per-event bounds
// it enforces the survivability guarantee the governor relies on: the set of
// nodes the schedule could ever retire permanently (permanent faults,
// transient faults that exhaust their retries, and both endpoints of link
// faults) must leave at least one router alive, so repair can never be asked
// to form an empty region.
func (s *Schedule) Validate() error {
	if s.nodes < 1 {
		return fmt.Errorf("fault: schedule over %d nodes", s.nodes)
	}
	fatal := make(map[int]bool)
	for i, e := range s.events {
		if e.Cycle < 0 {
			return fmt.Errorf("fault: event %d (%v) fires at negative cycle %d", i, e, e.Cycle)
		}
		switch e.Kind {
		case RouterTransient:
			if e.Node < 0 || e.Node >= s.nodes {
				return fmt.Errorf("fault: event %d: node %d outside [0,%d)", i, e.Node, s.nodes)
			}
			if e.Duration < 1 {
				return fmt.Errorf("fault: event %d: transient duration %d < 1", i, e.Duration)
			}
			fatal[e.Node] = true
		case RouterPermanent:
			if e.Node < 0 || e.Node >= s.nodes {
				return fmt.Errorf("fault: event %d: node %d outside [0,%d)", i, e.Node, s.nodes)
			}
			fatal[e.Node] = true
		case LinkPermanent:
			if e.A < 0 || e.A >= s.nodes || e.B < 0 || e.B >= s.nodes {
				return fmt.Errorf("fault: event %d: link %d-%d outside [0,%d)", i, e.A, e.B, s.nodes)
			}
			if e.A == e.B {
				return fmt.Errorf("fault: event %d: link %d-%d is a self-loop", i, e.A, e.B)
			}
			fatal[e.A] = true
			fatal[e.B] = true
		case ThermalTrip:
			// No operands.
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	if len(fatal) >= s.nodes {
		return fmt.Errorf("fault: schedule can retire all %d nodes — no survivable region", s.nodes)
	}
	return nil
}

// HealthyAt reports whether node is operational at cycle as far as the
// schedule is concerned: no permanent fault has fired on it and no transient
// fault window covers the cycle. The governor consults it when a resume
// attempt comes due.
func (s *Schedule) HealthyAt(node int, cycle int64) bool {
	for _, e := range s.events {
		if e.Cycle > cycle {
			break
		}
		switch e.Kind {
		case RouterPermanent:
			if e.Node == node {
				return false
			}
		case RouterTransient:
			if e.Node == node && cycle < e.Cycle+e.Duration {
				return false
			}
		}
	}
	return true
}

// String renders the schedule in its text form, one event per line.
func (s *Schedule) String() string {
	var b strings.Builder
	for i, e := range s.events {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// Cursor walks a schedule in cycle order.
type Cursor struct {
	s *Schedule
	i int
}

// Cursor returns a fresh cursor positioned before the first event.
func (s *Schedule) Cursor() *Cursor { return &Cursor{s: s} }

// Due returns the events with Cycle <= now that have not been returned yet,
// advancing the cursor past them.
func (c *Cursor) Due(now int64) []Event {
	start := c.i
	for c.i < len(c.s.events) && c.s.events[c.i].Cycle <= now {
		c.i++
	}
	if c.i == start {
		return nil
	}
	return c.s.events[start:c.i]
}

// Parse reads a schedule from its text form: events separated by newlines or
// semicolons, each one of
//
//	perm:<node>@<cycle>
//	trans:<node>@<cycle>+<duration>
//	link:<a>-<b>@<cycle>
//	trip@<cycle>
//
// Blank segments are skipped. The result is sorted and validated; Parse
// never panics on malformed input.
func Parse(text string, nodes int) (*Schedule, error) {
	var events []Event
	for _, seg := range strings.FieldsFunc(text, func(r rune) bool { return r == '\n' || r == ';' }) {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		e, err := parseEvent(seg)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return New(nodes, events)
}

func parseEvent(seg string) (Event, error) {
	head, at, ok := strings.Cut(seg, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: event %q has no @cycle", seg)
	}
	e := Event{Node: -1, A: -1, B: -1}
	cycleStr, durStr, hasDur := strings.Cut(at, "+")
	cycle, err := strconv.ParseInt(strings.TrimSpace(cycleStr), 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("fault: event %q: bad cycle: %v", seg, err)
	}
	e.Cycle = cycle
	kind, operand, _ := strings.Cut(head, ":")
	switch strings.TrimSpace(kind) {
	case "perm", "trans":
		node, err := strconv.Atoi(strings.TrimSpace(operand))
		if err != nil {
			return Event{}, fmt.Errorf("fault: event %q: bad node: %v", seg, err)
		}
		e.Node = node
		if kind == "perm" {
			if hasDur {
				return Event{}, fmt.Errorf("fault: event %q: permanent faults take no duration", seg)
			}
			e.Kind = RouterPermanent
			return e, nil
		}
		if !hasDur {
			return Event{}, fmt.Errorf("fault: event %q: transient faults need +duration", seg)
		}
		dur, err := strconv.ParseInt(strings.TrimSpace(durStr), 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("fault: event %q: bad duration: %v", seg, err)
		}
		e.Kind = RouterTransient
		e.Duration = dur
		return e, nil
	case "link":
		aStr, bStr, ok := strings.Cut(operand, "-")
		if !ok {
			return Event{}, fmt.Errorf("fault: event %q: link needs a-b endpoints", seg)
		}
		a, errA := strconv.Atoi(strings.TrimSpace(aStr))
		b, errB := strconv.Atoi(strings.TrimSpace(bStr))
		if errA != nil || errB != nil {
			return Event{}, fmt.Errorf("fault: event %q: bad link endpoints", seg)
		}
		e.Kind = LinkPermanent
		e.A, e.B = a, b
		return e, nil
	case "trip":
		if operand != "" {
			return Event{}, fmt.Errorf("fault: event %q: trip takes no operand", seg)
		}
		e.Kind = ThermalTrip
		return e, nil
	default:
		return Event{}, fmt.Errorf("fault: event %q has unknown kind %q", seg, kind)
	}
}
