package obs

import "fmt"

// EventKind classifies timeline events. Kinds serialize as their stable text
// names (MarshalText/UnmarshalText), so JSONL timelines survive reordering
// of this enum and unknown names fail decoding loudly.
type EventKind uint8

// Timeline event kinds.
const (
	// EventSprintLevel marks a sprint-level change (the detail carries the
	// old and new level).
	EventSprintLevel EventKind = iota
	// EventRepair through EventDeclaredDead mirror the governor's event log
	// (sprint.GovernorEventKind) one to one and in order: governor kind k
	// is EventRepair + k.
	EventRepair
	EventMasterElection
	EventDegrade
	EventResumeScheduled
	EventResumeFailed
	EventResumed
	EventDeclaredDead
	// EventFault marks a scheduled fault arriving at the fabric, a thermal
	// trip included.
	EventFault
	// EventQuiesce/EventDrained bracket a reconfiguration: traffic pauses at
	// quiesce and the fabric has emptied (or exhausted its budget) at
	// drained.
	EventQuiesce
	EventDrained
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EventSprintLevel:     "sprint-level",
	EventRepair:          "repair",
	EventMasterElection:  "master-election",
	EventDegrade:         "degrade",
	EventResumeScheduled: "resume-scheduled",
	EventResumeFailed:    "resume-failed",
	EventResumed:         "resumed",
	EventDeclaredDead:    "declared-dead",
	EventFault:           "fault",
	EventQuiesce:         "quiesce",
	EventDrained:         "drained",
}

// String returns the kind's stable text name.
func (k EventKind) String() string {
	if k < numEventKinds {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// MarshalText serializes the kind name; unknown kinds are an error rather
// than a silently-decodable number.
func (k EventKind) MarshalText() ([]byte, error) {
	if k >= numEventKinds {
		return nil, fmt.Errorf("obs: unknown event kind %d", uint8(k))
	}
	return []byte(eventKindNames[k]), nil
}

// UnmarshalText parses a kind name, strictly.
func (k *EventKind) UnmarshalText(text []byte) error {
	for i, name := range eventKindNames {
		if string(text) == name {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", text)
}

// Event is one entry of the typed timeline.
type Event struct {
	// Cycle stamps when the event happened, on the emitter's cycle clock.
	Cycle int64 `json:"cycle"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Node is the affected node, or -1 for chip-wide events.
	Node int `json:"node"`
	// Detail is free-form context (fault text form, repair summary, ...).
	Detail string `json:"detail,omitempty"`
}
