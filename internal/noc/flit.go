package noc

import "fmt"

// FlitType distinguishes the roles of flits within a wormhole packet.
type FlitType uint8

// Flit roles. A single-flit packet uses HeadTail.
const (
	Head FlitType = iota
	Body
	Tail
	HeadTail
)

// String returns the flit-type name.
func (t FlitType) String() string {
	switch t {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	default:
		return fmt.Sprintf("FlitType(%d)", uint8(t))
	}
}

// IsHead reports whether the flit opens a packet (Head or HeadTail).
func (t FlitType) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit closes a packet (Tail or HeadTail).
func (t FlitType) IsTail() bool { return t == Tail || t == HeadTail }

// Packet is a wormhole packet. Timing fields are filled in by the
// simulator as the packet progresses.
type Packet struct {
	// ID is a unique, monotonically increasing identifier.
	ID int64
	// Src and Dst are mesh node ids.
	Src, Dst int
	// Length is the packet size in flits.
	Length int
	// CreatedAt is the cycle the packet entered its source queue.
	CreatedAt int64
	// InjectedAt is the cycle the head flit entered the network (-1 until
	// then). Latency measured from CreatedAt includes source queueing;
	// from InjectedAt it is pure network latency.
	InjectedAt int64
	// EjectedAt is the cycle the tail flit left the network (-1 until then).
	EjectedAt int64
	// Measured marks packets created inside the measurement window.
	Measured bool
	// Class is the message class (VC partition) the packet travels in.
	Class int
	// Tag is caller-defined correlation state (e.g. a memory transaction
	// id); the network carries it untouched.
	Tag int64
}

// flitType returns the role of flit seq in a packet of length flits.
func flitType(seq, length int) FlitType {
	switch {
	case length == 1:
		return HeadTail
	case seq == 0:
		return Head
	case seq == length-1:
		return Tail
	}
	return Body
}

// flit is one flow-control unit of a packet, 16 bytes. vc is the virtual
// channel the flit occupies on the link it last traversed (and thus the
// input VC it is buffered in downstream).
type flit struct {
	pkt *Packet
	seq int32
	vc  int16
	typ FlitType
}
