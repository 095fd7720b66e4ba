// Package noc implements a cycle-accurate wormhole network-on-chip
// simulator — the reproduction's stand-in for Garnet/booksim. It models a
// 2-D mesh of input-queued virtual-channel routers with the classic
// five-stage pipeline (buffer write, route compute, VC allocation, switch
// allocation, switch+link traversal), credit-based flow control, and
// round-robin separable allocators. Routers outside the sprint region can
// be power-gated; the simulator asserts that no flit ever reaches a gated
// router, which is exactly the guarantee CDOR provides.
//
// Alongside performance statistics the simulator counts the micro-events
// (buffer reads/writes, crossbar traversals, allocator grants, link flits)
// that the power package converts into energy at a given voltage/frequency
// corner.
package noc

import "fmt"

// Config holds the interconnect parameters (paper Table 1).
type Config struct {
	// Width and Height are the mesh dimensions (Table 1: 4×4).
	Width, Height int
	// VCs is the number of virtual channels per input port (Table 1: 4).
	// A router holds at most 64 input VCs, so at most 12 on a 5-port
	// router; NewTopo rejects more.
	VCs int
	// BufferDepth is the flit capacity of each VC buffer (Table 1: 4).
	BufferDepth int
	// PacketLength is the number of flits per packet (Table 1: 5).
	PacketLength int
	// FlitBits is the flit width in bits (Table 1: 16 bytes = 128 bits).
	FlitBits int
	// LinkLatency is the link traversal time in cycles (>= 1).
	LinkLatency int
	// Classes partitions the VCs into independent message classes (e.g.
	// request/reply, or QoS isolation): a packet of class c may only use
	// VCs in its partition, so congestion in one class cannot block
	// another. Must divide VCs. Zero means one class.
	Classes int
}

// DefaultConfig returns the paper's Table 1 interconnect configuration.
func DefaultConfig() Config {
	return Config{
		Width:        4,
		Height:       4,
		VCs:          4,
		BufferDepth:  4,
		PacketLength: 5,
		FlitBits:     128,
		LinkLatency:  1,
		Classes:      1,
	}
}

// Validate reports the first invalid parameter, or nil.
func (c Config) Validate() error {
	if c.Width < 1 || c.Height < 1 {
		return fmt.Errorf("noc: invalid mesh %dx%d", c.Width, c.Height)
	}
	return c.validateFabric()
}

// validateFabric validates the topology-independent fabric parameters —
// everything except the mesh dimensions, which NewTopo ignores in favour of
// the topology's own node set.
func (c Config) validateFabric() error {
	switch {
	case c.VCs < 1:
		return fmt.Errorf("noc: need >= 1 VC, got %d", c.VCs)
	case c.BufferDepth < 1:
		return fmt.Errorf("noc: need buffer depth >= 1, got %d", c.BufferDepth)
	case c.PacketLength < 1:
		return fmt.Errorf("noc: need packet length >= 1, got %d", c.PacketLength)
	case c.FlitBits < 1:
		return fmt.Errorf("noc: need flit width >= 1 bit, got %d", c.FlitBits)
	case c.LinkLatency < 1:
		return fmt.Errorf("noc: need link latency >= 1, got %d", c.LinkLatency)
	case c.Classes < 0 || (c.Classes > 0 && c.VCs%c.Classes != 0):
		return fmt.Errorf("noc: %d classes must divide %d VCs", c.Classes, c.VCs)
	}
	return nil
}

// classes returns the effective class count (>= 1).
func (c Config) classes() int {
	if c.Classes < 1 {
		return 1
	}
	return c.Classes
}

// vcsPerClass returns the VC partition size.
func (c Config) vcsPerClass() int { return c.VCs / c.classes() }

// Nodes returns the mesh node count.
func (c Config) Nodes() int { return c.Width * c.Height }
