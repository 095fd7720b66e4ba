// Package cache models the memory system of Table 1 — private L1s, a
// shared tiled L2 (one bank per tile, address-interleaved homes), MESI-era
// request/response traffic, and a memory controller at the master corner —
// as a closed-loop client of the cycle-accurate NoC.
//
// It exists to evaluate §3.4: with a tile-based shared LLC, NoC-sprinting's
// power gating would cut cores off from cache banks that home their data.
// The paper adopts bypass paths (Chen & Pinkston's NoRD) so dark banks stay
// reachable without waking routers; the alternative is remapping homes onto
// the active region, which costs capacity. Both policies are implemented
// and measurable.
package cache

import (
	"fmt"
)

// Config sizes the memory hierarchy (Table 1: 64 KB private L1, 4 MB shared
// tiled L2, 64 B lines; latencies are typical 45 nm-class cycle counts).
type Config struct {
	// LineBytes is the cache-line size (Table 1: 64 B).
	LineBytes int
	// L1Sets and L1Ways size each core's private L1 (256×4×64 B = 64 KB).
	L1Sets, L1Ways int
	// L2Sets and L2Ways size each tile's L2 bank (512×8×64 B = 256 KB;
	// 16 banks = Table 1's 4 MB).
	L2Sets, L2Ways int
	// L2HitCycles is the bank access latency.
	L2HitCycles int
	// MemCycles is the DRAM access latency at the memory controller.
	MemCycles int
	// ReqFlits and DataFlits are the control/data packet lengths.
	ReqFlits, DataFlits int
	// BypassPerHopCycles is the per-hop latency of the bypass path that
	// reaches a dark tile's bank without waking its router (§3.4).
	BypassPerHopCycles int
	// BypassBaseCycles is the fixed bypass setup latency.
	BypassBaseCycles int
}

// DefaultConfig returns the Table 1 memory system.
func DefaultConfig() Config {
	return Config{
		LineBytes: 64,
		L1Sets:    256, L1Ways: 4,
		L2Sets: 512, L2Ways: 8,
		L2HitCycles:        6,
		MemCycles:          120,
		ReqFlits:           1,
		DataFlits:          5,
		BypassPerHopCycles: 3,
		BypassBaseCycles:   4,
	}
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	switch {
	case c.LineBytes < 1:
		return fmt.Errorf("cache: line bytes %d < 1", c.LineBytes)
	case c.L1Sets < 1 || c.L1Ways < 1 || c.L2Sets < 1 || c.L2Ways < 1:
		return fmt.Errorf("cache: invalid geometry")
	case c.L2HitCycles < 1 || c.MemCycles < 1:
		return fmt.Errorf("cache: invalid latencies")
	case c.ReqFlits < 1 || c.DataFlits < 1:
		return fmt.Errorf("cache: invalid packet lengths")
	case c.BypassPerHopCycles < 1 || c.BypassBaseCycles < 0:
		return fmt.Errorf("cache: invalid bypass latencies")
	}
	return nil
}

// line is one tag entry.
type line struct {
	tag   uint64
	dirty bool
}

// Array is a set-associative tag array with true-LRU replacement. It tracks
// tags only — the simulator models traffic and timing, not data.
type Array struct {
	sets [][]line // each set ordered MRU..LRU
	ways int
}

// NewArray returns a sets×ways array. It panics on non-positive geometry
// (construction-time programming error).
func NewArray(sets, ways int) *Array {
	if sets < 1 || ways < 1 {
		panic(fmt.Sprintf("cache: invalid array %dx%d", sets, ways))
	}
	a := &Array{sets: make([][]line, sets), ways: ways}
	return a
}

// lookupSet returns the set index for a line address.
func (a *Array) lookupSet(lineAddr uint64) int {
	return int(lineAddr % uint64(len(a.sets)))
}

// Access touches lineAddr: on a hit it updates LRU (and the dirty bit if
// write) and returns hit=true. On a miss it returns hit=false and does NOT
// install — call Install once the fill arrives.
func (a *Array) Access(lineAddr uint64, write bool) bool {
	si := a.lookupSet(lineAddr)
	set := a.sets[si]
	for i, l := range set {
		if l.tag == lineAddr {
			l.dirty = l.dirty || write
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = l
			return true
		}
	}
	return false
}

// Install places lineAddr at MRU, evicting the LRU entry if the set is
// full. It returns the victim line address and whether it was dirty
// (needing a writeback), with evicted=false when no eviction occurred.
func (a *Array) Install(lineAddr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	si := a.lookupSet(lineAddr)
	set := a.sets[si]
	// Refuse duplicate installs (caller bug): treat as access.
	for i, l := range set {
		if l.tag == lineAddr {
			l.dirty = l.dirty || dirty
			copy(set[1:i+1], set[:i])
			set[0] = l
			return 0, false, false
		}
	}
	if len(set) >= a.ways {
		v := set[len(set)-1]
		victim, victimDirty, evicted = v.tag, v.dirty, true
		set = set[:len(set)-1]
	}
	set = append(set, line{})
	copy(set[1:], set)
	set[0] = line{tag: lineAddr, dirty: dirty}
	a.sets[si] = set
	return victim, victimDirty, evicted
}
