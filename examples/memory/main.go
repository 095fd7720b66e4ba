// Memory-system study (the §3.4 scenario): drive the tiled shared-LLC
// hierarchy with closed-loop traffic over the cycle-accurate NoC and
// compare the three ways a sprinting chip can treat dark cache banks —
// no gating at all, remapping homes onto the active banks, or the paper's
// bypass paths.
package main

import (
	"fmt"
	"log"

	"nocsprint/internal/cache"
	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
)

func main() {
	const level = 4
	m := mesh.New(4, 4)
	region := sprint.NewRegion(m, 0, level, sprint.Euclidean)

	ccfg := cache.DefaultConfig()
	// Scale the hierarchy down so the example finishes in seconds while
	// keeping the capacity ratios: the working set fits 16 banks but
	// overflows the 4 active ones.
	ccfg.L1Sets, ccfg.L1Ways = 16, 2
	ccfg.L2Sets, ccfg.L2Ways = 64, 4

	mkStream := func(node int) *cache.Stream {
		s, err := cache.NewStream(cache.StreamParams{
			WorkingSetLines: 800,
			SharedLines:     128,
			SeqProb:         0.6,
			SharedProb:      0.2,
			WriteProb:       0.25,
			PrivateBase:     uint64(1+node) << 24,
			Seed:            int64(900 + node),
		})
		if err != nil {
			log.Fatal(err)
		}
		return s
	}

	fmt.Printf("level-%d sprint, %d-line working set per core, LLC: 16 banks x %d lines\n\n",
		level, 800, ccfg.L2Sets*ccfg.L2Ways)
	fmt.Println("configuration                  AMAT    L1 miss  L2 miss  bypass   cycles")

	for _, tc := range []struct {
		name   string
		policy cache.HomePolicy
		gated  bool
	}{
		{"full network, all banks     ", cache.HomeAllTiles, false},
		{"gated + remap to active     ", cache.HomeActiveOnly, true},
		{"gated + bypass paths (paper)", cache.HomeAllTiles, true},
	} {
		ncfg := noc.DefaultConfig()
		ncfg.Classes = 2 // requests and data ride separate VC partitions
		var (
			net *noc.Network
			err error
		)
		if tc.gated {
			net, err = noc.New(ncfg, routing.NewCDOR(region), region.ActiveNodes())
		} else {
			net, err = noc.New(ncfg, routing.NewDOR(m), nil)
		}
		if err != nil {
			log.Fatal(err)
		}
		sys, err := cache.NewSystem(ccfg, net, region, tc.policy, tc.gated, mkStream)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.RunCtx(nil, 2000, 5_000_000); err != nil {
			log.Fatal(err)
		}
		st := sys.Stats()
		fmt.Printf("%s  %6.1f  %6.3f   %6.3f   %6d   %d\n",
			tc.name, st.AMAT(), st.L1MissRate(), st.L2MissRate(), st.BypassTransfers, sys.Cycles())
	}
	fmt.Println("\nBypass paths keep the full LLC hit rate under gating; remapping")
	fmt.Println("avoids the bypass hardware but falls off the capacity cliff.")
}
