// Burst-trace timeline (the Figure 1 scenario, end to end): an online sprint
// controller receives a train of compute bursts, sprints at NoC-sprinting's
// level for each, and interacts with the chip's thermal state — PCM melting,
// the junction limit, throttling, and re-solidification between bursts.
// `nocsprint controller` compares the three schemes on this trace; this
// program prints NoC-sprinting's temperature timeline over its first 10 s.
package main

import (
	"fmt"
	"log"

	"nocsprint/internal/core"
	"nocsprint/internal/workload"
)

func main() {
	sprinter, err := core.New(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A bursty interactive trace: dedup, swaptions and vips bursts arriving
	// every 4 seconds, each worth 1.2 single-core seconds.
	var bursts []core.Burst
	for i, name := range []string{"dedup", "swaptions", "dedup", "vips", "swaptions", "dedup"} {
		p, err := workload.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		bursts = append(bursts, core.Burst{Profile: p, WorkSeconds: 1.2, ArrivalS: float64(i) * 4})
	}

	res, err := sprinter.RunTrace(core.NoCSprinting, bursts, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("NoC-sprinting timeline (decimated):")
	fmt.Println("  t(s)   T(K)    level  melted  throttled")
	for _, s := range res.Samples {
		if s.TimeS > 10 {
			break
		}
		fmt.Printf("  %5.2f  %6.2f  %5d  %5.1f%%  %v\n",
			s.TimeS, s.TempK, s.Level, s.MeltFraction*100, s.Throttled)
	}
}
