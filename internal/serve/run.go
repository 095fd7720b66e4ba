package serve

import (
	"fmt"

	"nocsprint/internal/core"
)

// RunExperiment is the default RunFunc: it looks the spec's experiment up in
// the core registry and runs it exactly as the CLI's -json mode does, so a
// daemon job's result bytes match the CLI's for the same spec. The
// sweep-shaped drivers journal through sim.Journal and honour
// sim.Ctx/sim.Abort; analytic experiments simply recompute after a restart.
func RunExperiment(spec JobSpec, sim core.NetSimParams) (any, error) {
	e, ok := core.LookupExperiment(spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("serve: unknown experiment %q", spec.Experiment)
	}
	return e.Run(sim, spec.Fast)
}
