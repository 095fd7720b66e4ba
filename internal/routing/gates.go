package routing

import "fmt"

// This file models the cost of CDOR's hardware realisation (the paper's
// §3.2 synthesis result) with a gate-equivalent area model that reproduces
// the "< 2 % area overhead over a conventional DOR switch" claim without a
// Verilog toolchain. The Figure 6 circuit itself is a test oracle
// (gates_test.go).
//
// Areas are in NAND2 gate equivalents (GE), standard-cell rules of thumb:
// a D flip-flop ≈ 4 GE, an SRAM/FF buffer bit ≈ 4 GE (register-based FIFO),
// a 2-input gate ≈ 1 GE, a full magnitude comparator ≈ 3 GE per bit, a
// crossbar crosspoint ≈ 2 GE per bit.

// SwitchParams describes the switch whose area the model estimates.
type SwitchParams struct {
	// Ports is the router radix (5 for a mesh router).
	Ports int
	// VCs and BufferDepth shape the input buffering.
	VCs, BufferDepth int
	// FlitBits is the datapath width.
	FlitBits int
	// CoordBits is the per-dimension coordinate width (2 for a 4×4 mesh).
	CoordBits int
}

// Validate reports the first invalid parameter, or nil.
func (p SwitchParams) Validate() error {
	if p.Ports < 2 || p.VCs < 1 || p.BufferDepth < 1 || p.FlitBits < 1 || p.CoordBits < 1 {
		return fmt.Errorf("routing: invalid switch parameters %+v", p)
	}
	return nil
}

// Area is a switch area breakdown in gate equivalents.
type Area struct {
	BufferGE    float64
	CrossbarGE  float64
	AllocatorGE float64
	RoutingGE   float64
}

// Total returns the summed area.
func (a Area) Total() float64 { return a.BufferGE + a.CrossbarGE + a.AllocatorGE + a.RoutingGE }

const (
	geFlipFlop   = 4.0
	geBufferBit  = 4.0
	geGate       = 1.0
	geCompPerBit = 3.0
	geXbarPerBit = 2.0
)

// routingLogicGE returns the routing-block area: two comparators plus the
// port-request gates, replicated per input port, plus any per-switch state
// flip-flops.
func routingLogicGE(p SwitchParams, portGates, stateFFs float64) float64 {
	comparators := 2 * 2 * geCompPerBit * float64(p.CoordBits) // gt and lt per dimension
	perPort := comparators + portGates*geGate
	return float64(p.Ports)*perPort + stateFFs*geFlipFlop
}

// DORSwitchArea estimates a conventional DOR switch.
func DORSwitchArea(p SwitchParams) (Area, error) {
	if err := p.Validate(); err != nil {
		return Area{}, err
	}
	bufBits := float64(p.Ports * p.VCs * p.BufferDepth * p.FlitBits)
	a := Area{
		BufferGE:   bufBits * geBufferBit,
		CrossbarGE: float64(p.Ports*p.Ports*p.FlitBits) * geXbarPerBit,
		// Separable VA+SA: matrix arbiters, ~(requesters² ) gates each.
		AllocatorGE: 2 * float64((p.Ports*p.VCs)*(p.Ports*p.VCs)) * geGate,
		// DOR port logic: ~7 gates per port (Figure 6 without the
		// connectivity terms).
		RoutingGE: routingLogicGE(p, 7, 0),
	}
	return a, nil
}

// CDORSwitchArea estimates the CDOR switch: DOR plus two connectivity-bit
// flip-flops per switch and the escape gates per port.
func CDORSwitchArea(p SwitchParams) (Area, error) {
	a, err := DORSwitchArea(p)
	if err != nil {
		return Area{}, err
	}
	// Figure 6 adds per port: Ce/Cw qualification of E/W (2 AND), the
	// blocked-escape detection (2 AND + 1 OR), escape steering into N/S
	// (2 AND + 2 OR) ≈ 9 extra gates; plus 2 connectivity FFs and 2
	// master-row compare FFs per switch.
	a.RoutingGE = routingLogicGE(p, 7+9, 4)
	return a, nil
}

// CDOROverhead returns the fractional switch-area overhead of CDOR over
// DOR — the quantity the paper synthesised at 45 nm and found below 2 %.
func CDOROverhead(p SwitchParams) (float64, error) {
	dor, err := DORSwitchArea(p)
	if err != nil {
		return 0, err
	}
	cdor, err := CDORSwitchArea(p)
	if err != nil {
		return 0, err
	}
	return cdor.Total()/dor.Total() - 1, nil
}
