package power

import "fmt"

// ChipComponent identifies a chip-level power component (Figure 3's bars).
type ChipComponent int

// Chip power components.
const (
	CompCore ChipComponent = iota
	CompL2
	CompNoC
	CompMC
	CompOther
	numChipComponents
)

// String returns the component name.
func (c ChipComponent) String() string {
	switch c {
	case CompCore:
		return "core"
	case CompL2:
		return "L2"
	case CompNoC:
		return "NoC"
	case CompMC:
		return "MC"
	case CompOther:
		return "others"
	default:
		return fmt.Sprintf("ChipComponent(%d)", int(c))
	}
}

// MarshalText renders the component name in JSON map keys and text output.
func (c ChipComponent) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// ChipComponents lists all chip power components.
func ChipComponents() []ChipComponent {
	out := make([]ChipComponent, numChipComponents)
	for i := range out {
		out[i] = ChipComponent(i)
	}
	return out
}

// ChipParams is the McPAT-like Niagara2-class chip power model: watts per
// component at the nominal corner (1.0 V, 2 GHz, 45 nm).
type ChipParams struct {
	// CoreActiveW is one core running at full frequency.
	CoreActiveW float64
	// CoreIdleW is one clock-gated (but not power-gated) core: leakage
	// plus residual clocking.
	CoreIdleW float64
	// CoreGatedW is one power-gated core (drowsy retention, ~0).
	CoreGatedW float64
	// L2BankW is one tile's shared-L2 bank (always on: it holds shared
	// state and the directory, which is why a gated-off node would block
	// shared-resource access without NoC support).
	L2BankW float64
	// NoCTileW is one tile's router+links when powered on, at chip-model
	// (McPAT) granularity.
	NoCTileW float64
	// MCW is the memory-controller power (one controller per chip in
	// this model; the master corner sits next to it).
	MCW float64
	// OtherW is PCIe and miscellaneous I/O.
	OtherW float64
	// CoreDynFraction is the dynamic share of CoreActiveW at the nominal
	// corner, used when scaling core power to other (V, f) points.
	CoreDynFraction float64
}

// DefaultChipParams returns the Niagara2-calibrated model. The constants
// are fitted so that nominal operation (one active core, NoC un-gated)
// reproduces Figure 3's NoC shares: 18 %, 26 %, 35 %, 42 % of chip power
// for 4-, 8-, 16-, 32-core chips.
func DefaultChipParams() ChipParams {
	return ChipParams{
		CoreActiveW:     5.4,
		CoreIdleW:       3.2,
		CoreGatedW:      0.01,
		L2BankW:         0.50,
		NoCTileW:        0.55,
		MCW:             1.5,
		OtherW:          1.5,
		CoreDynFraction: 0.7,
	}
}

// ChipBreakdown is chip power in watts per component.
type ChipBreakdown map[ChipComponent]float64

// Total returns total chip power in watts. Components are added in fixed
// enum order so the float total is bit-for-bit reproducible across runs
// (map iteration order is randomized and would perturb the last bits).
func (b ChipBreakdown) Total() float64 {
	var s float64
	for c := ChipComponent(0); c < numChipComponents; c++ {
		s += b[c]
	}
	return s
}

// Share returns component c's fraction of total chip power.
func (b ChipBreakdown) Share(c ChipComponent) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b[c] / t
}

// ChipPower computes chip power for a chip of active+idle+gated tiles:
// active cores run, idle ones are clock-gated but leak, gated ones are dark
// silicon, and nocTilesOn routers are powered. Shared L2 banks and memory
// controllers stay on regardless of core state.
func (p ChipParams) ChipPower(active, idle, gated, nocTilesOn int) (ChipBreakdown, error) {
	if active < 0 || idle < 0 || gated < 0 {
		return nil, fmt.Errorf("power: negative core count (%d active, %d idle, %d gated)", active, idle, gated)
	}
	n := active + idle + gated
	if n == 0 {
		return nil, fmt.Errorf("power: no cores")
	}
	if nocTilesOn < 0 || nocTilesOn > n {
		return nil, fmt.Errorf("power: %d NoC tiles on for %d tiles", nocTilesOn, n)
	}
	// Summed core by core, active ones first: a count times a per-core
	// wattage can round differently in the last bit.
	var core float64
	for i := 0; i < n; i++ {
		switch {
		case i < active:
			core += p.CoreActiveW
		case i < active+idle:
			core += p.CoreIdleW
		default:
			core += p.CoreGatedW
		}
	}
	return ChipBreakdown{
		CompCore:  core,
		CompL2:    float64(n) * p.L2BankW,
		CompNoC:   float64(nocTilesOn) * p.NoCTileW,
		CompMC:    p.MCW,
		CompOther: p.OtherW,
	}, nil
}

// CoreActiveAt scales one active core's power to an arbitrary operating
// corner relative to Nominal (1.0 V, 2 GHz): the dynamic share scales with
// V²·f, the leakage share with V. This is how "dim silicon" — many cores at
// reduced voltage/frequency — trades against "dark silicon" — few cores at
// full speed.
func (p ChipParams) CoreActiveAt(c Corner) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	vr := c.VDD / Nominal.VDD
	fr := c.FreqHz / Nominal.FreqHz
	dyn := p.CoreActiveW * p.CoreDynFraction * vr * vr * fr
	leak := p.CoreActiveW * (1 - p.CoreDynFraction) * vr
	return dyn + leak, nil
}
