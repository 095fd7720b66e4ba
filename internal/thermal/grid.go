// Package thermal models on-chip temperature in the style of HotSpot plus
// the phase-change-material (PCM) heat storage that computational sprinting
// relies on. Two models are provided:
//
//   - a steady-state RC grid (SteadyState) that turns a per-tile power map
//     into a heat map — the paper's Figure 12; and
//   - a lumped chip RC model with a latent-heat PCM reservoir (Lumped, and
//     LumpedState to step it) that reproduces the three sprint phases of
//     Figure 1 and yields sprint duration as a function of sprint power
//     (§4.4).
package thermal

import (
	"fmt"
	"math"
)

// GridConfig parameterises the RC grid solver. The chip is W×H tiles, each
// subdivided into Sub×Sub grid cells ("fine-grained grid model", §4.4).
type GridConfig struct {
	// W, H are the tile grid dimensions (4×4 for the 16-core CMP).
	W, H int
	// Sub is the per-tile subdivision factor (cells per tile edge).
	Sub int
	// RvCell is the vertical thermal resistance from one cell through the
	// package to ambient, in K/W.
	RvCell float64
	// RlatCell is the lateral resistance between adjacent cells, in K/W.
	RlatCell float64
	// RedgeCell is the extra lateral resistance from boundary cells to the
	// package rim (held at spreader temperature); it makes the chip centre
	// run hotter than the edges under uniform power.
	RedgeCell float64
	// RconvKperW is the shared spreader/heat-sink convection resistance:
	// total chip power raises the whole spreader above ambient by
	// P_total·Rconv before any local gradients form. This is the HotSpot
	// package path that makes full-sprinting (~106 W) run globally hotter
	// than any 4-core sprint (~33 W).
	RconvKperW float64
	// AmbientK is the ambient (package) temperature in kelvin.
	AmbientK float64
}

// DefaultGridConfig returns the 16-tile configuration calibrated against
// the paper's Figure 12 peak temperatures — 358.3 K full-sprint, 347.79 K
// 4-core clustered, 343.81 K 4-core floorplanned, at ~6.45 W per active
// tile (the calibration reproduces all three within 0.2 K).
func DefaultGridConfig() GridConfig {
	return GridConfig{
		W: 4, H: 4, Sub: 8,
		RvCell:     265.0,
		RlatCell:   45.0,
		RedgeCell:  600.0,
		RconvKperW: 0.13,
		AmbientK:   318.15, // 45 °C ambient, as in computational sprinting
	}
}

// Validate reports the first invalid field, or nil.
func (c GridConfig) Validate() error {
	switch {
	case c.W < 1 || c.H < 1:
		return fmt.Errorf("thermal: invalid tile grid %dx%d", c.W, c.H)
	case c.Sub < 1:
		return fmt.Errorf("thermal: invalid subdivision %d", c.Sub)
	case c.RvCell <= 0 || c.RlatCell <= 0 || c.RedgeCell <= 0:
		return fmt.Errorf("thermal: resistances must be positive")
	case c.RconvKperW < 0:
		return fmt.Errorf("thermal: negative convection resistance")
	case c.AmbientK <= 0:
		return fmt.Errorf("thermal: ambient %g K not physical", c.AmbientK)
	}
	return nil
}

// cells returns the fine-grid dimensions.
func (c GridConfig) cells() (int, int) { return c.W * c.Sub, c.H * c.Sub }

// HeatMap is a solved temperature field over the fine grid.
type HeatMap struct {
	// W, H are fine-grid dimensions (tiles × Sub).
	W, H int
	// T holds cell temperatures in kelvin, row-major.
	T []float64
}

// At returns the temperature at fine-grid cell (x, y).
func (h *HeatMap) At(x, y int) float64 { return h.T[y*h.W+x] }

// Peak returns the maximum temperature and its cell coordinates.
func (h *HeatMap) Peak() (float64, int, int) {
	best, bx, by := math.Inf(-1), 0, 0
	for y := 0; y < h.H; y++ {
		for x := 0; x < h.W; x++ {
			if t := h.At(x, y); t > best {
				best, bx, by = t, x, y
			}
		}
	}
	return best, bx, by
}

// Mean returns the average temperature over the grid.
func (h *HeatMap) Mean() float64 {
	var s float64
	for _, t := range h.T {
		s += t
	}
	return s / float64(len(h.T))
}

// TileMean returns the mean temperature of tile (tx, ty) given the
// subdivision factor used to build the map.
func (h *HeatMap) TileMean(tx, ty, sub int) float64 {
	var s float64
	for dy := 0; dy < sub; dy++ {
		for dx := 0; dx < sub; dx++ {
			s += h.At(tx*sub+dx, ty*sub+dy)
		}
	}
	return s / float64(sub*sub)
}

// SteadyState solves the steady thermal field for the given per-tile power
// map (watts per tile, row-major, length W*H) by Gauss–Seidel iteration.
func SteadyState(cfg GridConfig, tilePower []float64) (*HeatMap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gw, gh := cfg.cells()
	cellP := make([]float64, gw*gh)
	base, err := cfg.spread(tilePower, cellP)
	if err != nil {
		return nil, err
	}

	T := make([]float64, gw*gh)
	for i := range T {
		T[i] = base
	}
	gLat := 1.0 / cfg.RlatCell
	gV := 1.0 / cfg.RvCell
	gEdge := 1.0 / cfg.RedgeCell

	const (
		maxIter = 200000
		tol     = 1e-7
	)
	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		for y := 0; y < gh; y++ {
			for x := 0; x < gw; x++ {
				i := y*gw + x
				num := cellP[i] + base*gV
				den := gV
				if x > 0 {
					num += T[i-1] * gLat
					den += gLat
				} else {
					num += base * gEdge
					den += gEdge
				}
				if x < gw-1 {
					num += T[i+1] * gLat
					den += gLat
				} else {
					num += base * gEdge
					den += gEdge
				}
				if y > 0 {
					num += T[i-gw] * gLat
					den += gLat
				} else {
					num += base * gEdge
					den += gEdge
				}
				if y < gh-1 {
					num += T[i+gw] * gLat
					den += gLat
				} else {
					num += base * gEdge
					den += gEdge
				}
				nt := num / den
				if d := math.Abs(nt - T[i]); d > maxDelta {
					maxDelta = d
				}
				T[i] = nt
			}
		}
		if maxDelta < tol {
			return &HeatMap{W: gw, H: gh, T: T}, nil
		}
	}
	return nil, fmt.Errorf("thermal: steady state did not converge")
}

// spread checks a per-tile power map (watts per tile, row-major, length
// W*H: finite and non-negative), spreads each tile's watts evenly over its
// cells in cellP, and returns the spreader base temperature: the spreader
// sits above ambient by the whole map's shared convection drop, and the grid
// solves local gradients relative to it.
func (cfg GridConfig) spread(tilePower, cellP []float64) (float64, error) {
	if len(tilePower) != cfg.W*cfg.H {
		return 0, fmt.Errorf("thermal: power map has %d tiles, grid has %d", len(tilePower), cfg.W*cfg.H)
	}
	var totalP float64
	for i, p := range tilePower {
		if !finiteNonNeg(p) {
			return 0, fmt.Errorf("thermal: invalid power %g at tile %d", p, i)
		}
		totalP += p
	}
	gw, _ := cfg.cells()
	per := float64(cfg.Sub * cfg.Sub)
	for ty := 0; ty < cfg.H; ty++ {
		for tx := 0; tx < cfg.W; tx++ {
			p := tilePower[ty*cfg.W+tx] / per
			for dy := 0; dy < cfg.Sub; dy++ {
				for dx := 0; dx < cfg.Sub; dx++ {
					cellP[(ty*cfg.Sub+dy)*gw+tx*cfg.Sub+dx] = p
				}
			}
		}
	}
	return cfg.AmbientK + totalP*cfg.RconvKperW, nil
}
