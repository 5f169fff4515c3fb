package series

import (
	"fmt"
	"math"
)

// The Lorenz attractor: a second chaotic benchmark, outside the
// paper's three domains, for the generalization check.

// LorenzConfig parameterizes the Lorenz system
//
//	dx/dt = σ(y-x),  dy/dt = x(ρ-z)-y,  dz/dt = xy-βz
//
// integrated with RK4; the emitted series is the x component sampled
// every SampleEvery time units.
type LorenzConfig struct {
	Sigma, Rho, Beta float64
	Dt               float64 // integration step
	SampleEvery      float64 // sampling interval in time units
	N                int     // samples to emit
	Discard          int     // samples dropped from the front (transient)
	X0, Y0, Z0       float64
}

// DefaultLorenz returns the classic chaotic parameter set.
func DefaultLorenz(n int) LorenzConfig {
	return LorenzConfig{
		Sigma: 10, Rho: 28, Beta: 8.0 / 3.0,
		Dt: 0.01, SampleEvery: 0.1,
		N: n, Discard: 100,
		X0: 1, Y0: 1, Z0: 1,
	}
}

// Lorenz integrates the system and returns the x component.
func Lorenz(cfg LorenzConfig) (*Series, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("series: Lorenz N=%d must be positive", cfg.N)
	}
	if cfg.Dt <= 0 || cfg.SampleEvery < cfg.Dt {
		return nil, fmt.Errorf("series: Lorenz Dt=%v SampleEvery=%v invalid", cfg.Dt, cfg.SampleEvery)
	}
	if cfg.Discard < 0 {
		return nil, fmt.Errorf("series: Lorenz Discard=%d must be non-negative", cfg.Discard)
	}
	stepsPerSample := int(math.Round(cfg.SampleEvery / cfg.Dt))
	x, y, z := cfg.X0, cfg.Y0, cfg.Z0
	deriv := func(x, y, z float64) (dx, dy, dz float64) {
		return cfg.Sigma * (y - x), x*(cfg.Rho-z) - y, x*y - cfg.Beta*z
	}
	step := func() {
		k1x, k1y, k1z := deriv(x, y, z)
		k2x, k2y, k2z := deriv(x+cfg.Dt/2*k1x, y+cfg.Dt/2*k1y, z+cfg.Dt/2*k1z)
		k3x, k3y, k3z := deriv(x+cfg.Dt/2*k2x, y+cfg.Dt/2*k2y, z+cfg.Dt/2*k2z)
		k4x, k4y, k4z := deriv(x+cfg.Dt*k3x, y+cfg.Dt*k3y, z+cfg.Dt*k3z)
		x += cfg.Dt / 6 * (k1x + 2*k2x + 2*k3x + k4x)
		y += cfg.Dt / 6 * (k1y + 2*k2y + 2*k3y + k4y)
		z += cfg.Dt / 6 * (k1z + 2*k2z + 2*k3z + k4z)
	}
	total := cfg.N + cfg.Discard
	out := make([]float64, 0, cfg.N)
	for s := 0; s < total; s++ {
		for k := 0; k < stepsPerSample; k++ {
			step()
		}
		if s >= cfg.Discard {
			out = append(out, x)
		}
	}
	return New("lorenz-x", out), nil
}
