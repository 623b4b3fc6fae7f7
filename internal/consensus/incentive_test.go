package consensus

import (
	"math"
	"testing"
)

// equilibriumValidators returns the closed-form steady state of the
// model: the population the reward pool can sustain (never below the
// subsidized floor).
func equilibriumValidators(cfg IncentiveConfig) int {
	cfg = cfg.withDefaults()
	pool := cfg.TaxPerRound * float64(cfg.RoundsPerEpoch)
	eq := pool / cfg.OperatingCost
	if eq < float64(cfg.Subsidized) {
		eq = float64(cfg.Subsidized)
	}
	return int(math.Round(eq))
}

func TestQuorumFaultTolerance(t *testing.T) {
	tests := []struct {
		n, want int
	}{
		{0, 0},
		{5, 2},  // quorum 4: losing 2 breaks it
		{10, 3}, // quorum 8
		{13, 3}, // quorum ceil(10.4)=11
		{100, 21},
	}
	for _, tt := range tests {
		if got := quorumFaultTolerance(tt.n); got != tt.want {
			t.Errorf("quorumFaultTolerance(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestIncentivesConvergeToEquilibrium(t *testing.T) {
	cfg := IncentiveConfig{
		TaxPerRound:    0.5,
		RoundsPerEpoch: 100_000,
		OperatingCost:  1000,
		Epochs:         120,
	}
	// Equilibrium: 0.5×100k/1000 = 50 validators.
	eq := equilibriumValidators(cfg)
	if eq != 50 {
		t.Fatalf("equilibrium = %d, want 50", eq)
	}
	series := SimulateIncentives(cfg)
	last := series[len(series)-1]
	if math.Abs(float64(last.Validators-eq)) > 3 {
		t.Errorf("converged to %d validators, want ≈%d", last.Validators, eq)
	}
	// Fault tolerance grew with the population.
	if last.FaultTolerance <= series[0].FaultTolerance {
		t.Errorf("fault tolerance did not improve: %d -> %d",
			series[0].FaultTolerance, last.FaultTolerance)
	}
	// Profit approaches zero at equilibrium.
	if math.Abs(last.Profit) > 0.2*cfg.OperatingCost {
		t.Errorf("profit at equilibrium = %v, want ≈0", last.Profit)
	}
}

func TestZeroTaxDecaysToSubsidizedFloor(t *testing.T) {
	// Ripple's actual design: fees are destroyed, validators earn
	// nothing ("the validation process does not raise any revenue").
	series := SimulateIncentives(IncentiveConfig{
		TaxPerRound:       0,
		InitialValidators: 30,
		Subsidized:        5,
		Epochs:            100,
	})
	last := series[len(series)-1]
	if last.Validators != 5 {
		t.Errorf("population with zero reward = %d, want the 5 subsidized (R1–R5)", last.Validators)
	}
	// The paper's robustness concern in numbers: tolerance collapses.
	if last.FaultTolerance > 2 {
		t.Errorf("fault tolerance = %d; five validators tolerate at most 2 losses", last.FaultTolerance)
	}
}

func TestHigherTaxMoreValidators(t *testing.T) {
	counts := make([]int, 0, 3)
	for _, tax := range []float64{0.1, 0.5, 2.5} {
		series := SimulateIncentives(IncentiveConfig{
			TaxPerRound: tax, RoundsPerEpoch: 100_000, OperatingCost: 1000, Epochs: 150,
		})
		counts = append(counts, series[len(series)-1].Validators)
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Errorf("validator counts not increasing with tax: %v", counts)
	}
}

func TestIncentivesDeterministicWithoutSeed(t *testing.T) {
	cfg := IncentiveConfig{TaxPerRound: 1, RoundsPerEpoch: 50_000, Epochs: 30}
	a := SimulateIncentives(cfg)
	b := SimulateIncentives(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d differs across runs without a seed", i)
		}
	}
}

func TestIncentivesNoiseBounded(t *testing.T) {
	cfg := IncentiveConfig{
		TaxPerRound: 0.5, RoundsPerEpoch: 100_000, OperatingCost: 1000,
		Epochs: 200, Seed: 9,
	}
	series := SimulateIncentives(cfg)
	eq := equilibriumValidators(cfg)
	// After convergence, noise keeps the population near equilibrium.
	for _, p := range series[100:] {
		if p.Validators < eq/2 || p.Validators > eq*2 {
			t.Fatalf("epoch %d: population %d wandered far from equilibrium %d", p.Epoch, p.Validators, eq)
		}
	}
}
