package consensus

import (
	"math"
	"math/rand"
)

// The paper's §IV closes with a proposal: "A solution could be
// introducing a carefully crafted reward system that would stimulate the
// entry of new validation servers in Ripple. For example, the reward
// could be defined as an added tax value to the transactions that go
// through in each validation round. A larger number of validators would
// lead to a better distributed validation process."
//
// SimulateIncentives implements that proposal as an entry/exit economy:
// each epoch, the round tax pools into a reward split among active
// validators; operators join when validating is profitable and leave
// when it is not (except the subsidized Ripple Labs machines, which the
// paper expects "will continue to be available anytime in the future").

// IncentiveConfig parameterizes the reward economy.
type IncentiveConfig struct {
	// TaxPerRound is the added tax value collected from the
	// transactions sealed in one round (in arbitrary value units).
	TaxPerRound float64
	// RoundsPerEpoch converts the per-round tax into an epoch-level
	// reward pool (a 2-week period at 5 s/round is ~242k rounds).
	RoundsPerEpoch int
	// OperatingCost is one validator's cost per epoch ("running a
	// validator is an expensive task").
	OperatingCost float64
	// InitialValidators is the starting population.
	InitialValidators int
	// Subsidized validators never exit regardless of profit (R1–R5).
	Subsidized int
	// ElasticityIn and ElasticityOut scale how fast operators enter on
	// profit and leave on loss, as a fraction of the population per
	// unit of relative profit.
	ElasticityIn, ElasticityOut float64
	// Epochs to simulate.
	Epochs int
	// Seed adds small demand noise; zero keeps the model deterministic.
	Seed int64
}

// withDefaults fills unset fields with the defaults used by the
// extension experiment.
func (c IncentiveConfig) withDefaults() IncentiveConfig {
	if c.RoundsPerEpoch == 0 {
		c.RoundsPerEpoch = FullPeriodRounds
	}
	if c.OperatingCost == 0 {
		c.OperatingCost = 1000
	}
	if c.InitialValidators == 0 {
		c.InitialValidators = 13 // the paper's Dec 2015 active set
	}
	if c.Subsidized == 0 {
		c.Subsidized = 5 // R1–R5
	}
	if c.ElasticityIn == 0 {
		c.ElasticityIn = 0.25
	}
	if c.ElasticityOut == 0 {
		c.ElasticityOut = 0.25
	}
	if c.Epochs == 0 {
		c.Epochs = 50
	}
	return c
}

// IncentivePoint is one epoch of the simulation.
type IncentivePoint struct {
	Epoch      int
	Validators int
	// RewardPerValidator is the epoch pool divided by the population.
	RewardPerValidator float64
	// Profit is RewardPerValidator − OperatingCost.
	Profit float64
	// FaultTolerance is how many validators an attacker must take over
	// or down to break the 80% validation quorum — the paper's
	// robustness measure ("a malicious party hijacking or compromising
	// the majority of these validators could endanger the whole
	// system").
	FaultTolerance int
}

// quorumFaultTolerance returns the number of validators whose loss drops
// the remaining honest signers below 80% of the population.
func quorumFaultTolerance(n int) int {
	if n <= 0 {
		return 0
	}
	quorum := int(math.Ceil(0.8 * float64(n)))
	return n - quorum + 1
}

// SimulateIncentives runs the reward economy and returns the epoch
// series. The equilibrium population approaches pool/cost: the reward
// pool supports exactly as many validators as it can pay for.
func SimulateIncentives(cfg IncentiveConfig) []IncentivePoint {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := float64(cfg.InitialValidators)
	out := make([]IncentivePoint, 0, cfg.Epochs)
	for e := 1; e <= cfg.Epochs; e++ {
		pool := cfg.TaxPerRound * float64(cfg.RoundsPerEpoch)
		if cfg.Seed != 0 {
			pool *= 1 + 0.05*rng.NormFloat64() // demand noise
		}
		reward := 0.0
		if n > 0 {
			reward = pool / n
		}
		profit := reward - cfg.OperatingCost
		rel := profit / cfg.OperatingCost
		switch {
		case rel > 0:
			n += cfg.ElasticityIn * rel * n
		case rel < 0:
			n += cfg.ElasticityOut * rel * n // rel is negative: shrink
		}
		if n < float64(cfg.Subsidized) {
			n = float64(cfg.Subsidized)
		}
		count := int(math.Round(n))
		out = append(out, IncentivePoint{
			Epoch:              e,
			Validators:         count,
			RewardPerValidator: reward,
			Profit:             profit,
			FaultTolerance:     quorumFaultTolerance(count),
		})
	}
	return out
}
