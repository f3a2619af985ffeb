package main

import (
	"fmt"
	"math"

	"mstc/internal/channel"
)

// checkGeometry rejects a node count -n below 2, and an -arena side or a
// -range that is not a positive, finite length in meters. Left through, a
// negative -n panics while placing nodes, a lone node has no other node
// for a flood to reach, and a NaN or infinite arena builds a degenerate
// scene that runs and reports zeros instead of failing.
func checkGeometry(n int, side, normalRange float64) error {
	if n < 2 {
		return fmt.Errorf("-n must be at least 2, got %d", n)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"-arena", side}, {"-range", normalRange}} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s must be positive and finite, got %g", f.name, f.v)
		}
	}
	return nil
}

// channelFlags are the raw non-ideal-channel flag values. They map onto
// channel.Config in buildChannel, which also validates the combinations a
// flag parser can get wrong before manet's config validation would reject
// them with a less actionable message.
type channelFlags struct {
	Loss      float64 // -loss: per-packet loss probability
	LossModel string  // -loss-model: bernoulli | gilbert
	LossBurst float64 // -loss-burst: Gilbert–Elliott mean burst length
	DelayMin  float64 // -delay-min: minimum per-delivery delay (s)
	DelayMax  float64 // -delay-max: maximum per-delivery delay Δ″ (s)
	Churn     float64 // -churn: expected fraction of nodes down
	Outage    float64 // -churn-outage: mean outage duration (s)
}

// buildChannel turns the flag values into a channel configuration.
func (f channelFlags) buildChannel() (channel.Config, error) {
	var cfg channel.Config
	switch f.LossModel {
	case "", "bernoulli":
		if f.LossBurst > 0 {
			return cfg, fmt.Errorf("-loss-burst requires -loss-model gilbert")
		}
		if f.Loss > 0 {
			cfg.Loss = channel.LossConfig{Model: channel.Bernoulli, Rate: f.Loss}
		}
	case "gilbert":
		if f.Loss <= 0 {
			return cfg, fmt.Errorf("-loss-model gilbert requires -loss > 0")
		}
		cfg.Loss = channel.LossConfig{
			Model: channel.GilbertElliott, Rate: f.Loss, MeanBurst: f.LossBurst,
		}
	default:
		return cfg, fmt.Errorf("unknown -loss-model %q (want bernoulli or gilbert)", f.LossModel)
	}
	if f.DelayMax > 0 || f.DelayMin > 0 {
		cfg.Delay = channel.DelayConfig{Min: f.DelayMin, Max: f.DelayMax}
	}
	if f.Churn > 0 {
		if f.Churn >= 1 {
			return cfg, fmt.Errorf("-churn %g is an expected down fraction, want (0, 1)", f.Churn)
		}
		outage := f.Outage
		if outage <= 0 {
			outage = 2
		}
		cfg.Churn = channel.ChurnConfig{
			MeanUp:   outage * (1 - f.Churn) / f.Churn,
			MeanDown: outage,
		}
	} else if f.Outage > 0 {
		return cfg, fmt.Errorf("-churn-outage requires -churn > 0")
	}
	return cfg, cfg.Validate()
}
