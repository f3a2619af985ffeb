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

// channelFlags are the raw non-ideal-channel flag values.
type channelFlags struct {
	Loss     float64 // -loss: per-packet loss probability
	DelayMin float64 // -delay-min: minimum per-delivery delay (s)
	DelayMax float64 // -delay-max: maximum per-delivery delay Δ″ (s)
}

// buildChannel copies every flag value into a channel configuration and
// validates it, so a negative or NaN value fails here instead of running
// an ideal channel.
func (f channelFlags) buildChannel() (channel.Config, error) {
	cfg := channel.Config{
		Loss:  channel.LossConfig{Rate: f.Loss},
		Delay: channel.DelayConfig{Min: f.DelayMin, Max: f.DelayMax},
	}
	return cfg, cfg.Validate()
}
