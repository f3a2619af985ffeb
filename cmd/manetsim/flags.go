package main

import (
	"fmt"
	"math"

	"mstc/internal/channel"
)

// checkScene rejects a node count -n below 2, and an -arena side, a
// -range or a -duration that is not positive and finite. Left through, a
// negative -n panics while placing nodes, a lone node has no other node
// for a flood to reach, and a NaN or infinite arena builds a degenerate
// scene that runs and reports zeros instead of failing.
func checkScene(n int, side, normalRange, duration float64) error {
	if n < 2 {
		return fmt.Errorf("-n must be at least 2, got %d", n)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"-arena", side}, {"-range", normalRange}, {"-duration", duration}} {
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
// an ideal channel. Each flag is validated alone before the pair of delay
// bounds, so the error names the flag at fault.
func (f channelFlags) buildChannel() (channel.Config, error) {
	cfg := channel.Config{
		Loss:  channel.LossConfig{Rate: f.Loss},
		Delay: channel.DelayConfig{Min: f.DelayMin, Max: f.DelayMax},
	}
	for _, c := range []struct {
		flags string
		cfg   channel.Config
	}{
		{"-loss", channel.Config{Loss: cfg.Loss}},
		{"-delay-max", channel.Config{Delay: channel.DelayConfig{Max: f.DelayMax}}},
		{"-delay-min", channel.Config{Delay: channel.DelayConfig{Min: f.DelayMin, Max: math.Max(f.DelayMin, f.DelayMax)}}},
		{"-delay-min and -delay-max", cfg},
	} {
		if err := c.cfg.Validate(); err != nil {
			return channel.Config{}, fmt.Errorf("%s: %w", c.flags, err)
		}
	}
	return cfg, nil
}
