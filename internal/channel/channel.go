// Package channel is the non-ideal channel subsystem: deterministic,
// seedable fault injection layered over the ideal-disc radio. It models the
// two degradations the paper's mobility-management mechanisms were
// designed to survive —
//
//   - i.i.d. (Bernoulli) per-packet loss, probing the weak-consistency
//     tolerance of lost "Hello"s (Theorems 3–4);
//   - bounded random per-delivery delay drawn uniformly from [Min, Max],
//     the Δ″ of Theorem 5's buffer zone l = 2·Δ″·v.
//
// Determinism contract: every stochastic choice draws from a dedicated
// xrand substream derived from the Model's root source — per-receiver loss
// chains from ('l', id), one uniform per packet, and per-delivery delays
// from substreams of the ('d') parent keyed by the delivery's identity
// (see HelloDelay/FloodDelay).
// The ideal configuration (zero value) builds no Model at all and consumes
// no randomness, so simulations with the default channel are bit-identical
// to ones that predate this package (pinned by the experiment package's
// golden differential test).
package channel

import (
	"fmt"
	"math"

	"mstc/internal/xrand"
)

// LossConfig parameterizes the loss process: each reception is dropped
// independently with probability Rate. The zero value is lossless.
type LossConfig struct {
	// Rate is the per-packet loss probability in [0, 1). 0 disables loss.
	Rate float64
}

// Enabled reports whether the loss process drops anything.
func (c LossConfig) Enabled() bool { return c.Rate > 0 }

// validate reports loss-configuration errors. The test is the negated
// in-range check, so a NaN rate fails it.
func (c LossConfig) validate() error {
	if !(c.Rate >= 0 && c.Rate < 1) {
		return fmt.Errorf("channel: loss rate %g outside [0, 1)", c.Rate)
	}
	return nil
}

// DelayConfig bounds the per-delivery random delay: each reception is
// deferred by an independent uniform draw from [Min, Max] seconds. Max is
// the Δ″ of Theorem 5. The zero value delivers instantaneously.
type DelayConfig struct {
	Min, Max float64
}

// Enabled reports whether deliveries are deferred.
func (c DelayConfig) Enabled() bool { return c.Max > 0 }

// validate reports delay-configuration errors. The test is the negated
// in-range check, so a NaN or infinite bound fails it.
func (c DelayConfig) validate() error {
	if !(c.Min >= 0 && c.Min <= c.Max && c.Max <= math.MaxFloat64) {
		return fmt.Errorf("channel: need finite 0 <= delay Min <= Max, got [%g, %g]", c.Min, c.Max)
	}
	return nil
}

// Config composes the two fault processes. The zero value is the ideal
// channel: no loss, no delay, no randomness consumed.
type Config struct {
	Loss  LossConfig
	Delay DelayConfig
}

// Enabled reports whether any fault process is configured — false means the
// channel is ideal and no Model needs to exist.
func (c Config) Enabled() bool {
	return c.Loss.Enabled() || c.Delay.Enabled()
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Loss.validate(); err != nil {
		return err
	}
	return c.Delay.validate()
}

// Model is one run's channel state: per-receiver loss chains and the delay
// substream parent. Build with NewModel; nil is the ideal channel
// everywhere a *Model is accepted. The loss chains are single-goroutine
// state like the engine that advances them; the delay parent is
// derivation-only and therefore safe to key from concurrently.
type Model struct {
	cfg   Config
	links []*xrand.Source // per-receiver loss chains; nil when loss is off
	delay *xrand.Source   // keyed per-delivery delay parent; nil when delay is off
}

// NewModel validates cfg and builds the channel state for n receivers over
// the given root substream. An ideal cfg returns (nil, nil): callers keep a
// nil Model and pay nothing.
func NewModel(cfg Config, n int, rng *xrand.Source) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if n <= 0 {
		return nil, fmt.Errorf("channel: need a positive receiver count, got %d", n)
	}
	m := &Model{cfg: cfg}
	if cfg.Loss.Enabled() {
		m.links = make([]*xrand.Source, n)
		for i := range m.links {
			m.links[i] = rng.Sub('l', uint64(i))
		}
	}
	if cfg.Delay.Enabled() {
		m.delay = rng.Sub('d')
	}
	return m, nil
}

// LossEnabled reports whether receptions can be dropped. Safe on nil.
func (m *Model) LossEnabled() bool { return m != nil && m.links != nil }

// FilterLost removes lost receivers from ids in place (preserving order)
// and returns the kept prefix. Each listed receiver's chain draws one
// uniform, in the order given — callers pass ascending ids, so randomness
// consumption is position-independent and deterministic.
func (m *Model) FilterLost(ids []int) []int {
	if !m.LossEnabled() {
		return ids
	}
	kept := ids[:0]
	for _, id := range ids {
		if m.links[id].Float64() >= m.cfg.Loss.Rate {
			kept = append(kept, id)
		}
	}
	return kept
}

// DelayEnabled reports whether deliveries are deferred. Safe on nil.
func (m *Model) DelayEnabled() bool { return m != nil && m.delay != nil }

// delayKindHello and delayKindFlood are the constant first labels that
// keep the two delay-derivation sites on the 'd' parent collision-free
// (the substream analyzer's rule A).
const (
	delayKindHello = 'h'
	delayKindFlood = 'b'
)

// HelloDelay returns the delivery delay of one "Hello" reception, uniform
// in [Min, Max] and keyed by (sender, receiver, send-instant bits). The
// derivation is pure: the same reception resolves to the same delay in
// any engine and any evaluation order, and the keyed draw is allocation-
// free, so both the serial pooled-actor path and the region-parallel
// per-domain delivery heaps call it on their hot paths. Safe for
// concurrent use — deriving never advances the 'd' parent. It panics when
// delay is not enabled; callers gate on DelayEnabled.
func (m *Model) HelloDelay(sender, rid int, sentBits uint64) float64 {
	d := m.delay.Derive(delayKindHello, uint64(sender), uint64(rid), sentBits)
	return d.Uniform(m.cfg.Delay.Min, m.cfg.Delay.Max)
}

// FloodDelay returns the delivery delay of one flood-packet reception,
// uniform in [Min, Max] and keyed by (flood sequence number, forwarder,
// receiver) — a node forwards a given flood at most once, so the key is
// unique per reception. Purity, concurrency and panic behavior match
// HelloDelay.
func (m *Model) FloodDelay(fid uint64, sender, rid int) float64 {
	d := m.delay.Derive(delayKindFlood, fid, uint64(sender), uint64(rid))
	return d.Uniform(m.cfg.Delay.Min, m.cfg.Delay.Max)
}
