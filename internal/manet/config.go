// Package manet composes the substrates — discrete-event engine, mobility
// model, ideal radio, "Hello" beaconing, and the topology-control framework
// — into the full simulation of the paper's evaluation (§5): nodes beacon
// asynchronously, select logical neighbors, adjust transmission power, and
// forward periodic network-wide floods whose delivery ratio measures weak
// connectivity.
//
// The three mobility-management mechanisms under study are switchable per
// run: the buffer zone (§4.3), the simplified on-the-fly view
// synchronization (§5.1), and the physical-neighbor relaxation (§5.1).
// Weak-consistency selection (§4.2) and reactive strong consistency (§4.1)
// are additionally available beyond what the paper simulated.
package manet

import (
	"fmt"
	"math"

	"mstc/internal/channel"
	"mstc/internal/radio"
	"mstc/internal/topology"
	"mstc/internal/traffic"
)

// Mechanisms selects which mobility-management mechanisms are active.
type Mechanisms struct {
	// Buffer is the buffer-zone width l in meters: nodes transmit with
	// range actual + Buffer (clamped to the normal range).
	Buffer float64
	// ViewSync enables the simplified view-synchronization mechanism:
	// every node re-selects logical neighbors when it originates or
	// forwards a packet, using the latest "Hello" information and its own
	// previously advertised position.
	ViewSync bool
	// PhysicalNeighbors makes receivers accept (and forward) packets even
	// when they are not in the sender's logical neighbor set.
	PhysicalNeighbors bool
	// WeakK > 0 replaces plain selection with weak-consistency selection
	// over the WeakK most recent "Hello" messages per neighbor (§4.2).
	// Requires Config.Weak.
	WeakK int
	// Reactive replaces asynchronous beaconing with synchronized rounds
	// (the reactive strong-consistency scheme, §4.1): all nodes advertise
	// at the start of each "Hello" interval with a shared version and
	// select using only same-version messages.
	Reactive bool
	// Proactive enables the proactive strong-consistency scheme (§4.1):
	// "Hello" messages carry epoch-derived timestamps, every flood packet
	// pins the last complete epoch, and each relaying node re-selects its
	// logical neighbors from the view as of that epoch — so all nodes a
	// packet visits decide on consistent local views (Theorem 2).
	Proactive bool
}

// Config parameterizes one simulation run.
type Config struct {
	// NormalRange is the normal (maximum) transmission range in meters
	// (250 in the paper).
	NormalRange float64
	// HelloMin/HelloMax bound the per-node fixed "Hello" interval,
	// drawn uniformly per node (1 ± 0.25 s in the paper).
	HelloMin, HelloMax float64
	// HelloExpiry drops neighbor entries whose newest message is older
	// than this (default 2 * HelloMax).
	HelloExpiry float64
	// Protocol selects logical neighbors (required unless WeakK > 0).
	Protocol topology.Protocol
	// Weak is the weak-consistency selector used when Mech.WeakK > 0.
	Weak topology.WeakProtocol
	// Mech are the active mobility-management mechanisms.
	Mech Mechanisms
	// Radio configures the medium's bounded-staleness grid. Loss and
	// delay are the channel's (Channel).
	Radio radio.Config
	// Channel configures the non-ideal channel subsystem: i.i.d.
	// per-packet loss and bounded random per-delivery delay (Theorem 5's
	// Δ″), driven by dedicated substreams. The zero value is the ideal
	// channel and is provably bit-identical to not having the subsystem
	// at all.
	Channel channel.Config
	// FloodRate is floods per second used to probe weak connectivity
	// (10 in the paper). 0 disables flooding.
	FloodRate float64
	// Traffic configures the unicast traffic subsystem: CBR flows routed
	// by an AODV-style on-demand or OLSR-style proactive protocol over
	// the controlled logical topology (see traffic.go). The zero value
	// disables it. Mutually exclusive with FloodRate.
	Traffic traffic.Config
	// Unicast configures greedy geographic unicast probes (see
	// unicast.go). The zero value disables them. Mutually exclusive with
	// FloodRate and Traffic: a run carries one probe workload.
	Unicast UnicastConfig
	// FloodSettle is how long after origination a flood is scored
	// (every reachable node has forwarded by then). Default 0.5 s.
	FloodSettle float64
	// ForwardJitterMax is the maximum per-hop forwarding backoff in
	// seconds (default 1 ms), modelling MAC-layer scheduling jitter.
	ForwardJitterMax float64
	// SampleRate is metric samples per second (10 in the paper).
	SampleRate float64
	// SnapshotEvery, if positive, additionally samples the strict
	// (snapshot) connectivity of the directed effective topology every
	// that many seconds.
	SnapshotEvery float64
	// PosNoise, when positive, adds independent Gaussian noise (std-dev
	// in meters per axis) to every advertised position — imprecise
	// location information (§1). With consistent views the logical
	// topology still connects (all nodes share the same wrong data);
	// only effective links suffer, which the buffer zone absorbs.
	PosNoise float64
	// EnergyAlpha is the path-loss exponent of the energy accounting
	// model: a transmission with range r costs (r/NormalRange)^EnergyAlpha
	// normalized energy units (default 2). Accounting only — it does not
	// affect protocol behavior.
	EnergyAlpha float64
	// Domains selects the region-parallel engine: the arena is decomposed
	// into Domains×Domains spatial domains whose "Hello" processing runs
	// between deterministic barriers (see parallel.go). 0 (the default)
	// keeps the serial engine; 1 exercises the parallel machinery with a
	// single domain. Results are bit-identical to the serial engine for
	// every Domains/ParallelWorkers setting — configurations the parallel
	// path cannot honor fall back to the serial engine automatically.
	Domains int
	// ParallelWorkers is the worker-goroutine count draining the domains
	// (clamped to [1, Domains²]; default 1, which runs the barriers inline
	// on the caller's goroutine). Requires Domains >= 1.
	ParallelWorkers int
	// NoSelectionCache has no effect: every selection rebuilds its view and
	// runs the protocol. The field stays only until the bench module stops
	// setting it.
	NoSelectionCache bool
	// Seed drives every stochastic choice of the run.
	Seed uint64
}

// defaultf returns v, or def when v is unset. The zero value is the "use
// the paper's default" sentinel, so the comparison is exact by construction.
func defaultf(v, def float64) float64 {
	if v == 0 { //lint:ignore float-eq zero value is the unset sentinel, exact by construction
		return def
	}
	return v
}

// withDefaults returns c with unset fields defaulted to the paper's values.
func (c Config) withDefaults() Config {
	c.NormalRange = defaultf(c.NormalRange, 250)
	c.HelloMin = defaultf(c.HelloMin, 0.75)
	c.HelloMax = defaultf(c.HelloMax, 1.25)
	c.HelloExpiry = defaultf(c.HelloExpiry, 2*c.HelloMax)
	c.FloodSettle = defaultf(c.FloodSettle, 0.5)
	c.ForwardJitterMax = defaultf(c.ForwardJitterMax, 0.001)
	c.SampleRate = defaultf(c.SampleRate, 10)
	c.EnergyAlpha = defaultf(c.EnergyAlpha, 2)
	c.Traffic = c.Traffic.WithDefaults()
	return c
}

// Bounds that keep every accepted configuration runnable. A periodic
// process — beacons, metric samples, floods, unicast probes, traffic,
// snapshots — fires at most once per minPeriod of simulated time: a period
// far below it stops advancing the clock once it underflows against the
// current instant (1e-300 s after 2.5 s is 2.5 s), and the run spins
// forever. maxDomains caps the domain grid at 64 × 64, so a stray Domains
// cannot allocate per-domain state by the billion.
const (
	minPeriod  = 1e-3
	maxDomains = 64
)

// validate reports configuration errors.
func (c Config) validate() error {
	if err := c.checkFinite(); err != nil {
		return err
	}
	switch {
	case c.NormalRange <= 0:
		return fmt.Errorf("manet: NormalRange must be positive, got %g", c.NormalRange)
	case c.HelloMin < minPeriod || c.HelloMax < c.HelloMin:
		return fmt.Errorf("manet: need %g s <= HelloMin <= HelloMax, got [%g, %g]", minPeriod, c.HelloMin, c.HelloMax)
	case c.HelloExpiry <= 0:
		return fmt.Errorf("manet: HelloExpiry must be positive, got %g", c.HelloExpiry)
	case c.Mech.Buffer < 0:
		return fmt.Errorf("manet: negative buffer width %g", c.Mech.Buffer)
	case c.Mech.WeakK < 0:
		return fmt.Errorf("manet: negative WeakK %d", c.Mech.WeakK)
	case c.Mech.WeakK > 0 && c.Weak == nil:
		return fmt.Errorf("manet: WeakK set but no weak selector configured")
	case c.Mech.WeakK == 0 && c.Protocol == nil:
		return fmt.Errorf("manet: no protocol configured")
	case c.FloodRate < 0 || c.SampleRate <= 0:
		return fmt.Errorf("manet: bad rates flood=%g sample=%g", c.FloodRate, c.SampleRate)
	case c.FloodRate*minPeriod > 1 || c.SampleRate*minPeriod > 1 || c.Unicast.Rate*minPeriod > 1 ||
		(c.Traffic.Enabled() && c.Traffic.Rate*minPeriod > 1):
		return fmt.Errorf("manet: rates above %g/s (flood=%g sample=%g unicast=%g traffic=%g)",
			1/minPeriod, c.FloodRate, c.SampleRate, c.Unicast.Rate, c.Traffic.Rate)
	case c.SnapshotEvery < 0 || (c.SnapshotEvery > 0 && c.SnapshotEvery < minPeriod):
		return fmt.Errorf("manet: SnapshotEvery must be 0 or at least %g s, got %g", minPeriod, c.SnapshotEvery)
	case c.Traffic.Enabled() && c.Traffic.Mode == traffic.OLSR && c.Traffic.TCInterval < minPeriod:
		return fmt.Errorf("manet: traffic TCInterval must be at least %g s, got %g", minPeriod, c.Traffic.TCInterval)
	case c.FloodSettle < 0 || c.ForwardJitterMax < 0:
		return fmt.Errorf("manet: negative FloodSettle %g or ForwardJitterMax %g", c.FloodSettle, c.ForwardJitterMax)
	case c.Mech.Reactive && c.Mech.WeakK > 0:
		return fmt.Errorf("manet: Reactive and WeakK are mutually exclusive")
	case c.Mech.Proactive && (c.Mech.Reactive || c.Mech.WeakK > 0):
		return fmt.Errorf("manet: Proactive is mutually exclusive with Reactive and WeakK")
	case c.PosNoise < 0:
		return fmt.Errorf("manet: negative PosNoise %g", c.PosNoise)
	case c.Traffic.Enabled() && c.FloodRate > 0:
		return fmt.Errorf("manet: traffic and flooding are mutually exclusive (one probe workload per run)")
	case c.Unicast.Enabled() && (c.FloodRate > 0 || c.Traffic.Enabled()):
		return fmt.Errorf("manet: unicast probes are mutually exclusive with flooding and traffic (one probe workload per run)")
	}
	if err := ValidateEngine(c.Domains, c.ParallelWorkers); err != nil {
		return err
	}
	if err := c.Unicast.validate(); err != nil {
		return err
	}
	if err := c.Traffic.Validate(); err != nil {
		return err
	}
	return c.Channel.Validate()
}

// ValidateEngine reports errors in the engine knobs Config.Domains and
// Config.ParallelWorkers. Callers that fan one engine setting over many
// runs check it once up front with this, before any run starts.
func ValidateEngine(domains, workers int) error {
	switch {
	case domains < 0 || domains > maxDomains:
		return fmt.Errorf("manet: Domains %d outside [0, %d]", domains, maxDomains)
	case workers < 0:
		return fmt.Errorf("manet: negative ParallelWorkers %d", workers)
	case workers > 0 && domains == 0:
		return fmt.Errorf("manet: ParallelWorkers set but Domains is 0 (the serial engine has no workers)")
	}
	return nil
}

// checkFinite rejects a NaN or ±Inf in any float field a run reads,
// nested configurations included. validate's range checks compare with <
// and <=, which NaN passes, so a NaN would otherwise run silently.
func (c Config) checkFinite() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"NormalRange", c.NormalRange},
		{"HelloMin", c.HelloMin},
		{"HelloMax", c.HelloMax},
		{"HelloExpiry", c.HelloExpiry},
		{"Mech.Buffer", c.Mech.Buffer},
		{"Radio.Slack", c.Radio.Slack},
		{"Channel.Loss.Rate", c.Channel.Loss.Rate},
		{"Channel.Delay.Min", c.Channel.Delay.Min},
		{"Channel.Delay.Max", c.Channel.Delay.Max},
		{"FloodRate", c.FloodRate},
		{"Traffic.Rate", c.Traffic.Rate},
		{"Traffic.RingTimeout", c.Traffic.RingTimeout},
		{"Traffic.RouteLifetime", c.Traffic.RouteLifetime},
		{"Traffic.TCInterval", c.Traffic.TCInterval},
		{"Unicast.Rate", c.Unicast.Rate},
		{"FloodSettle", c.FloodSettle},
		{"ForwardJitterMax", c.ForwardJitterMax},
		{"SampleRate", c.SampleRate},
		{"SnapshotEvery", c.SnapshotEvery},
		{"PosNoise", c.PosNoise},
		{"EnergyAlpha", c.EnergyAlpha},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("manet: %s must be finite, got %g", f.name, f.v)
		}
	}
	return nil
}

// ProtocolName returns the configured protocol's display name.
func (c Config) ProtocolName() string {
	if c.Mech.WeakK > 0 {
		return c.Weak.Name()
	}
	return c.Protocol.Name()
}
