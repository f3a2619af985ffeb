package manet

import (
	"fmt"

	"mstc/internal/geom"
	"mstc/internal/sim"
)

// Unicast probing: greedy geographic forwarding over the live protocol
// state. Where the flooding probe measures raw connectivity, this measures
// what a routing protocol actually experiences: each relay picks the
// logical neighbor whose *advertised* position is closest to the
// destination's advertised position, transmits with its current power, and
// the hop succeeds only if the chosen neighbor is physically within range —
// stale views therefore surface as either local minima or range failures,
// the paper's two failure modes, now per-packet.

// UnicastConfig parameterizes the unicast probe workload (Config.Unicast).
type UnicastConfig struct {
	// Rate is probes per second (source and destination drawn uniformly);
	// 0 disables the workload.
	Rate float64
	// MaxHops bounds the path length before the packet is dropped
	// (default 4 * number of nodes).
	MaxHops int
}

// Enabled reports whether the unicast probe workload is active.
func (c UnicastConfig) Enabled() bool { return c.Rate > 0 }

func (c UnicastConfig) validate() error {
	switch {
	case c.Rate < 0:
		return fmt.Errorf("manet: negative unicast Rate %g", c.Rate)
	case c.MaxHops < 0:
		return fmt.Errorf("manet: negative unicast MaxHops %d", c.MaxHops)
	case c.MaxHops > 0 && !c.Enabled():
		return fmt.Errorf("manet: unicast MaxHops set but Rate is 0")
	}
	return nil
}

// UnicastResult aggregates a unicast probing run.
type UnicastResult struct {
	// Delivered is the fraction of probes that reached their destination.
	Delivered float64
	// AvgHops is the mean hop count of delivered probes.
	AvgHops float64
	// LocalMinima counts probes dropped with no closer logical neighbor.
	LocalMinima int
	// RangeFailures counts probes dropped because the chosen next hop was
	// no longer within transmission range (outdated information).
	RangeFailures int
	// Probes is the number of scored probes.
	Probes int
}

// RunUnicast runs the network with Config.Unicast = uc as its only probe
// workload and returns the unicast result. It is kept only for the bench/
// harness and goes at the next change to bench/; use Config.Unicast.
func (nw *Network) RunUnicast(duration float64, uc UnicastConfig) (UnicastResult, error) {
	nw.cfg.Unicast, nw.cfg.FloodRate = uc, 0
	if err := nw.cfg.validate(); err != nil {
		return UnicastResult{}, err
	}
	return nw.Run(duration).Unicast, nil
}

// startUnicast schedules the probe workload: after the flood warm-up,
// Rate probes per second between uniformly drawn endpoints. Both endpoints
// are drawn before the src == dst check, so every probe instant advances
// the root stream by two draws.
func (nw *Network) startUnicast() {
	n := len(nw.nodes)
	maxHops := nw.cfg.Unicast.MaxHops
	if maxHops == 0 {
		maxHops = 4 * n
	}
	nw.eng.Every(2*nw.cfg.HelloMax, 1/nw.cfg.Unicast.Rate, func(now sim.Time) {
		//lint:ignore substream historical draw order: probe endpoints ride the root network stream, mirroring originateFlood; a Sub would change unicast digests
		src := nw.rng.Intn(n)
		//lint:ignore substream historical draw order: probe endpoints ride the root network stream, mirroring originateFlood; a Sub would change unicast digests
		dst := nw.rng.Intn(n)
		if src == dst {
			return
		}
		nw.routeProbe(src, dst, maxHops, now)
	})
}

// unicastResult finalizes the probe counters.
func (nw *Network) unicastResult() UnicastResult {
	res := nw.uni
	if res.Probes > 0 {
		delivered := res.Probes - res.LocalMinima - res.RangeFailures
		res.Delivered = float64(delivered) / float64(res.Probes)
		if delivered > 0 {
			res.AvgHops = float64(nw.uniHopSum) / float64(delivered)
		}
	}
	return res
}

// routeProbe walks one greedy probe hop by hop at a single instant (probe
// forwarding is orders of magnitude faster than node movement, as with
// floods).
func (nw *Network) routeProbe(src, dst, maxHops int, now sim.Time) {
	res := &nw.uni
	res.Probes++
	dstPos := nw.nodes[dst].advertisedPos
	cur := src
	hops := 0
	for cur != dst {
		if hops >= maxHops {
			res.LocalMinima++ // routing loop exhausted its budget
			return
		}
		nd := nw.nodes[cur]
		nw.reselect(nd, now, 0)
		next, ok := nw.greedyNext(nd, dst, dstPos, now)
		if !ok {
			res.LocalMinima++
			return
		}
		// The hop physically succeeds only if next is inside cur's current
		// transmission range.
		d := nw.med.PositionAt(cur, now).Dist(nw.med.PositionAt(next, now))
		if d > nd.txRange {
			res.RangeFailures++
			return
		}
		nw.dataTx++
		nw.dataEnergy += energyOf(nd.txRange/nw.cfg.NormalRange, nw.cfg.EnergyAlpha)
		cur = next
		hops++
	}
	nw.uniHopSum += hops
}

// greedyNext picks nd's forwarding-eligible neighbor whose advertised
// position is strictly closest to target (closer than nd's own advertised
// position). Eligible neighbors are the logical set, or every known
// neighbor under the physical-neighbor mechanism.
func (nw *Network) greedyNext(nd *node, dst int, target geom.Point, now sim.Time) (int, bool) {
	best := -1
	bestD := nd.advertisedPos.Dist2(target)
	for _, m := range nd.table.Latest(now) {
		if !nw.carries(nd, m.From) {
			continue
		}
		if m.From == dst {
			// Destination in reach beats any geometric progress.
			return dst, true
		}
		if d := m.Pos.Dist2(target); d < bestD {
			bestD = d
			best = m.From
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}
