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

// UnicastConfig parameterizes a unicast probing run.
type UnicastConfig struct {
	// Rate is probes per second (source and destination drawn uniformly).
	Rate float64
	// MaxHops bounds the path length before the packet is dropped
	// (default 4 * number of nodes).
	MaxHops int
}

func (c UnicastConfig) validate(n int) error {
	if c.Rate <= 0 {
		return fmt.Errorf("manet: unicast Rate must be positive, got %g", c.Rate)
	}
	if c.MaxHops < 0 {
		return fmt.Errorf("manet: negative MaxHops")
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

// RunUnicast drives the network for duration seconds with normal beaconing
// and selection, routing greedy unicast probes instead of floods.
func (nw *Network) RunUnicast(duration float64, uc UnicastConfig) (UnicastResult, error) {
	if err := uc.validate(len(nw.nodes)); err != nil {
		return UnicastResult{}, err
	}
	maxHops := uc.MaxHops
	if maxHops == 0 {
		maxHops = 4 * len(nw.nodes)
	}
	if nw.cfg.Mech.Reactive {
		nw.scheduleReactiveRounds()
	} else {
		for _, nd := range nw.nodes {
			nd := nd
			//lint:ignore substream deliberate: shares the 'f' hello-offset labels with Run — the entry points are mutually exclusive on one Network
			first := nw.rng.Sub('f', uint64(nd.id)).Uniform(0, nd.interval)
			nw.eng.Every(first, nd.interval, func(now sim.Time) {
				nw.sendHello(nd, now)
			})
		}
	}
	res := UnicastResult{}
	hopSum := 0
	warmup := 2 * nw.cfg.HelloMax
	nw.eng.Every(warmup, 1/uc.Rate, func(now sim.Time) {
		//lint:ignore substream historical draw order: probe endpoints ride the root network stream, mirroring originateFlood; a Sub would change unicast digests
		src := nw.rng.Intn(len(nw.nodes))
		//lint:ignore substream historical draw order: probe endpoints ride the root network stream, mirroring originateFlood; a Sub would change unicast digests
		dst := nw.rng.Intn(len(nw.nodes))
		if src == dst {
			return
		}
		nw.routeProbe(src, dst, maxHops, now, &res, &hopSum)
	})
	nw.eng.Run(duration)
	if res.Probes > 0 {
		delivered := res.Probes - res.LocalMinima - res.RangeFailures
		res.Delivered = float64(delivered) / float64(res.Probes)
		if delivered > 0 {
			res.AvgHops = float64(hopSum) / float64(delivered)
		}
	}
	return res, nil
}

// routeProbe walks one greedy probe hop by hop at a single instant (probe
// forwarding is orders of magnitude faster than node movement, as with
// floods).
func (nw *Network) routeProbe(src, dst, maxHops int, now sim.Time, res *UnicastResult, hopSum *int) {
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
		if nw.cfg.Mech.ViewSync {
			nw.updateSelection(nd, now, nd.advertisedPos)
		}
		next, ok := nw.greedyNext(nd, dst, dstPos, now)
		if !ok {
			res.LocalMinima++
			return
		}
		// The hop physically succeeds only if next is inside cur's
		// current transmission range.
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
	*hopSum += hops
}

// greedyNext picks nd's forwarding-eligible neighbor whose advertised
// position is strictly closest to target (closer than nd's own advertised
// position). Eligible neighbors are the logical set, or every known
// neighbor under the physical-neighbor mechanism.
func (nw *Network) greedyNext(nd *node, dst int, target geom.Point, now sim.Time) (int, bool) {
	best := -1
	bestD := nd.advertisedPos.Dist2(target)
	for _, m := range nd.table.Latest(now) {
		if !nw.cfg.Mech.PhysicalNeighbors && !nd.hasLogical(m.From) {
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
