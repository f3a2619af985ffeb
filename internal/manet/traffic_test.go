package manet

import (
	"testing"

	"mstc/internal/geom"
	"mstc/internal/topology"
	"mstc/internal/traffic"
)

// crossingRelays is a scripted four-node topology for the link-break test:
// source A and destination D sit 400 m apart (out of the 250 m direct
// range), relay B starts between them and drifts out of range while relay
// B2 drifts in. The only route is two-hop, and the relay it runs through
// must change mid-run.
//
//	A = node 0 at (100, 400), static
//	D = node 1 at (500, 400), static
//	B = node 2 at (300, 400 + 25t): in range of both until t = 6, the
//	    moment |y-400| = 150 makes dist(A,B) exceed 250
//	B2 = node 3 at (300, 150 + 25t): out of range until t = 4, then in
//	    range of both through t = 16
type crossingRelays struct{}

func (crossingRelays) N() int            { return 4 }
func (crossingRelays) Arena() geom.Rect  { return geom.Square(900) }
func (crossingRelays) MaxSpeed() float64 { return 25 }
func (crossingRelays) Horizon() float64  { return 1e9 }

func (crossingRelays) PositionAt(id int, t float64) geom.Point {
	switch id {
	case 0:
		return geom.Pt(100, 400)
	case 1:
		return geom.Pt(500, 400)
	case 2:
		return geom.Pt(300, 400+25*t)
	default:
		return geom.Pt(300, 150+25*t)
	}
}

// TestAODVLinkBreakRERR proves the RERR teardown and rediscovery cycle:
// when the relay carrying the only route moves out of range, the source
// must detect the break (link-layer feedback on the failed hop), tear the
// route down with a RERR, rediscover through the relay that moved in, and
// keep delivering. Everything is deterministic, so the margins are exact
// properties of the script, not statistical hopes.
func TestAODVLinkBreakRERR(t *testing.T) {
	cfg := Config{Protocol: topology.RNG{}, Seed: 3}
	// Physical-neighbor acceptance keeps the topology filter out of the
	// way: the test is about the routing state machine, not selection.
	cfg.Mech.PhysicalNeighbors = true
	cfg.Traffic = traffic.Config{
		Mode:  traffic.AODV,
		Flows: 1,
		Rate:  4,
		// A lifetime far beyond the run: the route must die by RERR
		// (forward failure), never by quiet expiry.
		RouteLifetime: 1e6,
	}
	nw, err := NewNetwork(crossingRelays{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror Run's scheduling, but pin the flow's endpoints to the
	// scripted pair after the setup draws (the 't' substream draws random
	// endpoints; the script needs A -> D).
	nw.scheduleBeacons()
	const duration = 12
	nw.startTraffic(duration)
	ts := nw.traf
	ts.flows[0].src, ts.flows[0].dst = 0, 1
	nw.eng.Run(duration)
	res := nw.result().Traffic

	// Emission runs from the 2.5 s warm-up to the 0.5 s drain at 4 pkt/s.
	if res.Sent < 30 {
		t.Fatalf("flow emitted %d packets, expected ~36", res.Sent)
	}
	// The break must have been detected and torn down at least once.
	if res.RERRTx < 1 {
		t.Fatalf("no RERR despite the relay leaving range (delivered %d/%d)",
			res.Delivered, res.Sent)
	}
	// Packets deliverable through B alone stop at t = 6: at most
	// (6 - 2.5) * 4 + 1 = 15. More delivered proves rediscovery moved the
	// route onto B2.
	if res.Delivered <= 15 {
		t.Fatalf("delivered %d/%d packets — rediscovery after the break did not restore the flow",
			res.Delivered, res.Sent)
	}
	// Every delivery crosses exactly one relay.
	if res.AvgHops != 2 {
		t.Errorf("AvgHops = %g, want exactly 2 on the two-hop script", res.AvgHops)
	}
	if res.RREQTx == 0 || res.RREPTx == 0 {
		t.Errorf("discovery counters empty: RREQ=%d RREP=%d", res.RREQTx, res.RREPTx)
	}
}

// TestOLSRTrafficDelivers exercises the proactive path end to end on a
// static connected network: MPR gossip in hellos, TC flooding, link-state
// routes, and delivery with zero AODV control traffic.
func TestOLSRTrafficDelivers(t *testing.T) {
	model := connectedStatic(t, 100, 40, 1e9)
	cfg := Config{Protocol: topology.RNG{}, Seed: 11}
	cfg.Traffic = traffic.Config{Mode: traffic.OLSR, Flows: 6, Rate: 2, TCInterval: 2}
	nw, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run(30).Traffic
	if res.Mode != "olsr" {
		t.Fatalf("mode = %q, want olsr", res.Mode)
	}
	if res.Sent == 0 {
		t.Fatal("no packets emitted")
	}
	if res.TCTx == 0 {
		t.Fatal("no TC messages transmitted")
	}
	if res.RREQTx != 0 || res.RREPTx != 0 || res.RERRTx != 0 {
		t.Fatalf("AODV control in OLSR mode: RREQ=%d RREP=%d RERR=%d",
			res.RREQTx, res.RREPTx, res.RERRTx)
	}
	if res.DeliveryRatio < 0.5 {
		t.Fatalf("delivery ratio %.2f on a static connected network (delivered %d/%d)",
			res.DeliveryRatio, res.Delivered, res.Sent)
	}
}

// TestTrafficDeterminism pins that two identical traffic runs produce
// identical results for both modes, and that a different seed moves them.
func TestTrafficDeterminism(t *testing.T) {
	model := connectedStatic(t, 100, 40, 1e9)
	run := func(mode traffic.Mode, seed uint64) Result {
		cfg := Config{Protocol: topology.RNG{}, Seed: seed}
		cfg.Traffic = traffic.Config{Mode: mode, Flows: 4, Rate: 2}
		nw, err := NewNetwork(model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nw.Run(20)
	}
	for _, mode := range []traffic.Mode{traffic.AODV, traffic.OLSR} {
		a, b := run(mode, 5), run(mode, 5)
		if a != b {
			t.Errorf("%v: identical seeds diverged:\n%+v\n%+v", mode, a, b)
		}
		if c := run(mode, 6); c.Traffic == a.Traffic {
			t.Errorf("%v: different seed produced identical traffic results", mode)
		}
	}
}

// TestTrafficConfigExclusions pins the validation rules the traffic
// subsystem adds.
func TestTrafficConfigExclusions(t *testing.T) {
	model := connectedStatic(t, 100, 10, 1e9)
	base := Config{Protocol: topology.RNG{}, Seed: 1}
	base.Traffic = traffic.Config{Mode: traffic.AODV}
	if _, err := NewNetwork(model, base); err != nil {
		t.Fatalf("plain traffic config rejected: %v", err)
	}
	flood := base
	flood.FloodRate = 10
	if _, err := NewNetwork(model, flood); err == nil {
		t.Error("traffic + flooding accepted")
	}
}
