package manet

import (
	"testing"

	"mstc/internal/channel"
	"mstc/internal/mobility"
	"mstc/internal/topology"
	"mstc/internal/traffic"
)

// runUnicast runs cfg with greedy unicast probes at rate per second as its
// probe workload.
func runUnicast(t *testing.T, model mobility.Model, cfg Config, duration, rate float64) Result {
	t.Helper()
	cfg.Unicast = UnicastConfig{Rate: rate}
	nw, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw.Run(duration)
}

func TestUnicastStaticDenseTopologyDelivers(t *testing.T) {
	// Greedy routing needs a topology without local minima; the dense
	// uncontrolled graph qualifies on most instances, and everything is
	// static so no range failures can occur.
	model := connectedStatic(t, 51, 80, 15)
	res := runUnicast(t, model, Config{Protocol: topology.None{}, Seed: 21}, 15, 20).Unicast
	if res.Probes < 100 {
		t.Fatalf("only %d probes", res.Probes)
	}
	if res.RangeFailures != 0 {
		t.Errorf("static run had %d range failures", res.RangeFailures)
	}
	if res.Delivered < 0.95 {
		t.Errorf("dense static delivery = %.3f", res.Delivered)
	}
	if res.Delivered > 0 && res.AvgHops <= 0 {
		t.Error("no hop accounting")
	}
}

func TestUnicastGGBeatsMSTGreedy(t *testing.T) {
	// GG has far fewer greedy local minima than the tree-like MST.
	model := connectedStatic(t, 53, 100, 15)
	run := func(p topology.Protocol) UnicastResult {
		return runUnicast(t, model, Config{Protocol: p, Seed: 22}, 15, 20).Unicast
	}
	gg := run(topology.Gabriel{})
	mst := run(topology.MST{Range: 250})
	if gg.Delivered <= mst.Delivered {
		t.Errorf("GG greedy delivery %.3f should beat MST %.3f", gg.Delivered, mst.Delivered)
	}
}

func TestUnicastMobilityRangeFailures(t *testing.T) {
	// Under mobility without a buffer, some failures must be range
	// failures (outdated information), and a generous buffer plus view
	// synchronization must improve delivery.
	model := waypointModel(t, 40, 401)
	rawRes := runUnicast(t, model, Config{Protocol: topology.Gabriel{}, Seed: 23}, 20, 20).Unicast
	if rawRes.RangeFailures == 0 {
		t.Error("no range failures at 40 m/s without buffer — implausible")
	}
	fixedRes := runUnicast(t, model, Config{
		Protocol: topology.Gabriel{}, Seed: 23,
		Mech: Mechanisms{Buffer: 50, ViewSync: true},
	}, 20, 20).Unicast
	if fixedRes.Delivered <= rawRes.Delivered {
		t.Errorf("mobility management did not improve unicast: %.3f vs %.3f",
			rawRes.Delivered, fixedRes.Delivered)
	}
}

// TestRunUnicastMatchesConfigUnicast: the RunUnicast wrapper is exactly Run
// with Config.Unicast set, field for field.
func TestRunUnicastMatchesConfigUnicast(t *testing.T) {
	model := waypointModel(t, 20, 403)
	cfg := Config{
		Protocol: topology.Gabriel{}, Seed: 25, SnapshotEvery: 2,
		Mech:    Mechanisms{Buffer: 10, ViewSync: true},
		Channel: channel.Config{Loss: channel.LossConfig{Rate: 0.1}, Delay: channel.DelayConfig{Max: 0.05}},
	}
	uc := UnicastConfig{Rate: 20, MaxHops: 30}
	viaWrapper, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := viaWrapper.RunUnicast(15, uc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Unicast = uc
	viaConfig, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := viaConfig.Run(15)
	if got != want.Unicast {
		t.Errorf("RunUnicast = %+v, Run with Config.Unicast = %+v", got, want.Unicast)
	}
	if full := viaWrapper.result(); full != want {
		t.Errorf("RunUnicast network state diverged:\n wrapper: %+v\n  config: %+v", full, want)
	}
	if got.Probes == 0 {
		t.Fatal("no probes scored; the comparison is vacuous")
	}
}

func TestUnicastValidation(t *testing.T) {
	model := connectedStatic(t, 55, 10, 5)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative rate", Config{Unicast: UnicastConfig{Rate: -1}}},
		{"negative MaxHops", Config{Unicast: UnicastConfig{Rate: 1, MaxHops: -1}}},
		{"MaxHops without rate", Config{Unicast: UnicastConfig{MaxHops: 5}}},
		{"with floods", Config{Unicast: UnicastConfig{Rate: 1}, FloodRate: 10}},
		{"with traffic", Config{Unicast: UnicastConfig{Rate: 1}, Traffic: traffic.Config{Mode: traffic.AODV}}},
	} {
		tc.cfg.Protocol = topology.RNG{}
		if _, err := NewNetwork(model, tc.cfg); err == nil {
			t.Errorf("%s: NewNetwork accepted an invalid unicast config", tc.name)
		}
	}
	nw, err := NewNetwork(model, Config{Protocol: topology.RNG{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RunUnicast(5, UnicastConfig{Rate: 1, MaxHops: -1}); err == nil {
		t.Error("RunUnicast accepted a negative MaxHops")
	}
}

func TestUnicastAccountsEnergy(t *testing.T) {
	model := connectedStatic(t, 57, 50, 10)
	// Unicast hops are data transmissions too.
	res := runUnicast(t, model, Config{Protocol: topology.Gabriel{}, Seed: 24}, 10, 10)
	if res.DataTx == 0 || res.DataEnergy <= 0 {
		t.Errorf("unicast hops not accounted: tx=%d energy=%v", res.DataTx, res.DataEnergy)
	}
}
