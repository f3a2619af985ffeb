package manet

import (
	"testing"

	"mstc/internal/channel"
	"mstc/internal/topology"
)

// Integration tests for the non-ideal channel subsystem threaded through the
// network: loss thins floods, and delay defers (but does not lose)
// "Hello"s.

func TestChannelLossDegradesConnectivity(t *testing.T) {
	model := connectedStatic(t, 100, 100, 12)
	base := Config{Protocol: topology.RNG{}, FloodRate: 10, Seed: 7}
	run := func(cfg Config) Result {
		nw, err := NewNetwork(model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nw.Run(12)
	}
	ideal := run(base)
	lossy := base
	lossy.Channel.Loss = channel.LossConfig{Rate: 0.5}
	lost := run(lossy)
	if ideal.Connectivity < 0.999 {
		t.Fatalf("ideal static connectivity %.4f, want ~1", ideal.Connectivity)
	}
	if lost.Connectivity > ideal.Connectivity-0.05 {
		t.Errorf("50%% loss: connectivity %.4f vs ideal %.4f, want a clear drop",
			lost.Connectivity, ideal.Connectivity)
	}
}

func TestChannelDelayKeepsNetworkWorking(t *testing.T) {
	// A bounded delivery delay postpones "Hello"s and flood hops but loses
	// nothing: a static connected network must still reach everyone, given a
	// settle window long enough for the delayed hops to land.
	model := connectedStatic(t, 100, 100, 12)
	cfg := Config{Protocol: topology.RNG{}, FloodRate: 10, FloodSettle: 2, Seed: 7}
	cfg.Channel.Delay = channel.DelayConfig{Max: 0.1}
	nw, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run(12)
	if res.Connectivity < 0.99 {
		t.Errorf("delayed channel on static connected network: connectivity %.4f, want ~1",
			res.Connectivity)
	}
	if res.HelloTx == 0 {
		t.Error("no hellos sent")
	}
}

func TestChannelFullStackDeterminism(t *testing.T) {
	// Both degradations at once, twice, same seed: identical results.
	run := func() Result {
		model := waypointModel(t, 20, 9)
		cfg := Config{
			Protocol: topology.RNG{}, FloodRate: 10, Seed: 11,
			Mech: Mechanisms{Buffer: 10, ViewSync: true},
			Channel: channel.Config{
				Loss:  channel.LossConfig{Rate: 0.2},
				Delay: channel.DelayConfig{Max: 0.05},
			},
		}
		nw, err := NewNetwork(model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nw.Run(10)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("channel run not deterministic:\n  a=%+v\n  b=%+v", a, b)
	}
}

func TestChannelReactiveRoundsCompose(t *testing.T) {
	// The reactive scheme has its own beacon path; loss + delay must thread
	// through it too without deadlock or lost selections.
	model := connectedStatic(t, 100, 80, 10)
	cfg := Config{
		Protocol: topology.RNG{}, FloodRate: 10, Seed: 3,
		Mech: Mechanisms{Reactive: true, Buffer: 20},
	}
	cfg.Channel.Loss = channel.LossConfig{Rate: 0.1}
	cfg.Channel.Delay = channel.DelayConfig{Max: 0.02}
	nw, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run(10)
	if res.Floods == 0 || res.HelloTx == 0 {
		t.Fatalf("reactive channel run produced no activity: %+v", res)
	}
	if res.Connectivity < 0.5 {
		t.Errorf("reactive with mild loss: connectivity %.4f suspiciously low", res.Connectivity)
	}
}

func TestChannelConfigConflicts(t *testing.T) {
	model := connectedStatic(t, 100, 20, 5)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bad loss rate", func() Config {
			c := Config{Protocol: topology.RNG{}, Seed: 1}
			c.Channel.Loss = channel.LossConfig{Rate: 1.5}
			return c
		}()},
	}
	for _, tc := range cases {
		if _, err := NewNetwork(model, tc.cfg); err == nil {
			t.Errorf("%s: NewNetwork accepted an invalid config", tc.name)
		}
	}
}
