package manet

import (
	"testing"

	"mstc/internal/channel"
	"mstc/internal/mobility"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

// TestSelectionCacheTransparent is the differential proof behind the
// version-keyed selection cache: every metric of a run with the cache
// enabled equals the same run with NoSelectionCache set, bit for bit,
// across the mechanisms that exercise each cache key mode (latest,
// versioned, pinned-epoch) plus churn (table resets), position noise
// (distinct advertised positions) and weak selection (uncached path).
func TestSelectionCacheTransparent(t *testing.T) {
	model := func(seed uint64) mobility.Model {
		lo, hi := mobility.SpeedSetdest(20)
		m, err := mobility.NewRandomWaypoint(arena, mobility.WaypointConfig{
			N: 40, SpeedMin: lo, SpeedMax: hi, Horizon: 20,
		}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"baseline", Config{Protocol: topology.MST{Range: 250}}},
		{"buffer+viewsync+noise", Config{
			Protocol: topology.RNG{},
			Mech:     Mechanisms{Buffer: 20, ViewSync: true},
			PosNoise: 15,
		}},
		{"reactive", Config{
			Protocol: topology.MST{Range: 250},
			Mech:     Mechanisms{Reactive: true},
		}},
		{"proactive", Config{
			Protocol: topology.MST{Range: 250},
			Mech:     Mechanisms{Proactive: true},
		}},
		{"weak", Config{
			Protocol: topology.MST{Range: 250},
			Weak:     topology.WeakMST{Range: 250},
			Mech:     Mechanisms{WeakK: 3},
		}},
		{"cds", Config{
			Protocol: topology.MST{Range: 250},
			Mech:     Mechanisms{PhysicalNeighbors: true, CDSForward: true},
		}},
		{"selfpruning", Config{
			Protocol: topology.MST{Range: 250},
			Mech:     Mechanisms{PhysicalNeighbors: true, SelfPruning: true},
		}},
		{"churn", Config{
			Protocol: topology.SPT{Alpha: 2, Range: 250},
			Channel:  channel.Config{Churn: channel.ChurnConfig{MeanUp: 4, MeanDown: 1}},
		}},
	}
	for _, tc := range cases {
		run := func(disable bool) Result {
			cfg := tc.cfg
			cfg.FloodRate = 10
			cfg.SnapshotEvery = 1
			cfg.Seed = 11
			cfg.NoSelectionCache = disable
			nw, err := NewNetwork(model(5), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return nw.Run(8)
		}
		cached, direct := run(false), run(true)
		if cached != direct {
			t.Errorf("%s: cached run diverged:\n  cached: %+v\n  direct: %+v", tc.name, cached, direct)
		}
	}
}
