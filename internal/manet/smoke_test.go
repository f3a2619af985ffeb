package manet

import (
	"testing"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

var arena = geom.Square(900)

func waypointModel(tb testing.TB, avgSpeed float64, seed uint64) mobility.Model {
	tb.Helper()
	lo, hi := mobility.SpeedSetdest(avgSpeed)
	m, err := mobility.NewRandomWaypoint(arena, mobility.WaypointConfig{
		N: 100, SpeedMin: lo, SpeedMax: hi, Horizon: 100,
	}, xrand.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestSmokeBaselines logs (with -v) the Table-1-style metrics and the
// connectivity collapse; assertions are loose sanity checks while the real
// reproduction lives in package experiment.
func TestSmokeBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run")
	}
	for _, proto := range topology.Baselines(250) {
		for _, speed := range []float64{1, 40} {
			model := waypointModel(t, speed, 42)
			nw, err := NewNetwork(model, Config{Protocol: proto, FloodRate: 10, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			res := nw.Run(30)
			t.Logf("%-6s speed=%3.0f conn=%.3f range=%.1f logDeg=%.2f phyDeg=%.2f floods=%d",
				proto.Name(), speed, res.Connectivity, res.AvgTxRange,
				res.AvgLogicalDegree, res.AvgPhysicalDegree, res.Floods)
			if res.Floods == 0 {
				t.Fatalf("%s: no floods scored", proto.Name())
			}
			if res.AvgTxRange <= 0 || res.AvgTxRange > 250 {
				t.Errorf("%s: implausible range %v", proto.Name(), res.AvgTxRange)
			}
		}
	}
}
