package manet

import (
	"testing"

	"mstc/internal/graph"
	"mstc/internal/topology"
)

// TestDiagnoseLoss separates the two failure modes of §1 and checks §5.2
// conclusion 2 ("caused by both link failures and disconnected logical
// topology"): with view synchronization at 40 m/s the logical topology
// (range ignored) stays far better connected than the effective one, so
// the loss that remains comes from outdated positions breaking logical
// links, not from inconsistent views.
func TestDiagnoseLoss(t *testing.T) {
	model := waypointModel(t, 40, 42)
	nw, err := NewNetwork(model, Config{
		Protocol: topology.RNG{}, FloodRate: 0, Seed: 7,
		Mech: Mechanisms{Buffer: 10, ViewSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var logicalSum, effectiveSum, rangeFail, rangeTotal float64
	samples := 0
	nw.eng.Every(5, 5, func(now float64) {
		// Logical digraph: arc u->v iff v in u's logical set (range
		// ignored).
		ld := graph.NewDirected(len(nw.nodes))
		for _, nd := range nw.nodes {
			for _, v := range nd.logical {
				ld.AddArc(nd.id, v)
				rangeTotal++
				if nw.med.PositionAt(nd.id, now).Dist(nw.med.PositionAt(v, now)) > nd.txRange {
					rangeFail++
				}
			}
		}
		logicalSum += ld.AvgReachability()
		effectiveSum += nw.EffectiveDigraphAt(now).AvgReachability()
		samples++
	})
	nw.Run(30)
	logical, effective := logicalSum/float64(samples), effectiveSum/float64(samples)
	t.Logf("logical=%.3f effective=%.3f rangeFailFrac=%.3f", logical, effective, rangeFail/rangeTotal)
	if logical <= effective {
		t.Errorf("mean logical reachability %.3f does not exceed effective %.3f", logical, effective)
	}
	if rangeFail == 0 {
		t.Error("no logical link was out of range at 40 m/s; the link-failure mode is not exercised")
	}
}
