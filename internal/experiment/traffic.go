package experiment

import (
	"fmt"

	"mstc/internal/manet"
	"mstc/internal/stats"
	"mstc/internal/traffic"
)

// Routing-comparison experiment — the traffic subsystem's evaluation.
//
// The traffic entry runs CBR flows routed by an on-demand protocol (AODV)
// and a proactive one (OLSR) over two topologies: the unit-disk baseline
// ("none", every physical link usable) and a controlled topology (RNG)
// under the mobility-managed setting (10 m buffer + view synchronization).
// The figure plots routing control overhead per delivered data packet
// against speed; the table reports the full per-point picture (delivery
// ratio, latency, hops, overhead) so the overhead comparison can be read
// at comparable delivery — overhead alone is meaningless if one
// configuration delivers nothing.
//
// The traffic spec is fixed (not an Options knob) so Options.Fingerprint
// is untouched: stores filled before this experiment existed stay valid.

// trafficTasks enumerates the comparison grid: topology × routing
// protocol × speed × rep. "none" is the unit-disk baseline; RNG is the
// controlled topology (sparse but connected, the paper's main subject).
// Every task runs the one CBR workload, 8 flows at 2 pkt/s with protocol
// parameters at their defaults, under the mobility-managed setting.
func trafficTasks(o Options) []Run {
	var tasks []Run
	for _, p := range []string{"none", "RNG"} {
		for _, m := range []traffic.Mode{traffic.AODV, traffic.OLSR} {
			for _, s := range o.Speeds {
				for rep := 0; rep < o.Reps; rep++ {
					tasks = append(tasks, Run{
						Protocol: p, Speed: s, Mech: manet.Mechanisms{Buffer: 10, ViewSync: true},
						Traffic: traffic.Config{Mode: m, Flows: 8, Rate: 2}, Rep: rep,
					})
				}
			}
		}
	}
	return tasks
}

// trafficOutputs renders the routing comparison from the results of
// trafficTasks: control overhead per delivered data packet versus speed,
// one series per (topology, routing protocol) pair, with a per-point table
// of delivery ratio, latency, and hop count.
func trafficOutputs(o Options, tasks []Run, results []manet.Result) []Output {
	f := Figure{
		Title:  "Routing comparison: control overhead over controlled vs unit-disk topology",
		XLabel: "speed (m/s)",
		YLabel: "control tx per delivered data packet",
	}
	t := Table{
		Title: "Routing comparison: per-point delivery and overhead",
		Header: []string{"topology", "routing", "speed (m/s)", "PDR",
			"delay (s)", "hops", "ctrl/data"},
	}
	for i := 0; i < len(tasks); i += o.Reps {
		r := tasks[i]
		var pdr, delay, hops, ctrl stats.Welford
		for _, res := range results[i : i+o.Reps] {
			pdr.Add(res.Traffic.DeliveryRatio)
			delay.Add(res.Traffic.AvgDelay)
			hops.Add(res.Traffic.AvgHops)
			ctrl.Add(res.Traffic.ControlPerData)
		}
		name := fmt.Sprintf("%s/%s", r.Protocol, r.Traffic.Mode)
		if n := len(f.Series); n == 0 || f.Series[n-1].Name != name {
			f.Series = append(f.Series, Series{Name: name})
		}
		s := &f.Series[len(f.Series)-1]
		s.X = append(s.X, r.Speed)
		s.Y = append(s.Y, ctrl.Mean())
		s.CI = append(s.CI, ctrl.CI95())
		t.Rows = append(t.Rows, []string{
			r.Protocol, r.Traffic.Mode.String(),
			fmt.Sprintf("%g", r.Speed),
			fmt.Sprintf("%.3f", pdr.Mean()),
			fmt.Sprintf("%.3f", delay.Mean()),
			fmt.Sprintf("%.2f", hops.Mean()),
			fmt.Sprintf("%.2f", ctrl.Mean()),
		})
	}
	return []Output{f.output("traffic.dat"), t.output("traffic_points.txt")}
}
