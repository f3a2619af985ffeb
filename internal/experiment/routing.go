package experiment

import (
	"fmt"

	"mstc/internal/manet"
	"mstc/internal/stats"
)

// routingTasks enumerates protocols × mechs × speeds × reps of the
// routing extension: GG and RNG, each plain and under mobility management
// (10 m buffer + view synchronization). Unicast runs carry their
// UnicastResult inside the standard manet.Result record, so they land in
// result stores and fleet journals like every other task.
func routingTasks(o Options) []Run {
	var tasks []Run
	for _, p := range []string{"GG", "RNG"} {
		for _, m := range []manet.Mechanisms{{}, {Buffer: 10, ViewSync: true}} {
			for _, s := range o.Speeds {
				for rep := 0; rep < o.Reps; rep++ {
					tasks = append(tasks, Run{
						Protocol: p, Speed: s, Mech: m,
						Unicast: manet.UnicastConfig{Rate: 20}, Rep: rep,
					})
				}
			}
		}
	}
	return tasks
}

// routing is an extension experiment: greedy geographic unicast delivery
// over each protocol versus speed, with and without mobility management.
func routing(aggs []Aggregate) []Output {
	label := func(m manet.Mechanisms) string {
		if m.ViewSync {
			return "buf10+VS"
		}
		return "plain"
	}
	delivered := func(a *Aggregate) *stats.Sample { return &a.Delivered }
	return perProtocol(aggs, "delivery ratio", delivered, label, func(_ int, p string) (string, string) {
		return fmt.Sprintf("Extension: greedy unicast delivery over %s", p), "routing_" + p + ".dat"
	})
}
