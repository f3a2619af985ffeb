package experiment

import (
	"fmt"

	"mstc/internal/manet"
	"mstc/internal/stats"
)

// The paper's Table 1 and Figs. 6–10, plus the energy, consistency and
// routing extensions: each renders the Aggregates of its registry entry's
// task set (registry.go), which runs protocol-major, then speed, then
// mechanism.

// BaselineNames returns the four baseline protocols in the paper's order.
// It is a function rather than a package-level slice so no caller can
// mutate the shared order (the global-mutable-state invariant).
func BaselineNames() []string {
	return []string{"MST", "RNG", "SPT-4", "SPT-2"}
}

// Aggregate is the per-configuration summary over repetitions.
type Aggregate struct {
	Protocol string
	Speed    float64
	Mech     manet.Mechanisms

	Connectivity   stats.Sample
	TxRange        stats.Sample
	LogicalDegree  stats.Sample
	PhysicalDegree stats.Sample
	EnergyPerTx    stats.Sample // normalized data energy per transmission
	HelloTx        stats.Sample
	DataTx         stats.Sample
	Delivered      stats.Sample // greedy unicast delivery ratio (routing runs)
}

// aggregates summarises results, given in task order, per configuration.
// Every task set lists a configuration's reps back to back, so each reps
// consecutive tasks make one Aggregate.
func aggregates(tasks []Run, results []manet.Result, reps int) []Aggregate {
	var aggs []Aggregate
	for i := 0; i < len(tasks); i += reps {
		r := tasks[i]
		agg := Aggregate{Protocol: r.Protocol, Speed: r.Speed, Mech: r.Mech}
		for _, res := range results[i : i+reps] {
			agg.Connectivity.Add(res.Connectivity)
			agg.TxRange.Add(res.AvgTxRange)
			agg.LogicalDegree.Add(res.AvgLogicalDegree)
			agg.PhysicalDegree.Add(res.AvgPhysicalDegree)
			if res.DataTx > 0 {
				agg.EnergyPerTx.Add(res.DataEnergy / float64(res.DataTx))
			}
			agg.HelloTx.Add(float64(res.HelloTx))
			agg.DataTx.Add(float64(res.DataTx))
			agg.Delivered.Add(res.Unicast.Delivered)
		}
		aggs = append(aggs, agg)
	}
	return aggs
}

// plot fills f with one series per name(a), in order of first appearance,
// plotting the mean and CI95 of y(a) at x(a) for every aggregate.
func plot(f Figure, aggs []Aggregate, name func(*Aggregate) string, x func(*Aggregate) float64, y func(*Aggregate) *stats.Sample) Figure {
	for i := range aggs {
		a := &aggs[i]
		s := 0
		for s < len(f.Series) && f.Series[s].Name != name(a) {
			s++
		}
		if s == len(f.Series) {
			f.Series = append(f.Series, Series{Name: name(a)})
		}
		f.Series[s].X = append(f.Series[s].X, x(a))
		f.Series[s].Y = append(f.Series[s].Y, y(a).Mean())
		f.Series[s].CI = append(f.Series[s].CI, y(a).CI95())
	}
	return f
}

func protocolOf(a *Aggregate) string            { return a.Protocol }
func speedOf(a *Aggregate) float64              { return a.Speed }
func bufferOf(a *Aggregate) float64             { return a.Mech.Buffer }
func connectivityOf(a *Aggregate) *stats.Sample { return &a.Connectivity }

// perProtocol renders one figure per protocol: y versus speed, one series
// per mechanism label. name gives the i-th protocol's title and file.
func perProtocol(aggs []Aggregate, ylabel string, y func(*Aggregate) *stats.Sample,
	label func(manet.Mechanisms) string, name func(i int, protocol string) (title, file string)) []Output {
	var outs []Output
	for i := 0; len(aggs) > 0; i++ {
		n := 0
		for n < len(aggs) && aggs[n].Protocol == aggs[0].Protocol {
			n++
		}
		title, file := name(i, aggs[0].Protocol)
		f := plot(Figure{Title: title, XLabel: "speed (m/s)", YLabel: ylabel}, aggs[:n],
			func(a *Aggregate) string { return label(a.Mech) }, speedOf, y)
		outs = append(outs, f.output(file))
		aggs = aggs[n:]
	}
	return outs
}

// panels renders Fig. fig's per-protocol panels (a–d): connectivity versus
// speed, one series per buffer width and mechanism toggle.
func panels(fig, what string) func([]Aggregate) []Output {
	return func(aggs []Aggregate) []Output {
		return perProtocol(aggs, "connectivity ratio", connectivityOf, bufferLabel,
			func(i int, p string) (string, string) {
				return fmt.Sprintf("Fig. %s%c: %s %s", fig, 'a'+i, p, what), fmt.Sprintf("fig%s%c.dat", fig, 'a'+i)
			})
	}
}

func bufferLabel(m manet.Mechanisms) string {
	switch {
	case m.ViewSync:
		return fmt.Sprintf("VS buf=%gm", m.Buffer)
	case m.PhysicalNeighbors:
		return fmt.Sprintf("PN buf=%gm", m.Buffer)
	}
	return fmt.Sprintf("buf=%gm", m.Buffer)
}

// table1 reproduces Table 1: average transmission range and node degree of
// the baseline protocols (measured under negligible mobility, 1 m/s, with
// no mechanisms — the paper's static-equivalent operating point).
func table1(aggs []Aggregate) []Output {
	t := Table{
		Title:  "Table 1: average transmission range and node degree of baseline protocols",
		Header: []string{"Protocol", "TxRange (m)", "±95%", "Node degree", "±95%"},
	}
	for _, a := range aggs {
		t.Rows = append(t.Rows, []string{
			a.Protocol,
			fmt.Sprintf("%.1f", a.TxRange.Mean()),
			fmt.Sprintf("%.1f", a.TxRange.CI95()),
			fmt.Sprintf("%.2f", a.LogicalDegree.Mean()),
			fmt.Sprintf("%.2f", a.LogicalDegree.CI95()),
		})
	}
	return []Output{t.output("table1.txt")}
}

// fig6 reproduces Figure 6: connectivity ratio of the baseline protocols
// versus average moving speed, no mechanisms.
func fig6(aggs []Aggregate) []Output {
	f := plot(Figure{
		Title:  "Fig. 6: connectivity ratio of baseline protocols",
		XLabel: "speed (m/s)",
		YLabel: "connectivity ratio",
	}, aggs, protocolOf, speedOf, connectivityOf)
	return []Output{f.output("fig6.dat")}
}

// fig8 reproduces Figure 8: (a) average transmission range and (b) average
// number of physical neighbors versus buffer-zone width, per protocol, at
// moderate mobility (40 m/s).
func fig8(aggs []Aggregate) []Output {
	fa := plot(Figure{
		Title:  "Fig. 8a: average transmission range vs buffer zone width (40 m/s)",
		XLabel: "buffer (m)",
		YLabel: "transmission range (m)",
	}, aggs, protocolOf, bufferOf, func(a *Aggregate) *stats.Sample { return &a.TxRange })
	fb := plot(Figure{
		Title:  "Fig. 8b: average number of physical neighbors vs buffer zone width (40 m/s)",
		XLabel: "buffer (m)",
		YLabel: "physical neighbors",
	}, aggs, protocolOf, bufferOf, func(a *Aggregate) *stats.Sample { return &a.PhysicalDegree })
	return []Output{fa.output("fig8a.dat"), fb.output("fig8b.dat")}
}

// tableEnergy is an extension table quantifying the paper's motivation:
// per-transmission energy and control overhead of every protocol relative
// to the uncontrolled network, at low mobility (1 m/s) with no mechanisms.
func tableEnergy(aggs []Aggregate) []Output {
	// Baseline for savings: the uncontrolled network's per-tx energy.
	var nonePerTx float64
	for _, a := range aggs {
		if a.Protocol == "none" {
			nonePerTx = a.EnergyPerTx.Mean()
		}
	}
	t := Table{
		Title: "Extension: per-transmission energy and overhead (1 m/s, no mechanisms)",
		Header: []string{"Protocol", "TxRange (m)", "Energy/tx", "vs none", "Connectivity",
			"Hello tx", "Data tx"},
	}
	for _, a := range aggs {
		saving := "-"
		if nonePerTx > 0 && a.Protocol != "none" {
			saving = fmt.Sprintf("%.1fx less", nonePerTx/a.EnergyPerTx.Mean())
		}
		t.Rows = append(t.Rows, []string{
			a.Protocol,
			fmt.Sprintf("%.1f", a.TxRange.Mean()),
			fmt.Sprintf("%.3f", a.EnergyPerTx.Mean()),
			saving,
			fmt.Sprintf("%.3f", a.Connectivity.Mean()),
			fmt.Sprintf("%.0f", a.HelloTx.Mean()),
			fmt.Sprintf("%.0f", a.DataTx.Mean()),
		})
	}
	return []Output{t.output("energy.txt")}
}

// consistencyMechs are the consistency schemes the paper proposes — none,
// simplified view synchronization (§5.1), weak consistency with k=3
// (§4.2), proactive and reactive strong consistency (§4.1) — each at a
// fixed 10 m buffer.
func consistencyMechs() []manet.Mechanisms {
	const buf = 10
	return []manet.Mechanisms{
		{Buffer: buf},
		{Buffer: buf, ViewSync: true},
		{Buffer: buf, WeakK: 3},
		{Buffer: buf, Proactive: true},
		{Buffer: buf, Reactive: true},
	}
}

// consistency is an extension beyond the paper's figures: per protocol,
// connectivity versus speed under each of consistencyMechs.
func consistency(aggs []Aggregate) []Output {
	label := func(m manet.Mechanisms) string {
		switch {
		case m.ViewSync:
			return "viewsync"
		case m.WeakK > 0:
			return "weak-k3"
		case m.Proactive:
			return "proactive"
		case m.Reactive:
			return "reactive"
		}
		return "plain"
	}
	return perProtocol(aggs, "connectivity ratio", connectivityOf, label, func(_ int, p string) (string, string) {
		return fmt.Sprintf("Extension: %s under each consistency scheme (10 m buffer)", p), "consistency_" + p + ".dat"
	})
}
