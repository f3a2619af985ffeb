package experiment

import (
	"fmt"

	"mstc/internal/channel"
	"mstc/internal/manet"
	"mstc/internal/mobility"
	"mstc/internal/stats"
)

// Fault-injection experiments — the evaluation of the non-ideal channel
// subsystem (internal/channel), beyond the paper's ideal-medium figures:
//
//   - figLoss: weak (flood) connectivity versus i.i.d. packet loss, per
//     baseline protocol.
//   - figDelay: strict effective-topology connectivity versus the bounded
//     "Hello" delivery delay Δ″ — the degradation Theorem 5 analyses.
//   - figBufferZone: the empirical Theorem 5 check. For each Δ″, sweep the
//     buffer-zone width around the predicted l = 2·Δ″·v and locate the knee
//     where connectivity saturates; the knees must track the prediction.
//
// Aggregation here uses the Welford accumulators (stats.Welford): these
// figures are new, so they are free to use the numerically stable form —
// unlike Aggregate's Sample accumulators, whose byte-exact output is pinned
// by the golden digests.

// faultSpec is one x-axis point of a fault sweep: a channel configuration
// with the axis value it plots at.
type faultSpec struct {
	x  float64
	ch channel.Config
}

// faultSweep runs protocols × specs × Reps and returns one series per
// protocol with the chosen metric aggregated over repetitions.
func faultSweep(o Options, protocols []string, speed float64, mech manet.Mechanisms,
	specs []faultSpec, metric func(manet.Result) float64) ([]Series, error) {
	var tasks []Run
	for _, p := range protocols {
		for _, sp := range specs {
			for rep := 0; rep < o.Reps; rep++ {
				tasks = append(tasks, Run{Protocol: p, Speed: speed, Mech: mech, Channel: sp.ch, Rep: rep})
			}
		}
	}
	results, err := Execute(o, tasks)
	if err != nil {
		return nil, err
	}
	series := make([]Series, 0, len(protocols))
	i := 0
	for _, p := range protocols {
		s := Series{Name: p}
		for _, sp := range specs {
			var w stats.Welford
			for rep := 0; rep < o.Reps; rep++ {
				w.Add(metric(results[i]))
				i++
			}
			s.X = append(s.X, sp.x)
			s.Y = append(s.Y, w.Mean())
			s.CI = append(s.CI, w.CI95())
		}
		series = append(series, s)
	}
	return series, nil
}

// figLoss plots weak connectivity of the baseline protocols against the
// per-packet (Bernoulli) loss rate, at moderate mobility (20 m/s average).
// Rate 0 is the ideal channel.
func figLoss(o Options, rates []float64) (Figure, error) {
	const speed = 20
	specs := make([]faultSpec, 0, len(rates))
	for _, rate := range rates {
		var ch channel.Config
		if rate > 0 {
			ch.Loss = channel.LossConfig{Rate: rate}
		}
		specs = append(specs, faultSpec{x: rate, ch: ch})
	}
	series, err := faultSweep(o, BaselineNames(), speed, manet.Mechanisms{}, specs,
		func(r manet.Result) float64 { return r.Connectivity })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		Title:  "Faults: connectivity vs bernoulli loss rate (20 m/s)",
		XLabel: "loss rate",
		YLabel: "connectivity ratio",
		Series: series,
	}, nil
}

// figDelay plots strict (snapshot) connectivity of the directed effective
// topology against the maximum "Hello" delivery delay Δ″, at moderate
// mobility. Flooding is off and receivers accept physically (the Theorem 5
// setting: only the realization of selected links is at stake), so the
// curve isolates how stale position information erodes effective links.
func figDelay(o Options, delays []float64) (Figure, error) {
	const speed = 20
	o.FloodRate = 0
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 0.5
	}
	specs := make([]faultSpec, 0, len(delays))
	for _, d := range delays {
		var ch channel.Config
		if d > 0 {
			ch.Delay = channel.DelayConfig{Max: d}
		}
		specs = append(specs, faultSpec{x: d, ch: ch})
	}
	series, err := faultSweep(o, BaselineNames(), speed,
		manet.Mechanisms{PhysicalNeighbors: true}, specs,
		func(r manet.Result) float64 { return r.SnapshotConnectivity })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		Title:  "Faults: snapshot connectivity vs max Hello delay (20 m/s, no buffer)",
		XLabel: "max delay (s)",
		YLabel: "snapshot connectivity",
		Series: series,
	}, nil
}

// figBufferZone is the empirical Theorem 5 validation. At average speed
// avgSpeed (setdest convention: per-leg speeds uniform in (0, 2·avgSpeed],
// so the theorem's maximum speed v is 2·avgSpeed), each Δ″ in delays gets
// one series of MST snapshot connectivity across the buffer widths. The
// channel delay is deterministic — every Hello deferred by exactly Δ″ —
// because the theorem's l = 2·Δ″·v covers the *worst-case* staleness of a
// bounded-delay channel; a uniform draw would halve the effective Δ″ and
// smear the knee. The accompanying table locates each series' knee — the
// smallest buffer reaching 98 % of the series' plateau — next to the
// predicted minimum width l = 2·Δ″·v. The theorem is a worst-case
// sufficient condition, so the expected reading is: knees shift right
// monotonically with Δ″, and the Δ″ > 0 series rejoin the Δ″ = 0 one
// once the buffer exceeds the Δ″ = 0 knee plus the predicted 2·Δ″·v.
func figBufferZone(o Options, avgSpeed float64, delays, buffers []float64) (Figure, Table, error) {
	o.FloodRate = 0
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 0.5
	}
	_, vmax := mobility.SpeedSetdest(avgSpeed)
	const protocol = "MST" // shortest links, most buffer-sensitive (Fig. 7)
	var tasks []Run
	for _, d := range delays {
		var ch channel.Config
		if d > 0 {
			ch.Delay = channel.DelayConfig{Min: d, Max: d}
		}
		for _, b := range buffers {
			for rep := 0; rep < o.Reps; rep++ {
				tasks = append(tasks, Run{
					Protocol: protocol, Speed: avgSpeed,
					Mech:    manet.Mechanisms{Buffer: b, PhysicalNeighbors: true},
					Channel: ch, Rep: rep,
				})
			}
		}
	}
	results, err := Execute(o, tasks)
	if err != nil {
		return Figure{}, Table{}, err
	}
	f := Figure{
		Title: fmt.Sprintf("Theorem 5: %s snapshot connectivity vs buffer width (v=%g m/s max)",
			protocol, vmax),
		XLabel: "buffer (m)",
		YLabel: "snapshot connectivity",
	}
	t := Table{
		Title: "Theorem 5: buffer-zone knee vs predicted width l = 2*delay*v",
		Header: []string{"max delay (s)", "predicted l (m)", "knee (m)",
			"conn@knee", "plateau"},
	}
	i := 0
	for _, d := range delays {
		s := Series{Name: fmt.Sprintf("delay=%gs", d)}
		for _, b := range buffers {
			var w stats.Welford
			for rep := 0; rep < o.Reps; rep++ {
				w.Add(results[i].SnapshotConnectivity)
				i++
			}
			s.X = append(s.X, b)
			s.Y = append(s.Y, w.Mean())
			s.CI = append(s.CI, w.CI95())
		}
		f.Series = append(f.Series, s)
		knee, kneeY, plateau := kneeOf(s)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", d),
			fmt.Sprintf("%.0f", 2*d*vmax),
			fmt.Sprintf("%g", knee),
			fmt.Sprintf("%.3f", kneeY),
			fmt.Sprintf("%.3f", plateau),
		})
	}
	return f, t, nil
}

// faults renders the fault-injection figures: connectivity under loss and
// strict connectivity under Hello delay.
func faults(o Options) ([]Output, error) {
	parts := []struct {
		file string
		fig  func() (Figure, error)
	}{
		{"faults_loss_bernoulli.dat", func() (Figure, error) { return figLoss(o, []float64{0, 0.1, 0.2, 0.4, 0.6}) }},
		{"faults_delay.dat", func() (Figure, error) { return figDelay(o, []float64{0, 0.25, 0.5, 1.0}) }},
	}
	var outs []Output
	for _, p := range parts {
		f, err := p.fig()
		if err != nil {
			return nil, err
		}
		outs = append(outs, f.output(p.file))
	}
	return outs, nil
}

// bufferZone renders the Theorem 5 check at average speed 20 m/s (setdest
// max 40 m/s): predicted knees 2·Δ″·v = 0 / 40 / 80 m for Δ″ = 0 / 0.5 /
// 1.0 s, bracketed by the buffer grid.
func bufferZone(o Options) ([]Output, error) {
	f, t, err := figBufferZone(o, 20, []float64{0, 0.5, 1.0},
		[]float64{0, 10, 20, 30, 40, 50, 60, 80, 100, 120, 160})
	if err != nil {
		return nil, err
	}
	return []Output{f.output("bufferzone.dat"), t.output("bufferzone_knees.txt")}, nil
}

// kneeOf locates the saturation knee of a series assumed non-decreasing in
// the large: the smallest x whose y reaches 98 % of the series' maximum.
func kneeOf(s Series) (knee, kneeY, plateau float64) {
	for _, y := range s.Y {
		if y > plateau {
			plateau = y
		}
	}
	for i, y := range s.Y {
		if y >= 0.98*plateau {
			return s.X[i], y, plateau
		}
	}
	if n := len(s.X); n > 0 {
		return s.X[n-1], s.Y[n-1], plateau
	}
	return 0, 0, 0
}
