package experiment

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"mstc/internal/manet"
)

// render renders the named registry entry, as paperfig -exp name does.
func render(t *testing.T, name string, o Options) []Output {
	t.Helper()
	exps, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := exps[0].Render(o)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// runGrid executes the protocols × speeds × mechs grid and aggregates it.
func runGrid(t *testing.T, o Options, protocols []string, speeds []float64, mechs []manet.Mechanisms) []Aggregate {
	t.Helper()
	tasks := crossTasks(protocols, speeds, mechs, o.Reps)
	results, err := Execute(o, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return aggregates(tasks, results, o.Reps)
}

// parseDat reads a rendered -dat file back into a Figure, at the file's
// printed precision.
func parseDat(t *testing.T, dat string) Figure {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(dat, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("dat file without its two header lines: %q", dat)
	}
	head := strings.Split(lines[1], "\t")
	f := Figure{Title: strings.TrimPrefix(lines[0], "# "), XLabel: strings.TrimPrefix(head[0], "# ")}
	for i := 1; i+1 < len(head); i += 2 {
		f.Series = append(f.Series, Series{Name: head[i]})
	}
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, line := range lines[2:] {
		cols := strings.Split(line, "\t")
		if len(cols) != 1+2*len(f.Series) {
			t.Fatalf("dat row %q has %d columns, want %d", line, len(cols), 1+2*len(f.Series))
		}
		for i := range f.Series {
			s := &f.Series[i]
			s.X = append(s.X, num(cols[0]))
			s.Y = append(s.Y, num(cols[1+2*i]))
			s.CI = append(s.CI, num(cols[2+2*i]))
		}
	}
	return f
}

// tableRows returns a rendered table's data rows, split into cells.
func tableRows(text string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n")[3:] {
		rows = append(rows, strings.Fields(line))
	}
	return rows
}

func tinyOptions() Options {
	o := DefaultOptions()
	o.N = 60
	o.Reps = 2
	o.Duration = 10
	o.Speeds = []float64{1, 40}
	o.Buffers = []float64{0, 100}
	return o
}

func TestValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	bad := []func(*Options){
		func(o *Options) { o.N = 1 },
		func(o *Options) { o.ArenaSide = 0 },
		func(o *Options) { o.NormalRange = -1 },
		func(o *Options) { o.Speeds = nil },
		func(o *Options) { o.Reps = 0 },
		func(o *Options) { o.Duration = 0 },
		func(o *Options) { o.Duration = -1 },
		func(o *Options) { o.Duration = math.NaN() },
		func(o *Options) { o.Duration = math.Inf(1) },
		func(o *Options) { o.Duration = math.Inf(-1) },
		func(o *Options) { o.Domains = -1 },
		func(o *Options) { o.Domains = 100 },
		func(o *Options) { o.Domains, o.EngineWorkers = 2, -1 },
		func(o *Options) { o.EngineWorkers = 2 },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
}

func TestExecuteDeterministicAcrossWorkerCounts(t *testing.T) {
	o := tinyOptions()
	tasks := []Run{
		{Protocol: "RNG", Speed: 40, Rep: 0},
		{Protocol: "RNG", Speed: 40, Rep: 1},
		{Protocol: "MST", Speed: 1, Rep: 0},
		{Protocol: "SPT-2", Speed: 40, Mech: manet.Mechanisms{Buffer: 10}, Rep: 0},
	}
	o.Workers = 1
	seq, err := Execute(o, tasks)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	par, err := Execute(o, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("task %d: sequential %+v != parallel %+v", i, seq[i], par[i])
		}
	}
}

func TestPairedMobilityAcrossProtocols(t *testing.T) {
	// Different protocols at the same (speed, rep) must see the same
	// mobility trace; we can't observe the trace directly, but re-running
	// the same task must reproduce bit-identical results.
	o := tinyOptions()
	r := Run{Protocol: "RNG", Speed: 40, Rep: 1}
	a, err := Execute(o, []Run{r})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(o, []Run{r})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Errorf("same task not reproducible: %+v vs %+v", a[0], b[0])
	}
}

func TestExecuteUnknownProtocol(t *testing.T) {
	o := tinyOptions()
	if _, err := Execute(o, []Run{{Protocol: "nope", Speed: 1}}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := Execute(o, []Run{{Protocol: "GG", Speed: 1, Mech: manet.Mechanisms{WeakK: 2}}}); err == nil {
		t.Error("weak GG accepted")
	}
}

func TestSweepShape(t *testing.T) {
	o := tinyOptions()
	aggs := runGrid(t, o, []string{"RNG", "MST"}, []float64{1, 40}, []manet.Mechanisms{{}, {Buffer: 100}})
	if len(aggs) != 2*2*2 {
		t.Fatalf("aggregates = %d, want 8", len(aggs))
	}
	for _, a := range aggs {
		if a.Connectivity.N() != o.Reps {
			t.Errorf("%s speed=%v: %d reps, want %d", a.Protocol, a.Speed, a.Connectivity.N(), o.Reps)
		}
		if a.Connectivity.Mean() < 0 || a.Connectivity.Mean() > 1 {
			t.Errorf("connectivity out of range: %v", a.Connectivity.Mean())
		}
		if a.TxRange.Mean() <= 0 || a.TxRange.Mean() > o.NormalRange {
			t.Errorf("range out of range: %v", a.TxRange.Mean())
		}
	}
	// Order: protocol-major.
	if aggs[0].Protocol != "RNG" || aggs[4].Protocol != "MST" {
		t.Errorf("ordering wrong: %v / %v", aggs[0].Protocol, aggs[4].Protocol)
	}
}

func TestBufferImprovesConnectivity(t *testing.T) {
	// The central claim of Fig. 7: at moderate mobility, a 100 m buffer
	// beats no buffer.
	o := tinyOptions()
	o.Reps = 3
	aggs := runGrid(t, o, []string{"RNG"}, []float64{40}, []manet.Mechanisms{{}, {Buffer: 100}})
	raw, buf := aggs[0].Connectivity.Mean(), aggs[1].Connectivity.Mean()
	if buf <= raw {
		t.Errorf("100 m buffer did not improve connectivity: %.3f vs %.3f", raw, buf)
	}
}

func TestTable1Renders(t *testing.T) {
	o := tinyOptions()
	outs := render(t, "table1", o)
	if len(outs) != 1 || outs[0].File != "table1.txt" || outs[0].Dat != outs[0].Text {
		t.Fatalf("table1 outputs = %+v, want the table saved as table1.txt", outs)
	}
	rows := tableRows(outs[0].Text)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i, p := range BaselineNames() {
		if rows[i][0] != p {
			t.Errorf("row %d is %s, want %s:\n%s", i, rows[i][0], p, outs[0].Text)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	o := tinyOptions()
	outs := render(t, "fig6", o)
	if len(outs) != 1 || outs[0].File != "fig6.dat" {
		t.Fatalf("fig6 outputs = %+v, want one saved as fig6.dat", outs)
	}
	fig := parseDat(t, outs[0].Dat)
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != len(o.Speeds) || len(s.Y) != len(o.Speeds) || len(s.CI) != len(o.Speeds) {
			t.Errorf("series %s has wrong length", s.Name)
		}
	}
	if !strings.Contains(outs[0].Text, "speed (m/s)") {
		t.Error("figure rendering missing x label")
	}
}

func TestFigureAndTableStringEdgeCases(t *testing.T) {
	empty := Figure{Title: "t", XLabel: "x", YLabel: "y"}
	if got := empty.String(); !strings.Contains(got, "t") {
		t.Errorf("empty figure render: %q", got)
	}
	tab := Table{Header: []string{"a", "long-header"}, Rows: [][]string{{"wider-than-header", "b"}}}
	s := tab.String()
	if !strings.Contains(s, "wider-than-header") || !strings.Contains(s, "long-header") {
		t.Errorf("table render: %q", s)
	}
}

func TestFigConsistencyShape(t *testing.T) {
	o := tinyOptions()
	o.Speeds = []float64{20}
	outs := render(t, "consistency", o)
	if len(outs) != 2 || outs[0].File != "consistency_MST.dat" || outs[1].File != "consistency_RNG.dat" {
		t.Fatalf("consistency outputs = %+v, want MST then RNG", outs)
	}
	fig := parseDat(t, outs[0].Dat)
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(fig.Series))
	}
	names := map[string]bool{}
	for _, s := range fig.Series {
		names[s.Name] = true
		if len(s.Y) != 1 {
			t.Errorf("series %s has %d points", s.Name, len(s.Y))
		}
	}
	for _, want := range []string{"plain", "viewsync", "weak-k3", "proactive", "reactive"} {
		if !names[want] {
			t.Errorf("missing series %q", want)
		}
	}
}

func TestTableEnergyShape(t *testing.T) {
	o := tinyOptions()
	outs := render(t, "energy", o)
	rows := tableRows(outs[0].Text)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (4 baselines + none)", len(rows))
	}
	if rows[4][0] != "none" {
		t.Errorf("last row = %q, want none", rows[4][0])
	}
	if !strings.Contains(outs[0].Text, "x less") {
		t.Error("savings column missing")
	}
}

func TestFigRoutingShape(t *testing.T) {
	o := tinyOptions()
	o.Speeds = []float64{1, 40}
	outs := render(t, "routing", o)
	if len(outs) != 2 || outs[0].File != "routing_GG.dat" || outs[1].File != "routing_RNG.dat" {
		t.Fatalf("routing outputs = %+v, want GG then RNG", outs)
	}
	fig := parseDat(t, outs[0].Dat)
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 2 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Y))
		}
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Errorf("delivery %v out of range", y)
			}
		}
	}
	// At low speed, delivery should be decent on GG.
	if fig.Series[0].Y[0] < 0.5 {
		t.Errorf("GG greedy delivery at 1 m/s = %.3f, suspiciously low", fig.Series[0].Y[0])
	}
	if _, err := Execute(o, []Run{{Protocol: "nope", Speed: 1, Unicast: manet.UnicastConfig{Rate: 20}}}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestFigureDat(t *testing.T) {
	f := Figure{
		Title:  "demo",
		XLabel: "speed",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 0.25}, CI: []float64{0.1, 0.05}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{1, 0.75}, CI: []float64{0, 0.01}},
		},
	}
	got := f.Dat()
	want := "# demo\n# speed\ta\ta_ci95\tb\tb_ci95\n" +
		"1\t0.500000\t0.100000\t1.000000\t0.000000\n" +
		"2\t0.250000\t0.050000\t0.750000\t0.010000\n"
	if got != want {
		t.Errorf("Dat =\n%q\nwant\n%q", got, want)
	}
	empty := Figure{Title: "t", XLabel: "x"}
	if got := empty.Dat(); !strings.HasPrefix(got, "# t\n") {
		t.Errorf("empty Dat = %q", got)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{1: "1", 1.5: "1.5", 0.25: "0.25", 100: "100"}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
