package experiment

import (
	"fmt"
	"strings"

	"mstc/internal/manet"
)

// Output is one artifact an experiment renders: the text printed on stdout
// and the -dat file that keeps it.
type Output struct {
	Text string // printed followed by a newline
	File string // -dat file name
	Dat  string // -dat file contents
}

func (f Figure) output(file string) Output { return Output{f.String(), file, f.Dat()} }
func (t Table) output(file string) Output  { return Output{t.String(), file, t.String()} }

// Experiment is one entry of the evaluation registry: an -exp name, how its
// runs are enumerated, and how they are rendered. paperfig renders entries,
// and TaskSet hands their runs to the sweep fleet; both read Experiments,
// so a store filled from an entry's task set renders that entry with zero
// recomputation.
type Experiment struct {
	Name string
	// InAll marks the entries "all" selects.
	InAll bool
	// Tasks enumerates the entry's complete run set, in the order render
	// reads the results. It is nil for faults and bufferzone, whose parts
	// run under changed Options (no flooding, snapshot sampling), so no run
	// set under the caller's options fingerprint can warm them.
	Tasks func(o Options) []Run
	// render turns the results of Tasks(o), in task order, into outputs.
	render func(o Options, tasks []Run, results []manet.Result) []Output
	// run renders an entry without Tasks by executing its parts itself.
	run func(o Options) ([]Output, error)
}

// Render executes the entry's runs and returns its outputs in print order.
func (e Experiment) Render(o Options) ([]Output, error) {
	if e.Tasks == nil {
		return e.run(o)
	}
	tasks := e.Tasks(o)
	results, err := Execute(o, tasks)
	if err != nil {
		return nil, err
	}
	return e.render(o, tasks, results), nil
}

// aggEntry is an entry of "all" whose renderer reads the per-configuration
// Aggregates of its task set.
func aggEntry(name string, tasks func(o Options) []Run, render func([]Aggregate) []Output) Experiment {
	return Experiment{Name: name, InAll: true, Tasks: tasks,
		render: func(o Options, tasks []Run, results []manet.Result) []Output {
			return render(aggregates(tasks, results, o.Reps))
		}}
}

// Experiments returns the registry in presentation order: the paper's
// Table 1 and Figs. 6–10, the extensions "all" includes, then the opt-in
// traffic and fault-injection experiments, which stay out of "all" so its
// output is unchanged by the subsystems they exercise.
func Experiments() []Experiment {
	none := []manet.Mechanisms{{}}
	viewSync := func(m manet.Mechanisms) manet.Mechanisms { m.ViewSync = true; return m }
	physical := func(m manet.Mechanisms) manet.Mechanisms { m.PhysicalNeighbors = true; return m }
	return []Experiment{
		aggEntry("table1", func(o Options) []Run {
			return crossTasks(BaselineNames(), []float64{1}, none, o.Reps)
		}, table1),
		aggEntry("fig6", func(o Options) []Run {
			return crossTasks(BaselineNames(), o.Speeds, none, o.Reps)
		}, fig6),
		aggEntry("fig7", func(o Options) []Run {
			return crossTasks(BaselineNames(), o.Speeds, bufferMechs(o.Buffers, nil), o.Reps)
		}, panels("7", "connectivity with buffer zones")),
		aggEntry("fig8", func(o Options) []Run {
			return crossTasks(BaselineNames(), []float64{40}, bufferMechs(o.Buffers, nil), o.Reps)
		}, fig8),
		aggEntry("fig9", func(o Options) []Run {
			return crossTasks(BaselineNames(), o.Speeds, bufferMechs(o.Buffers, viewSync), o.Reps)
		}, panels("9", "connectivity with/without view synchronization")),
		aggEntry("fig10", func(o Options) []Run {
			return crossTasks(BaselineNames(), o.Speeds, bufferMechs(o.Buffers, physical), o.Reps)
		}, panels("10", "connectivity before/after physical neighbors")),
		aggEntry("consistency", func(o Options) []Run {
			return crossTasks([]string{"MST", "RNG"}, o.Speeds, consistencyMechs(), o.Reps)
		}, consistency),
		aggEntry("energy", func(o Options) []Run {
			return crossTasks(append(BaselineNames(), "none"), []float64{1}, none, o.Reps)
		}, tableEnergy),
		aggEntry("routing", routingTasks, routing),
		{Name: "traffic", Tasks: trafficTasks, render: trafficOutputs},
		{Name: "faults", run: faults},
		{Name: "bufferzone", run: bufferZone},
	}
}

// Lookup resolves an -exp name to the entries it selects: every InAll
// entry for "all", else the one entry whose name matches case-insensitively.
func Lookup(name string) ([]Experiment, error) {
	var sel []Experiment
	for _, e := range Experiments() {
		if name == "all" && e.InAll || strings.EqualFold(name, e.Name) {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("experiment: unknown experiment %q (valid: %s)", name, Usage())
	}
	return sel, nil
}

// Usage lists the -exp names: the entries "all" selects, "all" itself,
// then the opt-in entries.
func Usage() string {
	var all, optIn []string
	for _, e := range Experiments() {
		if e.InAll {
			all = append(all, e.Name)
		} else {
			optIn = append(optIn, e.Name)
		}
	}
	return fmt.Sprintf("%s, all; opt-in extras (not in all): %s",
		strings.Join(all, ", "), strings.Join(optIn, ", "))
}
