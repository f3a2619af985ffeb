package radio

import (
	"sort"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/lint"
	"mstc/internal/xrand"
)

// TestNoallocAnnotationsConform pins every //manet:noalloc annotation in
// this package with testing.AllocsPerRun: the per-window domain assignment
// and the medium's receiver and degree queries must allocate nothing when
// appending into a recycled dst, even when every call is at a new instant
// (a grid rebuild). Coverage is cross-checked against
// the annotation scan in both directions.
func TestNoallocAnnotationsConform(t *testing.T) {
	dg, err := NewDomainGrid(geom.Square(900), 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(17)
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(rng.Uniform(-50, 950), rng.Uniform(-50, 950))
	}
	dst := make([]int, 0, len(pts))
	marks := NewIDSet(len(pts))

	med, err := NewMedium(newWaypointModel(t, len(pts), 40, 1e4, 5), Config{}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ranges := make([]float64, len(pts))
	for i := range ranges {
		ranges[i] = 250
	}
	at := 0.0
	next := func() float64 { at += 2; return at } // 2·vmax·2 s > the 125 m slack: every call rebuilds

	measured := map[string]func(){
		"DomainGrid.AssignInto": func() { dst = dg.AssignInto(pts, dst[:0]) },
		"Medium.DegreesAt":      func() { dst = med.DegreesAt(next(), ranges, dst[:0]) },
		"Medium.ReceiversAt":    func() { dst = med.ReceiversAt(next(), 0, 250, dst[:0]) },
		"Degree": func() {
			med.buildGrid(next())
			for id := range pts {
				dst = append(dst[:0], Degree(med.grid, med.gridPos[id], 250))
			}
		},
		"IDSet.AppendSorted": func() { marks.Add(0); dst = marks.AppendSorted(dst[:0]) },
	}

	annotated, err := lint.NoallocFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(annotated))
	for _, name := range annotated {
		seen[name] = true
		if measured[name] == nil {
			t.Errorf("%s is annotated //manet:noalloc but has no AllocsPerRun entry", name)
		}
	}
	var names []string
	for name := range measured {
		if !seen[name] {
			t.Errorf("%s is measured here but not annotated //manet:noalloc", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := measured[name]
		fn() // warm up before measuring
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/run in steady state, want 0", name, allocs)
		}
	}
}
