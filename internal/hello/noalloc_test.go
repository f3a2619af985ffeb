package hello

import (
	"sort"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/lint"
)

// TestNoallocAnnotationsConform pins every //manet:noalloc annotation in
// this package with testing.AllocsPerRun: appending into a recycled dst,
// each annotated accessor must allocate nothing. Coverage is cross-checked
// against the annotation scan in both directions.
func TestNoallocAnnotationsConform(t *testing.T) {
	const n, k = 16, 3
	tbl := NewTablesN(k, 30, n, 1)[0]
	ver := tbl.Version()
	for round := 0; round < k+1; round++ {
		for id := 0; id < n; id++ {
			tbl.Observe(Message{
				From:    id,
				Pos:     geom.Pt(float64(id), float64(round)),
				SentAt:  float64(round),
				Version: tbl.Version() + 1,
			})
			if id == n/2 && round == k/2 {
				ver = tbl.Version() // a mid-history version for AsOfInto
			}
		}
	}
	now := float64(k + 1)
	var dst []Message

	accessors := map[string]func(){
		"Table.LatestInto":    func() { dst = tbl.LatestInto(dst[:0], now) },
		"Table.HistoryInto":   func() { dst = tbl.HistoryInto(dst[:0], n/2, now) },
		"Table.HistoriesInto": func() { dst = tbl.HistoriesInto(dst[:0], now) },
		"Table.VersionedInto": func() { dst = tbl.VersionedInto(dst[:0], ver, now) },
		"Table.AsOfInto":      func() { dst = tbl.AsOfInto(dst[:0], ver, now) },
	}

	annotated, err := lint.NoallocFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(annotated))
	for _, name := range annotated {
		seen[name] = true
		if accessors[name] == nil {
			t.Errorf("%s is annotated //manet:noalloc but has no AllocsPerRun entry", name)
		}
	}
	var names []string
	for name := range accessors {
		if !seen[name] {
			t.Errorf("%s is measured here but not annotated //manet:noalloc", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := accessors[name]
		fn() // grow dst to steady state before measuring
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/run in steady state, want 0", name, allocs)
		}
	}
}
