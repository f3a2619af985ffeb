package experiment

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// faultOptions is a tiny but physically meaningful scale for the fault
// sweeps: enough nodes and time for connectivity to respond to injected
// faults, small enough for CI.
func faultOptions() Options {
	o := DefaultOptions()
	o.N = 40
	o.Reps = 2
	o.Duration = 8
	return o
}

func TestFigLossDegradesMonotonically(t *testing.T) {
	rates := []float64{0, 0.3, 0.7}
	f, err := figLoss(faultOptions(), rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != len(BaselineNames()) {
		t.Fatalf("got %d series, want %d", len(f.Series), len(BaselineNames()))
	}
	for _, s := range f.Series {
		if len(s.X) != len(rates) {
			t.Fatalf("%s: %d points, want %d", s.Name, len(s.X), len(rates))
		}
		// Heavy loss must hurt relative to the ideal point. Middle points
		// can wobble at this tiny scale; the endpoints must not.
		if s.Y[len(s.Y)-1] >= s.Y[0] {
			t.Errorf("%s: connectivity %.3f at 70%% loss >= %.3f at 0%%",
				s.Name, s.Y[len(s.Y)-1], s.Y[0])
		}
	}
}

func TestFigDelayRuns(t *testing.T) {
	f, err := figDelay(faultOptions(), []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		for i, y := range s.Y {
			if y <= 0 || y > 1 {
				t.Errorf("%s[%d]: snapshot connectivity %.3f outside (0, 1]", s.Name, i, y)
			}
		}
	}
}

func TestFigBufferZoneKneeTracksTheorem5(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	// Average speed 20 → setdest max speed 40 m/s → predicted knees
	// 2·Δ″·v = 0, 40, 80 m for Δ″ = 0, 0.5, 1.0 s. At this reduced scale
	// the knee estimate is coarse, so assert the theorem's *shape*: the
	// knee must not shrink as Δ″ grows, and the Δ″=0 series must saturate
	// strictly earlier than the Δ″=1 s one.
	o := faultOptions()
	o.Duration = 10
	delays := []float64{0, 0.5, 1.0}
	buffers := []float64{0, 20, 40, 80, 120, 160}
	f, tbl, err := figBufferZone(o, 20, delays, buffers)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != len(delays) || len(tbl.Rows) != len(delays) {
		t.Fatalf("got %d series / %d rows, want %d", len(f.Series), len(tbl.Rows), len(delays))
	}
	knees := make([]float64, len(delays))
	for i, s := range f.Series {
		knees[i], _, _ = kneeOf(s)
	}
	for i := 1; i < len(knees); i++ {
		if knees[i] < knees[i-1] {
			t.Errorf("knee shrank with delay: Δ″=%gs knee %gm < Δ″=%gs knee %gm",
				delays[i], knees[i], delays[i-1], knees[i-1])
		}
	}
	if knees[len(knees)-1] <= knees[0] {
		t.Errorf("knee did not move: %gm at Δ″=0 vs %gm at Δ″=%gs (want strictly larger)",
			knees[0], knees[len(knees)-1], delays[len(delays)-1])
	}
	if !strings.Contains(tbl.Title, "2*delay*v") {
		t.Errorf("table title %q lost the prediction formula", tbl.Title)
	}
}

func TestKneeOf(t *testing.T) {
	s := Series{X: []float64{0, 10, 20, 30}, Y: []float64{0.50, 0.80, 0.98, 1.0}}
	knee, kneeY, plateau := kneeOf(s)
	if knee != 20 || kneeY != 0.98 || plateau != 1.0 { //lint:ignore float-eq exact literals propagated unchanged
		t.Errorf("kneeOf = (%g, %g, %g), want (20, 0.98, 1)", knee, kneeY, plateau)
	}
	if k, _, _ := kneeOf(Series{X: []float64{5}, Y: []float64{0.4}}); k != 5 { //lint:ignore float-eq exact literal propagated unchanged
		t.Errorf("single-point knee = %g, want 5", k)
	}
}

// TestFaultsWarmStoreComputesNothing checks that faults journals every
// run of its parts (loss, delay) into the store, and that a second
// faults over the same store computes nothing and renders the same
// outputs.
func TestFaultsWarmStoreComputesNothing(t *testing.T) {
	o := faultOptions()
	o.Reps = 1
	o.Duration = 2
	o.Store = openStore(t)
	want, err := faults(o)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := o.Store.Count()
	if err != nil || stored == 0 {
		t.Fatalf("cold faults stored %d runs (err %v), want its whole run set", stored, err)
	}

	var computed atomic.Int64
	o.Progress = func(done, total int) { computed.Add(1) }
	got, err := faults(o)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 0 {
		t.Errorf("warm store recomputed %d runs, want 0", computed.Load())
	}
	if n, err := o.Store.Count(); err != nil || n != stored {
		t.Errorf("warm faults left %d runs (err %v), want the cold sweep's %d", n, err, stored)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("faults rendered from the warm store differ from the cold sweep")
	}
}
