package manet

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mstc/internal/channel"
	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

// connectedStatic returns a static model whose unit-disk graph is connected.
func connectedStatic(tb testing.TB, seed uint64, n int, horizon float64) mobility.Model {
	tb.Helper()
	for s := seed; ; s++ {
		pts := mobility.UniformPoints(arena, n, xrand.New(s))
		ok := true
		// Quick connectivity probe via the snapshot helper is overkill;
		// check with a simple union-find over the disk graph.
		uf := make([]int, n)
		for i := range uf {
			uf[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for uf[x] != x {
				uf[x] = uf[uf[x]]
				x = uf[x]
			}
			return x
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if pts[i].Dist(pts[j]) <= 250 {
					uf[find(i)] = find(j)
				}
			}
		}
		root := find(0)
		for i := 1; i < n && ok; i++ {
			ok = find(i) == root
		}
		if ok {
			return mobility.NewStatic(arena, pts, horizon)
		}
	}
}

func TestStaticNetworkFullConnectivity(t *testing.T) {
	model := connectedStatic(t, 100, 100, 30)
	for _, p := range topology.Baselines(250) {
		nw, err := NewNetwork(model, Config{Protocol: p, FloodRate: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res := nw.Run(30)
		if res.Connectivity < 0.999 {
			t.Errorf("%s on a static connected network: connectivity %.4f, want 1",
				p.Name(), res.Connectivity)
		}
		if res.Floods == 0 {
			t.Errorf("%s: no floods", p.Name())
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		model := waypointModel(t, 40, 9)
		nw, err := NewNetwork(model, Config{
			Protocol: topology.RNG{}, FloodRate: 10, Seed: 11,
			Mech: Mechanisms{Buffer: 10, ViewSync: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return nw.Run(15)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	model := connectedStatic(t, 1, 10, 5)
	bad := []Config{
		{}, // no protocol
		{Protocol: topology.RNG{}, NormalRange: -1},
		{Protocol: topology.RNG{}, HelloMin: 2, HelloMax: 1},
		{Protocol: topology.RNG{}, Mech: Mechanisms{Buffer: -1}},
		{Protocol: topology.RNG{}, Mech: Mechanisms{WeakK: -1}},
		{Protocol: topology.RNG{}, Mech: Mechanisms{WeakK: 2}}, // no Weak selector
		{Protocol: topology.RNG{}, FloodRate: -1},
		{Protocol: topology.RNG{}, Weak: topology.WeakRNG{}, Mech: Mechanisms{WeakK: 2, Reactive: true}},
	}
	for i, cfg := range bad {
		if _, err := NewNetwork(model, cfg); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
	// A lone node has no other node for a flood to reach: its
	// connectivity ratio would be 0/0.
	lone := mobility.NewStatic(arena, []geom.Point{geom.Pt(1, 1)}, 5)
	if _, err := NewNetwork(lone, Config{Protocol: topology.RNG{}}); err == nil || !strings.Contains(err.Error(), "at least 2 nodes") {
		t.Errorf("one-node model: err = %v, want one asking for at least 2 nodes", err)
	}
}

// floatFieldPaths returns the index path and dotted name of every float64
// field of struct type typ, nested structs included.
func floatFieldPaths(typ reflect.Type, prefix []int, name string) (paths [][]int, names []string) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		idx := append(append([]int(nil), prefix...), i)
		switch {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Float64:
			paths, names = append(paths, idx), append(names, name+f.Name)
		case f.Type.Kind() == reflect.Struct:
			p, n := floatFieldPaths(f.Type, idx, name+f.Name+".")
			paths, names = append(paths, p...), append(names, n...)
		}
	}
	return paths, names
}

// TestConfigRejectsNonFinite sets every float field of Config, nested
// configurations included, to NaN, +Inf and -Inf in turn: NewNetwork must
// refuse each one rather than run on it.
func TestConfigRejectsNonFinite(t *testing.T) {
	model := connectedStatic(t, 1, 10, 5)
	base := Config{Protocol: topology.RNG{}}
	if _, err := NewNetwork(model, base); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	paths, names := floatFieldPaths(reflect.TypeOf(base), nil, "")
	for i, path := range paths {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := base
			reflect.ValueOf(&cfg).Elem().FieldByIndex(path).SetFloat(bad)
			if _, err := NewNetwork(model, cfg); err == nil {
				t.Errorf("%s = %v accepted", names[i], bad)
			}
		}
	}
}

func TestAccessorsAfterRun(t *testing.T) {
	model := connectedStatic(t, 5, 50, 10)
	nw, err := NewNetwork(model, Config{Protocol: topology.RNG{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(10)
	sawLogical := false
	for id := 0; id < 50; id++ {
		ln := nw.LogicalNeighbors(id)
		if !sort.IntsAreSorted(ln) {
			t.Fatalf("node %d logical neighbors unsorted: %v", id, ln)
		}
		if len(ln) > 0 {
			sawLogical = true
			if nw.TxRange(id) <= 0 {
				t.Fatalf("node %d has logical neighbors but zero range", id)
			}
		}
		if nw.TxRange(id) < nw.ActualRange(id) {
			t.Fatalf("node %d: tx range below actual", id)
		}
	}
	if !sawLogical {
		t.Error("no node selected any logical neighbor")
	}
	// Returned slice is a copy.
	ln := nw.LogicalNeighbors(0)
	if len(ln) > 0 {
		ln[0] = -99
		if nw.LogicalNeighbors(0)[0] == -99 {
			t.Error("LogicalNeighbors exposed internal state")
		}
	}
}

func TestEffectiveDigraphStaticReachability(t *testing.T) {
	model := connectedStatic(t, 7, 80, 10)
	nw, err := NewNetwork(model, Config{Protocol: topology.MST{Range: 250}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(10)
	d := nw.EffectiveDigraphAt(10)
	if got := d.AvgReachability(); got < 0.999 {
		t.Errorf("static effective digraph reachability = %v, want 1", got)
	}
}

func TestSnapshotSampling(t *testing.T) {
	model := connectedStatic(t, 9, 40, 10)
	nw, err := NewNetwork(model, Config{
		Protocol: topology.RNG{}, Seed: 3, SnapshotEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run(10)
	if res.Snapshots == 0 {
		t.Fatal("no snapshots recorded")
	}
	if res.SnapshotConnectivity < 0.999 {
		t.Errorf("static snapshot connectivity = %v", res.SnapshotConnectivity)
	}
	if res.Floods != 0 {
		t.Errorf("FloodRate 0 but %d floods", res.Floods)
	}
}

func TestReactiveModeStatic(t *testing.T) {
	model := connectedStatic(t, 11, 60, 10)
	nw, err := NewNetwork(model, Config{
		Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 4,
		Mech: Mechanisms{Reactive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run(10)
	if res.Connectivity < 0.999 {
		t.Errorf("reactive static connectivity = %v", res.Connectivity)
	}
}

func TestReactiveBeatsAsyncUnderMobilityForMST(t *testing.T) {
	// Strong view consistency fixes MST's inconsistent-view partitions;
	// combined with a buffer it should clearly beat the asynchronous
	// baseline at moderate mobility.
	sumAsync, sumReactive := 0.0, 0.0
	const reps = 3
	for rep := uint64(0); rep < reps; rep++ {
		model := waypointModel(t, 20, 50+rep)
		async, err := NewNetwork(model, Config{
			Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 5 + rep,
			Mech: Mechanisms{Buffer: 30},
		})
		if err != nil {
			t.Fatal(err)
		}
		sumAsync += async.Run(20).Connectivity
		reactive, err := NewNetwork(model, Config{
			Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 5 + rep,
			Mech: Mechanisms{Buffer: 30, Reactive: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		sumReactive += reactive.Run(20).Connectivity
	}
	if sumReactive <= sumAsync {
		t.Errorf("reactive consistency did not help MST: async %.3f vs reactive %.3f",
			sumAsync/reps, sumReactive/reps)
	}
}

func TestProactiveModeStatic(t *testing.T) {
	model := connectedStatic(t, 19, 60, 10)
	nw, err := NewNetwork(model, Config{
		Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 4,
		Mech: Mechanisms{Proactive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run(10)
	if res.Connectivity < 0.999 {
		t.Errorf("proactive static connectivity = %v", res.Connectivity)
	}
}

func TestProactiveBeatsAsyncUnderMobilityForMST(t *testing.T) {
	// The proactive scheme pins every packet to one view version, fixing
	// MST's inconsistent-view partitions, like the reactive scheme but
	// without synchronized beaconing.
	sumAsync, sumPro := 0.0, 0.0
	const reps = 3
	for rep := uint64(0); rep < reps; rep++ {
		model := waypointModel(t, 20, 60+rep)
		async, err := NewNetwork(model, Config{
			Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 5 + rep,
			Mech: Mechanisms{Buffer: 30},
		})
		if err != nil {
			t.Fatal(err)
		}
		sumAsync += async.Run(20).Connectivity
		pro, err := NewNetwork(model, Config{
			Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 5 + rep,
			Mech: Mechanisms{Buffer: 30, Proactive: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		sumPro += pro.Run(20).Connectivity
	}
	if sumPro <= sumAsync {
		t.Errorf("proactive consistency did not help MST: async %.3f vs proactive %.3f",
			sumAsync/reps, sumPro/reps)
	}
}

func TestProactiveExclusiveValidation(t *testing.T) {
	model := connectedStatic(t, 1, 10, 5)
	if _, err := NewNetwork(model, Config{
		Protocol: topology.RNG{}, Mech: Mechanisms{Proactive: true, Reactive: true},
	}); err == nil {
		t.Error("Proactive+Reactive accepted")
	}
	if _, err := NewNetwork(model, Config{
		Protocol: topology.RNG{}, Weak: topology.WeakRNG{},
		Mech: Mechanisms{Proactive: true, WeakK: 2},
	}); err == nil {
		t.Error("Proactive+WeakK accepted")
	}
}

func TestWeakConsistencyMode(t *testing.T) {
	model := connectedStatic(t, 13, 60, 10)
	nw, err := NewNetwork(model, Config{
		Weak: topology.WeakRNG{}, FloodRate: 10, Seed: 6,
		Mech: Mechanisms{WeakK: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run(10)
	if res.Connectivity < 0.999 {
		t.Errorf("weak RNG static connectivity = %v", res.Connectivity)
	}
	if res.Protocol != "wRNG" {
		t.Errorf("result protocol = %q", res.Protocol)
	}
}

func TestWeakConservativeUnderMobility(t *testing.T) {
	// Weak selection is conservative, so its logical degree should be at
	// least the plain protocol's under the same mobility.
	model := waypointModel(t, 20, 77)
	plain, err := NewNetwork(model, Config{Protocol: topology.RNG{}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rPlain := plain.Run(15)
	weak, err := NewNetwork(model, Config{
		Weak: topology.WeakRNG{}, Seed: 8, Mech: Mechanisms{WeakK: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	rWeak := weak.Run(15)
	if rWeak.AvgLogicalDegree < rPlain.AvgLogicalDegree-0.05 {
		t.Errorf("weak degree %.3f below plain %.3f", rWeak.AvgLogicalDegree, rPlain.AvgLogicalDegree)
	}
}

func TestPhysicalNeighborsIncreaseDelivery(t *testing.T) {
	model := waypointModel(t, 40, 21)
	base, err := NewNetwork(model, Config{Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 9,
		Mech: Mechanisms{Buffer: 30}})
	if err != nil {
		t.Fatal(err)
	}
	rBase := base.Run(20)
	pn, err := NewNetwork(model, Config{Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 9,
		Mech: Mechanisms{Buffer: 30, PhysicalNeighbors: true}})
	if err != nil {
		t.Fatal(err)
	}
	rPN := pn.Run(20)
	if rPN.Connectivity <= rBase.Connectivity {
		t.Errorf("PN did not improve MST: %.3f vs %.3f", rBase.Connectivity, rPN.Connectivity)
	}
}

func TestLossInjection(t *testing.T) {
	// With hello/packet loss, the network still runs and delivers most
	// floods on a static topology (redundant RNG links tolerate it).
	model := connectedStatic(t, 17, 80, 15)
	nw, err := NewNetwork(model, Config{
		Protocol: topology.RNG{}, FloodRate: 10, Seed: 10,
		Channel: channel.Config{Loss: channel.LossConfig{Rate: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run(15)
	if res.Connectivity < 0.5 {
		t.Errorf("10%% loss collapsed a static RNG network: %.3f", res.Connectivity)
	}
	if res.Connectivity >= 0.9999 {
		t.Logf("note: loss had no visible effect (connectivity %.4f)", res.Connectivity)
	}
}

func TestOverheadCounters(t *testing.T) {
	model := connectedStatic(t, 31, 40, 10)
	nw, err := NewNetwork(model, Config{Protocol: topology.RNG{}, FloodRate: 10, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run(10)
	// ~40 nodes x ~10 hellos each in 10 s.
	if res.HelloTx < 40*6 || res.HelloTx > 40*16 {
		t.Errorf("HelloTx = %d, want roughly 400", res.HelloTx)
	}
	// Each flood is forwarded once per reached node: floods x ~40.
	if res.DataTx < res.Floods || res.DataTx > res.Floods*41 {
		t.Errorf("DataTx = %d for %d floods", res.DataTx, res.Floods)
	}
	// No flooding: zero data overhead.
	quiet, err := NewNetwork(model, Config{Protocol: topology.RNG{}, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if q := quiet.Run(10); q.DataTx != 0 {
		t.Errorf("DataTx = %d without floods", q.DataTx)
	}
}

func TestEnergyAccounting(t *testing.T) {
	model := connectedStatic(t, 37, 80, 15)
	run := func(p topology.Protocol, buffer float64) Result {
		nw, err := NewNetwork(model, Config{Protocol: p, FloodRate: 10, Seed: 18,
			Mech: Mechanisms{Buffer: buffer}})
		if err != nil {
			t.Fatal(err)
		}
		return nw.Run(15)
	}
	mst := run(topology.MST{Range: 250}, 0)
	full := run(topology.None{}, 0)
	if mst.DataEnergy <= 0 {
		t.Fatal("no data energy recorded")
	}
	// Per-transmission energy: topology control must spend far less than
	// full power (ranges ~80 m vs 250 m at alpha 2 → ~10x less).
	mstPerTx := mst.DataEnergy / float64(mst.DataTx)
	fullPerTx := full.DataEnergy / float64(full.DataTx)
	// "none" covers its farthest 1-hop neighbor (~230 m of 250), so its
	// per-transmission energy approaches but does not reach 1.
	if fullPerTx < 0.6 || fullPerTx > 1.0001 {
		t.Errorf("uncontrolled per-tx energy = %v, want near 1", fullPerTx)
	}
	if mstPerTx > 0.3*fullPerTx {
		t.Errorf("MST per-tx energy = %v vs uncontrolled %v: want large savings", mstPerTx, fullPerTx)
	}
	// A buffer strictly increases per-transmission energy.
	buf := run(topology.MST{Range: 250}, 50)
	if buf.DataEnergy/float64(buf.DataTx) <= mstPerTx {
		t.Error("buffer did not increase per-tx energy")
	}
	// Hello energy: one unit per hello.
	if mst.HelloEnergy != float64(mst.HelloTx) {
		t.Errorf("HelloEnergy %v != HelloTx %d", mst.HelloEnergy, mst.HelloTx)
	}
}

// TestTheorem5InSim: with view synchronization (logical sets recomputed
// from fresh views at every forward) and a buffer sized by Theorem 5 for
// the *actual* information-age bound, no logical link may be out of range
// at any sample instant.
func TestTheorem5InSim(t *testing.T) {
	const avgSpeed = 5.0
	maxSpeed := 2 * avgSpeed // setdest convention
	model := waypointModel(t, avgSpeed, 33)
	// Age bound: entry expiry (2.5 s) + one full hello interval until the
	// next re-selection (1.25 s).
	maxDelay := 2.5 + 1.25
	buf := topology.BufferWidth(maxDelay, maxSpeed)
	nw, err := NewNetwork(model, Config{
		Protocol: topology.RNG{}, Seed: 12,
		Mech: Mechanisms{Buffer: buf},
	})
	if err != nil {
		t.Fatal(err)
	}
	violations, total := 0, 0
	nw.Engine().Every(3, 0.5, func(now float64) {
		for id := 0; id < model.N(); id++ {
			p := model.PositionAt(id, now)
			for _, v := range nw.LogicalNeighbors(id) {
				total++
				if model.PositionAt(v, now).Dist(p) > nw.TxRange(id)+1e-9 {
					violations++
				}
			}
		}
	})
	nw.Run(30)
	if total == 0 {
		t.Fatal("no logical links sampled")
	}
	if violations > 0 {
		t.Errorf("theorem-5 buffer violated %d of %d link-coverage checks", violations, total)
	}
}
