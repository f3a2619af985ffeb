package main

import (
	"reflect"
	"testing"

	"mstc/internal/experiment"
	"mstc/internal/geom"
	"mstc/internal/manet"
	"mstc/internal/mobility"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

// randomViews returns canonical views of self plus nbrs random neighbors
// within 250 m, with random distinct ids.
func randomViews(count, nbrs int, seed uint64) []topology.View {
	rng := xrand.New(seed)
	var out []topology.View
	for c := 0; c < count; c++ {
		v := topology.View{Self: topology.NodeInfo{ID: rng.Intn(1000), Pos: geom.Pt(250, 250)}}
		for i := 0; i < nbrs; i++ {
			v.Neighbors = append(v.Neighbors, topology.NodeInfo{
				ID:  rng.Intn(1000),
				Pos: geom.Pt(rng.Uniform(0, 500), rng.Uniform(0, 500)),
			})
		}
		out = append(out, v.Canon())
	}
	return out
}

// TestSelectProbeMatchesBare checks that the wrappers select exactly what
// the bare protocols select, view by view.
func TestSelectProbeMatchesBare(t *testing.T) {
	views := randomViews(50, 20, 7)
	for _, name := range []string{"MST", "RNG", "GG", "SPT-2", "SPT-4", "Yao-6", "none"} {
		p, err := topology.ByName(name, 250)
		if err != nil {
			t.Fatal(err)
		}
		probe := selectProbe{inner: p, st: &selectStats{}}
		var s1, s2 topology.Scratch
		for i, v := range views {
			want := topology.SelectInto(p, v, nil, &s1)
			got := topology.SelectInto(probe, v, nil, &s2)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(probe.Select(v), p.Select(v)) {
				t.Fatalf("%s view %d: probe selects %v, protocol %v", name, i, got, want)
			}
		}
		if calls := probe.st.total().calls; probe.Name() != p.Name() || calls != 2*len(views) {
			t.Errorf("%s: name %q, %d calls counted", name, probe.Name(), calls)
		}
	}
	rng := xrand.New(3)
	for _, name := range []string{"MST", "RNG", "SPT-2", "SPT-4"} {
		w, err := topology.WeakByName(name, 250)
		if err != nil {
			t.Fatal(err)
		}
		probe := weakSelectProbe{inner: w, st: &selectStats{}}
		var s1, s2 topology.Scratch
		for i, v := range views {
			mv := topology.MultiView{Self: topology.MultiNodeInfo{ID: v.Self.ID, Positions: []geom.Point{v.Self.Pos}}}
			for _, n := range v.Neighbors {
				mv.Neighbors = append(mv.Neighbors, topology.MultiNodeInfo{ID: n.ID, Positions: []geom.Point{
					n.Pos, geom.Pt(n.Pos.X+rng.Uniform(-20, 20), n.Pos.Y+rng.Uniform(-20, 20)),
				}})
			}
			want := topology.SelectWeakInto(w, mv, nil, &s1)
			got := topology.SelectWeakInto(probe, mv, nil, &s2)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("w%s view %d: probe selects %v, protocol %v", name, i, got, want)
			}
		}
	}
}

// TestSelectProbeUnderDomainWorkers runs region-parallel simulations with
// two domain workers calling the wrappers concurrently (run with -race)
// and checks the results equal the bare protocols'.
func TestSelectProbeUnderDomainWorkers(t *testing.T) {
	model, err := mobility.NewRandomWaypoint(geom.Square(700), mobility.WaypointConfig{
		N: 80, SpeedMin: 0, SpeedMax: 40, Horizon: 6,
	}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []manet.Mechanisms{{}, {Buffer: 10, WeakK: 3}, {Buffer: 10, ViewSync: true}} {
		run := func(wrap bool) (manet.Result, int) {
			cfg := manet.Config{FloodRate: 10, Mech: mech, Domains: 2, ParallelWorkers: 2, Seed: 5}
			st := &selectStats{}
			if mech.WeakK > 0 {
				cfg.Weak = topology.WeakRNG{}
				if wrap {
					cfg.Weak = weakSelectProbe{inner: topology.WeakRNG{}, st: st}
				}
			} else {
				cfg.Protocol = topology.RNG{}
				if wrap {
					cfg.Protocol = selectProbe{inner: topology.RNG{}, st: st}
				}
			}
			nw, err := manet.NewNetwork(model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return nw.Run(6), st.total().calls
		}
		bare, _ := run(false)
		wrapped, calls := run(true)
		if resultHash(bare) != resultHash(wrapped) {
			t.Errorf("%+v: wrapped run differs:\n%#v\n%#v", mech, wrapped, bare)
		}
		if calls == 0 {
			t.Errorf("%+v: the wrapper saw no selection calls", mech)
		}
	}
}

// TestComputeTracedMatchesComputeRun checks the benchmark's replica of the
// experiment runner against experiment.ComputeRun across the task families
// of TaskSet("all") — flooding, every mechanism, weak consistency, greedy
// unicast and routed traffic — on both engines.
func TestComputeTracedMatchesComputeRun(t *testing.T) {
	o := experiment.QuickOptions()
	o.Reps, o.Duration = 1, 2
	tasks, err := experiment.TaskSet("all", o)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for i := 0; i < len(tasks); i += 13 {
		for _, domains := range []int{0, 2} {
			od := o
			if domains > 0 {
				od.Domains, od.EngineWorkers = domains, 2
			}
			want, err := experiment.ComputeRun(od, tasks[i])
			if err != nil {
				t.Fatal(err)
			}
			got, err := computeTraced(od, tasks[i], tr, i, 0)
			if err != nil {
				t.Fatal(err)
			}
			if resultHash(got.res) != resultHash(want) {
				t.Errorf("%s domains=%d: traced replica differs", tasks[i].Desc(), domains)
			}
		}
	}
	if len(tr.durations("manet.Network.Run")) == 0 || len(tr.durations("run")) == 0 {
		t.Error("the replica recorded no spans")
	}
}
