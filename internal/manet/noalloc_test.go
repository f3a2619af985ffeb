package manet

import (
	"reflect"
	"testing"

	"mstc/internal/channel"
	"mstc/internal/lint"
	"mstc/internal/sim"
	"mstc/internal/topology"
	"mstc/internal/traffic"
)

// TestNoallocAnnotationsConform pins this package's //manet:noalloc
// annotations — the pooled delivery actors and the hello scheduling path —
// with testing.AllocsPerRun over windows of engine time. The annotated
// methods cannot run in isolation (they are event callbacks), so the
// measured unit is the whole steady-state event loop that exercises them:
// delayed hello deliveries (helloDelivery.Act via scheduleHellos) and a
// recycled flood probe (delivery.Act via transmit). After a warm-up that
// grows every pool and scratch buffer, advancing simulated time must
// allocate nothing.
func TestNoallocAnnotationsConform(t *testing.T) {
	annotated, err := lint.NoallocFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"Network.forwardData", "Network.observe", "Network.scheduleHellos",
		"delivery.Act", "helloDelivery.Act", "parRun.processDomain",
		"parRun.processFloodScan", "parRun.processRecord", "parRun.processSample", "parRun.processSegment",
		"parRun.processSettle", "parRun.receivers", "trafficDelivery.Act",
		"trafficState.olsrNextHop",
	}
	if !reflect.DeepEqual(annotated, want) {
		t.Fatalf("//manet:noalloc set changed: got %v, want %v — update this conformance test with the new path", annotated, want)
	}

	const n = 48
	model := connectedStatic(t, 100, n, 1e9)
	cfg := Config{Protocol: topology.RNG{}, Seed: 7}
	// A bounded channel delay routes every hello through scheduleHellos and
	// the pooled helloDelivery actors (the undelayed direct path would
	// bypass them).
	cfg.Channel.Delay = channel.DelayConfig{Max: 0.02}
	nw, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Run's beacon schedule...
	nw.scheduleBeacons()
	// ...plus a flood driver that recycles one probe, so the only per-flood
	// cost left is the pooled delivery path under test.
	fl := &flood{accepted: make([]bool, n)}
	src := 0
	nw.eng.Every(0.5, 0.2, func(now sim.Time) {
		for i := range fl.accepted {
			fl.accepted[i] = false
		}
		fl.src = src % n
		src++
		fl.accepted[fl.src] = true
		fl.count = 1
		nw.transmit(fl, fl.src, now)
	})

	// Warm up: grow delivery pools, hello tables, scratch buffers and the
	// event heap to their steady-state footprint.
	deadline := sim.Time(8)
	nw.eng.Run(deadline)

	if nw.helloTx == 0 || len(nw.dels.free) == 0 || len(nw.hellos.free) == 0 {
		t.Fatalf("warm-up did not exercise the annotated paths: helloTx=%d pooled deliveries=%d pooled hellos=%d",
			nw.helloTx, len(nw.dels.free), len(nw.hellos.free))
	}

	events := 0
	step := func() {
		deadline += 0.25
		events += nw.eng.Run(deadline)
	}
	if allocs := testing.AllocsPerRun(80, step); allocs != 0 {
		t.Errorf("steady-state event loop: %.2f allocs per %.2fs window, want 0", allocs, 0.25)
	}
	if events == 0 {
		t.Fatal("measured windows executed no events; the conformance run is vacuous")
	}
}

// TestTrafficSteadyStateAllocs pins the traffic forwarding hot path
// (//manet:noalloc on trafficDelivery.Act and Network.forwardData): on a
// static network with AODV routes discovered and kept warm by the data
// stream itself, advancing the event loop — CBR emission, per-hop relay,
// route-table lookup and refresh, pooled deliveries — must allocate
// nothing.
func TestTrafficSteadyStateAllocs(t *testing.T) {
	const n = 48
	model := connectedStatic(t, 100, n, 1e9)
	cfg := Config{Protocol: topology.RNG{}, Seed: 7}
	cfg.Traffic = traffic.Config{Mode: traffic.AODV, Flows: 6, Rate: 8}
	nw, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror Run's scheduling: hello beacons plus the traffic subsystem,
	// with a horizon far beyond the measured windows so the drain guard
	// never stops emission.
	nw.scheduleBeacons()
	nw.startTraffic(1e9)

	// Warm up: discoveries complete, pools and the event heap grow to
	// their steady-state footprint.
	deadline := sim.Time(12)
	nw.eng.Run(deadline)
	ts := nw.traf
	if ts.delivered == 0 || len(ts.data.free) == 0 {
		t.Fatalf("warm-up did not exercise the data path: delivered=%d pooled=%d",
			ts.delivered, len(ts.data.free))
	}

	before := ts.delivered
	events := 0
	step := func() {
		deadline += 0.25
		events += nw.eng.Run(deadline)
	}
	if allocs := testing.AllocsPerRun(80, step); allocs != 0 {
		t.Errorf("traffic steady state: %.2f allocs per %.2fs window, want 0", allocs, 0.25)
	}
	if events == 0 || ts.delivered == before {
		t.Fatalf("measured windows delivered no packets (events=%d, delivered=%d→%d); the measurement is vacuous",
			events, before, ts.delivered)
	}
}

// TestParallelStepNoalloc pins the region-parallel hot path (//manet:noalloc
// on parRun.processDomain, parRun.processRecord, parRun.processSample and
// parRun.receivers): after warm-up, a full synchronization window — batched
// resolve, grid rebuild, domain assignment, record dispatch, and the inline
// single-worker barrier — must allocate nothing. The sampled run adds the
// 10 Hz metric samples as engine fences, each a snapshot and a sample
// barrier over the domains, with Bernoulli channel loss on so the receiver
// scans filter through the loss chains.
func TestParallelStepNoalloc(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		name := "windows"
		if sampled {
			name = "sampled"
		}
		t.Run(name, func(t *testing.T) {
			model := parWaypoint(t, 48, 20, 60, 5)
			cfg := Config{Protocol: topology.RNG{}, Domains: 2, ParallelWorkers: 1, Seed: 7}
			if sampled {
				cfg.Channel.Loss = channel.LossConfig{Rate: 0.1}
			}
			nw, err := NewNetwork(model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Drive the parallel clock directly. Unsampled, no engine
			// fence is scheduled and every step is one pure hello window
			// ending in a barrier; sampled, Run's sample schedule adds a
			// fence every 0.1 s.
			pr := nw.newParRun()
			defer pr.close()
			if sampled {
				nw.par = pr
				nw.eng.Every(0, 1/nw.cfg.SampleRate, nw.sampleMetrics)
			}
			const horizon = 1e9
			for i := 0; i < 8; i++ { // warm up buffers, tables, selection scratch
				pr.step(horizon)
			}
			if nw.helloTx == 0 {
				t.Fatal("warm-up dispatched no hellos; the measurement is vacuous")
			}
			before, samples := nw.helloTx, nw.degSamples
			if allocs := testing.AllocsPerRun(60, func() { pr.step(horizon) }); allocs != 0 {
				t.Errorf("parallel window: %.2f allocs/run in steady state, want 0", allocs)
			}
			if nw.helloTx == before {
				t.Fatal("measured windows dispatched no hellos; the measurement is vacuous")
			}
			if sampled && (nw.degSamples == samples || nw.phyDegSum == 0) {
				t.Fatalf("measured windows took no degree sample (samples %d→%d, degree sum %g); the measurement is vacuous",
					samples, nw.degSamples, nw.phyDegSum)
			}
		})
	}
}

// TestWeakSelectionSteadyStateAllocs pins weak-consistency selection
// (§4.2, selectWeak over each neighbour's k most recent "Hello" messages)
// at zero allocations in steady state, for the weak RNG and weak MST
// kernels: once the k-deep histories and the flat position buffer have
// grown, advancing the event loop — beacons, k-slot table writes and the
// weak re-selection every beacon's sender makes — must allocate nothing.
func TestWeakSelectionSteadyStateAllocs(t *testing.T) {
	const n = 48
	model := connectedStatic(t, 100, n, 1e9)
	for _, weak := range []topology.WeakProtocol{topology.WeakRNG{}, topology.WeakMST{Range: 250}} {
		t.Run(weak.Name(), func(t *testing.T) {
			cfg := Config{Weak: weak, Mech: Mechanisms{WeakK: 3}, Seed: 7}
			nw, err := NewNetwork(model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nw.scheduleBeacons()
			// Warm up: every table holds k messages per neighbour and every
			// scratch buffer has its steady-state capacity.
			deadline := sim.Time(8)
			nw.eng.Run(deadline)
			before := nw.helloTx
			step := func() {
				deadline += 0.25
				nw.eng.Run(deadline)
			}
			if allocs := testing.AllocsPerRun(80, step); allocs != 0 {
				t.Errorf("weak-k steady state: %.2f allocs per %.2fs window, want 0", allocs, 0.25)
			}
			if nw.helloTx == before {
				t.Fatal("measured windows sent no hellos; the measurement is vacuous")
			}
		})
	}
}
