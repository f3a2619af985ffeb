package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mstc/internal/manet"
)

// Differential regression for the ideal (zero-value) channel path: every
// result and rendered figure must stay byte-identical across refactors.
// Any drift means the ideal path consumed randomness, reordered draws, or
// changed substream labels, and is a bug — not a baseline to re-pin.
//
// History: the original digests were captured on the commit preceding the
// channel subsystem and survived it unchanged. Two deliberate re-pins
// since:
//
//  1. Flood forwarding moved onto the region-parallel engine: the forward
//     jitter had ridden the root network stream (its position depending on
//     the global chronological transmit order — state no parallel execution
//     can reproduce), and was re-keyed to a pure per-(flood, forwarder,
//     receiver) substream so both engines resolve identical deferrals. That
//     re-keying changes individual jitter values (never their distribution),
//     verified serial == parallel by manet's differential matrix.
//  2. The traffic subsystem extended manet.Result with zero-valued Traffic
//     and Unicast fields. resultsDigest hashes the %#v record form, which
//     prints struct fields by name, so the representation changed while
//     every pre-existing value stayed bit-identical — proven by the Fig6
//     render digest below surviving the same commit unchanged.

const (
	goldenResultsDigest = "44bc42e4b65e5a10fca7d41c113720fb91cf7f45693c491feb0ba8fd72d550c8"
	goldenFig6Digest    = "f242ebe6c3a814b894a89957acf473157def4e58503965fac317ed714497ccdc"
)

func goldenOptions() Options {
	o := DefaultOptions()
	o.N = 40
	o.Reps = 2
	o.Duration = 5
	o.Speeds = []float64{40}
	o.Workers = 4
	return o
}

func goldenTasks() []Run {
	var tasks []Run
	for rep := 0; rep < 2; rep++ {
		tasks = append(tasks,
			Run{Protocol: "RNG", Speed: 40, Rep: rep},
			Run{Protocol: "MST", Speed: 40, Mech: manet.Mechanisms{Buffer: 10, ViewSync: true}, Rep: rep},
			Run{Protocol: "SPT-2", Speed: 40, Mech: manet.Mechanisms{Buffer: 100, PhysicalNeighbors: true}, Rep: rep},
		)
	}
	return tasks
}

func TestIdealChannelResultsBitIdentical(t *testing.T) {
	results, err := Execute(goldenOptions(), goldenTasks())
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsDigest(results); got != goldenResultsDigest {
		t.Errorf("ideal-channel results drifted from the pre-channel golden digest:\n got %s\nwant %s",
			got, goldenResultsDigest)
	}
}

// TestTrafficGoldenDigest pins the complete traffic render (figure,
// .dat series, and per-point table) at a tiny scale. The traffic
// subsystem draws from dedicated substreams ('t' pairs, 'q' jitter), so
// this digest must survive refactors of unrelated subsystems — and any
// traffic-layer change that moves it must be deliberate.
func TestTrafficGoldenDigest(t *testing.T) {
	const goldenTrafficDigest = "dacb4ae312446ef82314b14c4d9ef4e28af826db2fe7b047b8310c6e26cc48df"
	o := goldenOptions()
	o.Duration = 8
	outs := render(t, "traffic", o)
	sum := sha256.Sum256([]byte(outs[0].Text + "\n" + outs[0].Dat + "\n" + outs[1].Text))
	if got := hex.EncodeToString(sum[:]); got != goldenTrafficDigest {
		t.Errorf("traffic render drifted from the golden digest:\n got %s\nwant %s",
			got, goldenTrafficDigest)
	}
}

func TestIdealChannelFig6BitIdentical(t *testing.T) {
	o := goldenOptions()
	o.Duration = 8
	out := render(t, "fig6", o)[0]
	sum := sha256.Sum256([]byte(out.Text + "\n" + out.Dat))
	if got := hex.EncodeToString(sum[:]); got != goldenFig6Digest {
		t.Errorf("ideal-channel Fig6 render drifted from the pre-channel golden digest:\n got %s\nwant %s",
			got, goldenFig6Digest)
	}
}

// TestConsistencyGoldenDigest pins the %#v form of every result of the
// §4 consistency mechanisms (buffer only, view sync, weak consistency with
// k = 3, proactive and reactive strong consistency) under MST, RNG and
// SPT-2 at two speeds. Each mechanism re-runs local selection on its own
// kind of view — pinned epochs, same-version rounds, multi-position
// histories — so a selection kernel that decides one neighbour differently
// on any of them moves this digest.
func TestConsistencyGoldenDigest(t *testing.T) {
	const goldenConsistencyDigest = "ff195d1100443f11a709852aa4aa034dcaeb29f9fa042ccd1a70fbbe903b1a78"
	o := goldenOptions()
	mechs := []manet.Mechanisms{
		{Buffer: 10},
		{Buffer: 10, ViewSync: true},
		{Buffer: 10, WeakK: 3},
		{Buffer: 10, Proactive: true},
		{Buffer: 10, Reactive: true},
	}
	results, err := Execute(o, crossTasks([]string{"MST", "RNG", "SPT-2"}, []float64{40, 160}, mechs, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Floods == 0 {
			t.Fatalf("task %d scored no floods; the digest would pin nothing", i)
		}
	}
	if got := resultsDigest(results); got != goldenConsistencyDigest {
		t.Errorf("consistency-mechanism results drifted from the golden digest:\n got %s\nwant %s",
			got, goldenConsistencyDigest)
	}
}

// TestRoutingGoldenDigest pins the routing render for both protocols it
// plots (GG, RNG) plus the %#v form of every task's
// Result.Unicast. The unicast probe workload rides Network.Run like the
// flood and traffic workloads; moving it between entry points must move
// neither a probe draw nor a figure byte.
func TestRoutingGoldenDigest(t *testing.T) {
	const goldenRoutingDigest = "0e4542945d26bc322d87f0c6ab64a0c0b184e472eee09fe39deaa4b07f202986"
	o := goldenOptions()
	outs := render(t, "routing", o)
	results, err := Execute(o, routingTasks(o))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for k, p := range []string{"GG", "RNG"} {
		fmt.Fprintf(h, "%s\n%s\n", outs[k].Text, outs[k].Dat)
		n := len(results) / len(outs)
		for i, r := range results[k*n : (k+1)*n] {
			if r.Unicast.Probes == 0 {
				t.Fatalf("%s task %d scored no probes; the digest would pin nothing", p, i)
			}
			fmt.Fprintf(h, "%s|%d|%#v\n", p, i, r.Unicast)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRoutingDigest {
		t.Errorf("routing render or unicast results drifted from the golden digest:\n got %s\nwant %s",
			got, goldenRoutingDigest)
	}
}
