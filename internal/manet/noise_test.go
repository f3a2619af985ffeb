package manet

import (
	"testing"

	"mstc/internal/channel"
	"mstc/internal/topology"
)

// TestPosNoiseBufferCompensates exercises the paper's §1 claim about
// imprecise location information: noisy advertised positions break
// effective links, and the buffer zone absorbs the error (a position error
// of std-dev sigma displaces links by at most a few sigma, so a buffer of
// ~4 sigma restores connectivity).
func TestPosNoiseBufferCompensates(t *testing.T) {
	model := connectedStatic(t, 71, 100, 15)
	run := func(noise, buffer float64) Result {
		nw, err := NewNetwork(model, Config{
			Protocol: topology.RNG{}, FloodRate: 10, Seed: 27,
			PosNoise: noise,
			Mech:     Mechanisms{Buffer: buffer},
		})
		if err != nil {
			t.Fatal(err)
		}
		return nw.Run(15)
	}
	clean := run(0, 0)
	noisy := run(10, 0)
	fixed := run(10, 40)
	if clean.Connectivity < 0.999 {
		t.Fatalf("clean static run delivered %.3f", clean.Connectivity)
	}
	if noisy.Connectivity >= clean.Connectivity-0.01 {
		t.Errorf("10 m position noise did not hurt: %.3f", noisy.Connectivity)
	}
	// Two noisy endpoints give a combined error std-dev of ~14 m, so a
	// 40 m buffer is ~2.8 sigma: near-complete but not perfect recovery.
	if fixed.Connectivity < 0.95 {
		t.Errorf("40 m buffer did not absorb 10 m noise: %.3f", fixed.Connectivity)
	}
	if fixed.Connectivity <= noisy.Connectivity {
		t.Errorf("buffer did not improve noisy run: %.3f vs %.3f",
			noisy.Connectivity, fixed.Connectivity)
	}
}

func TestPosNoiseValidation(t *testing.T) {
	model := connectedStatic(t, 1, 10, 5)
	if _, err := NewNetwork(model, Config{Protocol: topology.RNG{}, PosNoise: -1}); err == nil {
		t.Error("negative PosNoise accepted")
	}
}

// TestWeakKHelpsUnderHelloLoss verifies the paper's §4.2 remark: "storing
// more Hello messages from each sender can enhance the probability of
// building weakly consistent local views" when messages are lost.
func TestWeakKHelpsUnderHelloLoss(t *testing.T) {
	sum1, sum3 := 0.0, 0.0
	const reps = 3
	for rep := uint64(0); rep < reps; rep++ {
		model := waypointModel(t, 10, 501+rep)
		run := func(k int) float64 {
			nw, err := NewNetwork(model, Config{
				Weak: topology.WeakRNG{}, FloodRate: 10, Seed: 28 + rep,
				Mech:    Mechanisms{WeakK: k},
				Channel: channel.Config{Loss: channel.LossConfig{Rate: 0.3}},
			})
			if err != nil {
				t.Fatal(err)
			}
			return nw.Run(20).Connectivity
		}
		sum1 += run(1)
		sum3 += run(3)
	}
	if sum3 <= sum1 {
		t.Errorf("k=3 (%.3f) should beat k=1 (%.3f) under 30%% hello loss",
			sum3/reps, sum1/reps)
	}
}
