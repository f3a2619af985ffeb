package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"mstc/internal/topology"
)

// TestParseCPUProfile captures a CPU profile of a topology-selection loop
// and checks that the decoder attributes most of it to the topology layer.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	views := randomViews(64, 30, 1)
	p := topology.SPT{Alpha: 4, Range: 250}
	var s topology.Scratch
	var dst []int
	for deadline := time.Now().Add(400 * time.Millisecond); time.Now().Before(deadline); {
		for _, v := range views {
			dst = topology.SelectInto(p, v, dst[:0], &s)
		}
	}
	pprof.StopCPUProfile()

	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) < 10 {
		t.Fatalf("decoded %d samples from 400 ms of busy CPU", len(prof.samples))
	}
	// Under -race, samples inside the race runtime often lose their Go
	// frames and read as "other"; topology must still lead the layers.
	shares := prof.layerShares()
	for layer, s := range shares {
		if layer != "topology" && layer != "other" && s >= shares["topology"] {
			t.Errorf("%s share %.3f >= topology's %.3f in a selection loop (all shares %v)", layer, s, shares["topology"], shares)
		}
	}
	if shares["topology"] < 0.2 {
		t.Errorf("topology share %.3f of a selection loop, want > 0.2 (all shares %v)", shares["topology"], shares)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if !near(total, 1) {
		t.Errorf("shares sum to %v, want 1", total)
	}

	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage input decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for pkg, want := range map[string]string{
		"spatial": "radio", "radio": "radio", "sim": "manet", "channel": "manet",
		"manet": "manet", "hello": "hello", "topology": "topology",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}
