package main

import (
	"fmt"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/geom"
	"mstc/internal/hello"
	"mstc/internal/mobility"
	"mstc/internal/radio"
	"mstc/internal/xrand"
)

// Probes time single layer operations on the workload's own inputs. Each
// probe repeats its sweep until it has run at least probeMin (and at least
// probeReps times) and reports the median per-operation time, so a probe
// over a small trace is as steady as one over a large trace. Smoke runs
// skip the time minimum.
const (
	probeMin   = 100 * time.Millisecond
	probeReps  = 3
	probeRange = 250 // the paper's normal transmission range, m
)

// buildModel is the mobility model experiment.ComputeRun builds for a task:
// the paired (seed, speed, rep) random-waypoint trace.
func buildModel(o experiment.Options, r experiment.Run) (mobility.Model, error) {
	lo, hi := mobility.SpeedSetdest(r.Speed)
	seed := xrand.New(o.Seed).Sub('m', uint64(r.Speed*1000), uint64(r.Rep)).Uint64()
	return mobility.NewRandomWaypoint(geom.Square(o.ArenaSide), mobility.WaypointConfig{
		N: o.N, SpeedMin: lo, SpeedMax: hi, Horizon: o.Duration,
	}, xrand.New(seed))
}

// repeatProbe runs sweep at least probeReps times and for at least minTime
// and returns the median of its per-operation times.
func repeatProbe(minTime time.Duration, sweep func() (busy time.Duration, ops int)) float64 {
	var perOp []float64
	var total time.Duration
	for len(perOp) < probeReps || total < minTime {
		busy, ops := sweep()
		total += busy
		perOp = append(perOp, ratio(float64(busy.Nanoseconds()), float64(ops)))
	}
	return median(perOp)
}

// radioHelloProbes times radio.Medium.ReceiversAt for every node at every
// whole second of the trace (range 250 m), then feeds the receiver sets
// into hello.NewTablesN(1, 2.5, n, n) tables: one Observe per reception,
// then one LatestInto per node, per instant.
func radioHelloProbes(model mobility.Model, minTime time.Duration, ms metricSet, notes map[string]string) error {
	n := model.N()
	instants := int(model.Horizon()) + 1
	// Untimed collection sweep: receiver sets and advertised messages.
	recv := make([][][]int, instants)
	msgs := make([][]hello.Message, instants)
	med, err := radio.NewMedium(model, radio.Config{}, xrand.New(0))
	if err != nil {
		return err
	}
	receptions := 0
	for ti := range recv {
		t := float64(ti)
		recv[ti] = make([][]int, n)
		msgs[ti] = make([]hello.Message, n)
		for id := 0; id < n; id++ {
			recv[ti][id] = med.ReceiversAt(t, id, probeRange, nil)
			msgs[ti][id] = hello.Message{From: id, Pos: med.PositionAt(id, t), SentAt: t, Version: uint64(ti + 1)}
			receptions += len(recv[ti][id])
		}
	}

	var probeErr error
	ms["radio.receivers_at_ns"] = repeatProbe(minTime, func() (time.Duration, int) {
		med, err := radio.NewMedium(model, radio.Config{}, xrand.New(0))
		if err != nil {
			probeErr = err
			return time.Second, 1
		}
		buf := make([]int, 0, 64)
		t0 := time.Now()
		for ti := 0; ti < instants; ti++ {
			for id := 0; id < n; id++ {
				buf = med.ReceiversAt(float64(ti), id, probeRange, buf[:0])
			}
		}
		return time.Since(t0), instants * n
	})
	if probeErr != nil {
		return probeErr
	}
	ms["radio.receivers_mean"] = ratio(float64(receptions), float64(instants*n))
	notes["radio.receivers_at_ns"] = fmt.Sprintf("%d nodes x %d instants of the first trace", n, instants)

	const expiry = 2.5
	tables := hello.NewTablesN(1, expiry, n, n)
	var latestNs []float64
	ms["hello.observe_ns"] = repeatProbe(minTime, func() (time.Duration, int) {
		for _, t := range tables {
			t.Reset(expiry)
		}
		var obs, latest time.Duration
		buf := make([]hello.Message, 0, 64)
		for ti := 0; ti < instants; ti++ {
			t0 := time.Now()
			for s := 0; s < n; s++ {
				msg := msgs[ti][s]
				for _, rid := range recv[ti][s] {
					tables[rid].Observe(msg)
				}
			}
			t1 := time.Now()
			for id := 0; id < n; id++ {
				buf = tables[id].LatestInto(buf[:0], float64(ti))
			}
			latest += time.Since(t1)
			obs += t1.Sub(t0)
		}
		latestNs = append(latestNs, ratio(float64(latest.Nanoseconds()), float64(instants*n)))
		return obs, receptions
	})
	ms["hello.latest_into_ns"] = median(latestNs)
	return nil
}
