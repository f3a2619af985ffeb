// Command topoviz renders a topology-control snapshot as SVG: the original
// unit-disk topology underneath the logical topology a protocol selects,
// with optional transmission-range disks.
//
// Examples:
//
//	topoviz -protocol RNG -o rng.svg
//	topoviz -protocol MST -buffer 30 -ranges -o mst.svg
//	topoviz -protocol GG -speed 20 -at 50 -o gg_t50.svg
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/snapshot"
	"mstc/internal/topology"
	"mstc/internal/viz"
	"mstc/internal/xrand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topoviz: ")

	var (
		protocolName = flag.String("protocol", "RNG", "protocol: "+strings.Join(topology.Names(), ", "))
		n            = flag.Int("n", 100, "number of nodes")
		side         = flag.Float64("arena", 900, "square arena side (m)")
		normalRange  = flag.Float64("range", 250, "normal transmission range (m)")
		speed        = flag.Float64("speed", 0, "average moving speed (m/s); 0 = static placement")
		at           = flag.Float64("at", 0, "snapshot instant (s) when -speed > 0")
		buffer       = flag.Float64("buffer", 0, "buffer-zone width (m)")
		showRanges   = flag.Bool("ranges", false, "draw transmission-range disks")
		showOriginal = flag.Bool("original", true, "draw the original (unit-disk) topology underneath")
		seed         = flag.Uint64("seed", 1, "random seed")
		out          = flag.String("o", "topology.svg", "output SVG path")
	)
	flag.Parse()
	if err := checkGeometry(*n, *side, *normalRange); err != nil {
		log.Print(err)
		os.Exit(2) // a usage error, like a flag that does not parse
	}

	p, err := topology.ByName(*protocolName, *normalRange)
	if err != nil {
		log.Fatal(err)
	}
	arena := geom.Square(*side)

	var pts []geom.Point
	if *speed > 0 {
		lo, hi := mobility.SpeedSetdest(*speed)
		horizon := *at + 1
		m, err := mobility.NewRandomWaypoint(arena, mobility.WaypointConfig{
			N: *n, SpeedMin: lo, SpeedMax: hi, Horizon: horizon,
		}, xrand.New(*seed))
		if err != nil {
			log.Fatal(err)
		}
		pts = make([]geom.Point, *n)
		for i := range pts {
			pts[i] = m.PositionAt(i, *at)
		}
	} else {
		pts = mobility.UniformPoints(arena, *n, xrand.New(*seed))
	}

	sel := snapshot.Selections(pts, p, *normalRange)
	logical := snapshot.Logical(pts, sel)
	scene := viz.Scene{
		Arena:  arena,
		Points: pts,
		Title:  fmt.Sprintf("%s logical topology (%d links)", p.Name(), logical.M()),
	}
	if *showOriginal {
		scene.Layers = append(scene.Layers, viz.Layer{
			Name:  "original (unit disk)",
			Edges: snapshot.Original(pts, *normalRange).Edges(),
			Color: "#dddddd",
		})
	}
	scene.Layers = append(scene.Layers, viz.Layer{
		Name:  p.Name(),
		Edges: logical.Edges(),
		Color: "#cc3344",
		Width: 3,
	})
	if *showRanges {
		scene.Ranges = snapshot.Ranges(pts, sel, *buffer, *normalRange)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := scene.Render(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d nodes, %d logical links)\n", *out, len(pts), logical.M())
}

// checkGeometry rejects a node count -n below 1, and an -arena side or a
// -range that is not a positive, finite length in meters. Left through, a
// negative -n panics while placing nodes, -n 0 renders an empty scene, and
// a NaN arena or range renders a degenerate scene with no links instead of
// failing.
func checkGeometry(n int, side, normalRange float64) error {
	if n < 1 {
		return fmt.Errorf("-n must be at least 1, got %d", n)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"-arena", side}, {"-range", normalRange}} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s must be positive and finite, got %g", f.name, f.v)
		}
	}
	return nil
}
