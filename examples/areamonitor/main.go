// Area monitoring: the motivating workload of the paper's introduction.
// A fleet of mobile sensors covers an area; each second a random sensor
// floods an observation to the whole network. Topology control keeps
// transmission power low, but naive (mobility-insensitive) control loses
// reports as soon as nodes move. The run compares three configurations
// under increasing mobility:
//
//  1. RNG baseline (mobility-insensitive),
//  2. RNG + 10 m buffer zone + view synchronization,
//  3. RNG + 100 m buffer + physical neighbors (maximum robustness).
package main

import (
	"fmt"

	"mstc/internal/geom"
	"mstc/internal/manet"
	"mstc/internal/mobility"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

func main() {
	const (
		sensors  = 100
		side     = 900.0
		duration = 40.0
	)
	configs := []struct {
		name string
		mech manet.Mechanisms
	}{
		{"baseline", manet.Mechanisms{}},
		{"buffer10+viewsync", manet.Mechanisms{Buffer: 10, ViewSync: true}},
		{"buffer100+physical", manet.Mechanisms{Buffer: 100, PhysicalNeighbors: true}},
	}

	fmt.Println("area monitoring: fraction of sensor reports reaching the fleet")
	fmt.Printf("%-10s", "speed m/s")
	for _, c := range configs {
		fmt.Printf("  %20s", c.name)
	}
	fmt.Println()

	for _, speed := range []float64{1, 10, 20, 40, 80} {
		fmt.Printf("%-10.0f", speed)
		for ci, c := range configs {
			lo, hi := mobility.SpeedSetdest(speed)
			model, err := mobility.NewRandomWaypoint(geom.Square(side), mobility.WaypointConfig{
				N: sensors, SpeedMin: lo, SpeedMax: hi, Horizon: duration,
			}, xrand.New(uint64(speed*10)+1))
			if err != nil {
				panic(err)
			}
			nw, err := manet.NewNetwork(model, manet.Config{
				Protocol:  topology.RNG{},
				FloodRate: 10,
				Seed:      uint64(ci) + 99,
				Mech:      c.mech,
			})
			if err != nil {
				panic(err)
			}
			res := nw.Run(duration)
			fmt.Printf("  %20s", fmt.Sprintf("%.3f (range %.0fm)", res.Connectivity, res.AvgTxRange))
		}
		fmt.Println()
	}
	fmt.Println("\nthe buffer zone + view synchronization recover report delivery at a")
	fmt.Println("fraction of the power a 250 m fixed-range deployment would spend.")
}
