// Command manetsim runs a single mobility-sensitive topology-control
// simulation and prints its metrics.
//
// Examples:
//
//	manetsim -protocol RNG -speed 40 -duration 100
//	manetsim -protocol MST -speed 160 -buffer 100 -pn
//	manetsim -protocol RNG -speed 40 -buffer 10 -viewsync
//	manetsim -protocol RNG -speed 20 -weak 3
//	manetsim -protocol SPT-2 -speed 40 -reactive -buffer 10
//	manetsim -protocol MST -speed 20 -proactive -buffer 30
//	manetsim -protocol RNG -speed 0              # stationary nodes
//
// Routed CBR traffic (AODV on-demand / OLSR proactive, replaces flooding):
//
//	manetsim -protocol RNG -speed 20 -traffic aodv -buffer 10 -viewsync
//	manetsim -protocol none -traffic olsr -traffic-flows 16 -traffic-rate 4
//
// Non-ideal channel (loss and delay fault injection):
//
//	manetsim -protocol RNG -speed 40 -loss 0.2                     # i.i.d. loss
//	manetsim -protocol MST -delay-max 0.5 -buffer 40 -settle 2     # delayed Hellos
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"

	"mstc/internal/geom"
	"mstc/internal/manet"
	"mstc/internal/mobility"
	"mstc/internal/profiling"
	"mstc/internal/topology"
	"mstc/internal/traffic"
	"mstc/internal/xrand"
)

func main() { os.Exit(run()) }

// run is the whole command; it returns the process exit status instead of
// exiting, so that its deferred profile writes run on every path.
func run() (code int) {
	log.SetFlags(0)
	log.SetPrefix("manetsim: ")

	// Graceful interrupt: a single simulation run is the unit of work, so
	// the first SIGINT/SIGTERM lets the in-flight run finish and print its
	// metrics, then the process exits 130. A second signal aborts
	// immediately.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() { //lint:ignore no-naked-goroutine signal watcher: only sets an atomic flag checked after the run completes
		<-sigc
		interrupted.Store(true)
		log.Print("interrupt: finishing the in-flight run (^C again to abort)")
		<-sigc
		os.Exit(130)
	}()
	defer func() {
		if interrupted.Load() {
			code = 130
		}
	}()

	var (
		protocolName = flag.String("protocol", "RNG", "protocol: "+strings.Join(topology.Names(), ", "))
		n            = flag.Int("n", 100, "number of nodes")
		side         = flag.Float64("arena", 900, "square arena side (m)")
		normalRange  = flag.Float64("range", 250, "normal transmission range (m)")
		speed        = flag.Float64("speed", 20, "average moving speed (m/s); per-leg speeds are uniform in (0, 2*speed]; 0 = stationary nodes")
		pause        = flag.Float64("pause", 0, "waypoint pause time (s)")
		duration     = flag.Float64("duration", 100, "simulated seconds")
		buffer       = flag.Float64("buffer", 0, "buffer-zone width (m)")
		viewSync     = flag.Bool("viewsync", false, "enable view synchronization")
		pn           = flag.Bool("pn", false, "enable the physical-neighbor mechanism")
		weakK        = flag.Int("weak", 0, "weak-consistency selection over K recent Hello messages (0 = off)")
		reactive     = flag.Bool("reactive", false, "reactive strong consistency (synchronized Hello rounds)")
		proactive    = flag.Bool("proactive", false, "proactive strong consistency (version-pinned packet views)")
		floodRate    = flag.Float64("floods", 10, "connectivity probes per second")
		floodSettle  = flag.Float64("settle", 0, "flood scoring deadline (s); 0 = default 0.5; raise under -delay-max")
		unicastRate  = flag.Float64("unicast", 0, "greedy unicast probes per second (replaces flooding when > 0)")
		trafficMode  = flag.String("traffic", "", "routed CBR traffic: aodv or olsr (replaces flooding when set)")
		trafficFlows = flag.Int("traffic-flows", 0, "concurrent CBR flows (default 8)")
		trafficRate  = flag.Float64("traffic-rate", 0, "CBR packets per second per flow (default 2)")
		trafficPkts  = flag.Int("traffic-packets", 0, "per-flow packet budget (0 = unlimited)")
		lossRate     = flag.Float64("loss", 0, "channel per-packet loss probability")
		delayMin     = flag.Float64("delay-min", 0, "minimum per-delivery channel delay (s)")
		delayMax     = flag.Float64("delay-max", 0, "maximum per-delivery channel delay (s); > 0 enables delayed delivery")
		posNoise     = flag.Float64("noise", 0, "advertised-position noise std-dev (m)")
		seed         = flag.Uint64("seed", 1, "random seed")
		snapshotDt   = flag.Float64("snapshots", 0, "strict-connectivity snapshot period (s); 0 = off")
		domains      = flag.Int("domains", 0, "region-parallel engine: domains x domains spatial grid (0 = serial engine)")
		workers      = flag.Int("workers", 0, "region-parallel worker goroutines (requires -domains); results are bit-identical to serial")
		cpuProf      = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if err := checkScene(*n, *side, *normalRange, *duration); err != nil {
		log.Print(err)
		return 2 // a usage error, like a flag that does not parse
	}
	chCfg, err := channelFlags{Loss: *lossRate, DelayMin: *delayMin, DelayMax: *delayMax}.buildChannel()
	if err != nil {
		log.Print(err)
		return 2
	}

	// Profiles go to their own files; stdout stays byte-identical whether
	// or not profiling is enabled.
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			log.Print(err)
			code = 1
		}
	}()
	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer stopCPU()

	lo, hi := mobility.SpeedSetdest(*speed)
	model, err := mobility.NewRandomWaypoint(geom.Square(*side), mobility.WaypointConfig{
		N: *n, SpeedMin: lo, SpeedMax: hi, Pause: *pause, Horizon: *duration,
	}, xrand.New(*seed))
	if err != nil {
		log.Print(err)
		return 1
	}

	cfg := manet.Config{
		NormalRange: *normalRange,
		FloodRate:   *floodRate,
		FloodSettle: *floodSettle,
		Channel:     chCfg,
		Seed:        *seed,
		Mech: manet.Mechanisms{
			Buffer:            *buffer,
			ViewSync:          *viewSync,
			PhysicalNeighbors: *pn,
			WeakK:             *weakK,
			Reactive:          *reactive,
			Proactive:         *proactive,
		},
		SnapshotEvery:   *snapshotDt,
		PosNoise:        *posNoise,
		Domains:         *domains,
		ParallelWorkers: *workers,
	}
	if *weakK > 0 {
		w, err := topology.WeakByName(*protocolName, *normalRange)
		if err != nil {
			log.Print(err)
			return 1
		}
		cfg.Weak = w
	} else {
		p, err := topology.ByName(*protocolName, *normalRange)
		if err != nil {
			log.Print(err)
			return 1
		}
		cfg.Protocol = p
	}

	if *trafficMode != "" {
		mode, err := traffic.ModeByName(*trafficMode)
		if err != nil {
			log.Print(err)
			return 1
		}
		cfg.Traffic = traffic.Config{
			Mode:    mode,
			Flows:   *trafficFlows,
			Rate:    *trafficRate,
			Packets: *trafficPkts,
		}
		cfg.FloodRate = 0
	}
	if *unicastRate > 0 {
		cfg.Unicast = manet.UnicastConfig{Rate: *unicastRate}
		cfg.FloodRate = 0
	}
	nw, err := manet.NewNetwork(model, cfg)
	if err != nil {
		log.Print(err)
		return 1
	}
	res := nw.Run(*duration)

	if *unicastRate > 0 {
		ures := res.Unicast
		fmt.Printf("unicast delivered   %.4f  (%d probes, %.1f avg hops)\n", ures.Delivered, ures.Probes, ures.AvgHops)
		fmt.Printf("failures            %d local minima, %d range failures\n", ures.LocalMinima, ures.RangeFailures)
		return 0
	}
	if *trafficMode != "" {
		tr := res.Traffic
		fmt.Printf("protocol            %s\n", res.Protocol)
		fmt.Printf("traffic             %s  %.4f delivered (%d/%d packets)\n",
			tr.Mode, tr.DeliveryRatio, tr.Delivered, tr.Sent)
		fmt.Printf("latency             %.3f s avg, %.2f avg hops\n", tr.AvgDelay, tr.AvgHops)
		fmt.Printf("routing overhead    %.2f control tx per delivered (%d RREQ, %d RREP, %d RERR, %d TC)\n",
			tr.ControlPerData, tr.RREQTx, tr.RREPTx, tr.RERRTx, tr.TCTx)
		fmt.Printf("overhead            %d hello tx, %d data tx\n", res.HelloTx, tr.DataTx)
		return 0
	}

	fmt.Printf("protocol            %s\n", res.Protocol)
	fmt.Printf("mechanisms          buffer=%gm viewsync=%v pn=%v weakK=%d reactive=%v proactive=%v\n",
		*buffer, *viewSync, *pn, *weakK, *reactive, *proactive)
	fmt.Printf("connectivity ratio  %.4f  (%d floods)\n", res.Connectivity, res.Floods)
	fmt.Printf("avg tx range        %.1f m\n", res.AvgTxRange)
	fmt.Printf("avg logical degree  %.2f\n", res.AvgLogicalDegree)
	fmt.Printf("avg physical degree %.2f\n", res.AvgPhysicalDegree)
	fmt.Printf("overhead            %d hello tx, %d data tx\n", res.HelloTx, res.DataTx)
	if res.DataTx > 0 {
		fmt.Printf("energy              %.3f per data tx (1.0 = full power), %.0f hello units\n",
			res.DataEnergy/float64(res.DataTx), res.HelloEnergy)
	}
	if res.Snapshots > 0 {
		fmt.Printf("snapshot (strict)   %.4f  (%d snapshots)\n", res.SnapshotConnectivity, res.Snapshots)
	}
	return 0
}
