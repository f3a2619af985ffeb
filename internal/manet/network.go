package manet

import (
	"fmt"
	"math"
	"slices"

	"mstc/internal/channel"
	"mstc/internal/geom"
	"mstc/internal/graph"
	"mstc/internal/hello"
	"mstc/internal/mobility"
	"mstc/internal/radio"
	"mstc/internal/sim"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

// node is the per-node protocol state.
type node struct {
	id            int
	interval      float64 // fixed per-node Hello interval
	version       uint64  // next Hello version
	advertisedPos geom.Point
	advertisedAt  float64
	table         *hello.Table
	ownLen        int                         // live entries in ownHist
	ownHist       [ownHistDepth]hello.Message // own recent advertisements, newest first
	logical       []int                       // current logical neighbor ids (ascending)
	actualRange   float64
	txRange       float64 // actual + buffer, clamped
}

// hasLogical reports whether id is one of nd's logical neighbors: a binary
// search of the ascending logical set (2-8 entries for every protocol in
// the registry).
func (nd *node) hasLogical(id int) bool {
	_, ok := slices.BinarySearch(nd.logical, id)
	return ok
}

// ownHistDepth bounds the per-node history of own advertisements kept for
// pinned-version (proactive) selection.
const ownHistDepth = 4

func (nd *node) recordOwn(msg hello.Message) {
	copy(nd.ownHist[1:], nd.ownHist[:ownHistDepth-1])
	nd.ownHist[0] = msg
	if nd.ownLen < ownHistDepth {
		nd.ownLen++
	}
}

// ownAsOf returns the node's newest advertisement with version <= v, falling
// back to the oldest stored one.
func (nd *node) ownAsOf(v uint64) hello.Message {
	for _, m := range nd.ownHist[:nd.ownLen] {
		if m.Version <= v {
			return m
		}
	}
	if nd.ownLen > 0 {
		return nd.ownHist[nd.ownLen-1]
	}
	return hello.Message{From: nd.id, Pos: nd.advertisedPos}
}

// View queries: the hello-table query a selection reads its view from, one
// per distinct view-construction path.
const (
	selModeLatest    = uint8(iota + 1) // latest messages (Table.LatestInto)
	selModeVersioned                   // one exact version (Table.VersionedInto, reactive settle)
	selModeAsOf                        // newest version <= pin (Table.AsOfInto, proactive forward)
)

// positionSource resolves a node's exact position at a simulated instant.
// The serial engine's selection context reads positions through the radio
// medium (whose per-instant memo fronts the shared leg cursor); each
// parallel domain context reads through its own mobility.Cursor. Both
// resolve from the same immutable trajectory legs, so the answers are
// bit-identical — the interface only decouples who owns the mutable scan
// state.
type positionSource interface {
	PositionAt(id int, t float64) geom.Point
}

// selCtx is the logical-neighbor selection machinery plus the scratch it
// runs on. The serial engine embeds one in the Network (all events share
// it — the engine is single-goroutine); the region-parallel engine gives
// every domain its own, so concurrent domain workers never share scratch.
// Nothing built from these buffers outlives the call that filled it
// (selectors do not retain view slices, and anything stored — logical
// sets — is copied out into node-owned storage).
type selCtx struct {
	cfg *Config
	pos positionSource

	msgBuf     []hello.Message     // Table.*Into scratch
	nbrBuf     []topology.NodeInfo // View.Neighbors scratch
	multiBuf   []topology.MultiNodeInfo
	posBuf     []geom.Point // flat backing for MultiNodeInfo.Positions
	selfPosBuf []geom.Point
	selBuf     []int            // SelectInto output scratch
	scratch    topology.Scratch // protocol-kernel working storage
}

// Network is one simulation run. Build with NewNetwork, drive with Run.
type Network struct {
	cfg   Config
	model mobility.Model
	eng   *sim.Engine
	med   *radio.Medium
	rng   *xrand.Source
	ch    *channel.Model // non-ideal channel; nil = ideal
	nodes []*node

	floodSeq uint64 // origination counter; keys per-flood jitter/delay draws

	// accumulators
	floods        int
	deliverySum   float64
	rangeSum      float64
	rangeSamples  int
	logDegSum     float64
	phyDegSum     float64
	degSamples    int
	snapshotSum   float64
	snapshotCount int
	helloTx       int
	dataTx        int
	dataEnergy    float64
	helloEnergy   float64

	recvBuf []int

	// serial per-sample scratch: every node's range and physical degree
	sampleRanges []float64
	sampleDeg    []int

	// The serial selection context (promoted methods: nw.selectView and
	// friends). Parallel domain contexts live in parRun.
	selCtx

	dels   pool[delivery]      // pooled flood deliveries
	hellos pool[helloDelivery] // pooled delayed "Hello" deliveries

	traf *trafficState // traffic subsystem state; nil = disabled

	uni       UnicastResult // unicast probe counters (Config.Unicast)
	uniHopSum int           // hops of delivered unicast probes

	domGrid *radio.DomainGrid // region-parallel decomposition; nil = serial
	par     *parRun           // set while runParallel drives the run: floods route through the domain barriers
}

// NewNetwork builds a run over the given mobility model, which must hold
// at least 2 nodes.
func NewNetwork(model mobility.Model, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n := model.N(); n < 2 {
		// A flood's delivery is the share of the other n-1 nodes it reaches.
		return nil, fmt.Errorf("manet: need at least 2 nodes, got %d: connectivity is measured over the nodes other than a flood's source", n)
	}
	root := xrand.New(cfg.Seed)
	med, err := radio.NewMedium(model, cfg.Radio, nil)
	if err != nil {
		return nil, err
	}
	n := model.N()
	// The channel draws from its own substream root ('x'): the ideal
	// default builds no model and consumes nothing, and a non-ideal one
	// never perturbs the radio/network/hello streams.
	ch, err := channel.NewModel(cfg.Channel, n, root.Sub('x'))
	if err != nil {
		return nil, err
	}
	med.SetChannel(ch)
	nw := &Network{
		cfg:   cfg,
		model: model,
		eng:   sim.NewEngine(),
		med:   med,
		rng:   root.Sub('n'),
		ch:    ch,
		nodes: make([]*node, n),

		sampleRanges: make([]float64, n),
		sampleDeg:    make([]int, 0, n),
	}
	nw.selCtx.cfg = &nw.cfg
	nw.selCtx.pos = med
	if cfg.Domains >= 1 {
		nw.domGrid, err = radio.NewDomainGrid(model.Arena(), cfg.Domains)
		if err != nil {
			return nil, err
		}
	}
	k := 1
	if cfg.Mech.WeakK > 0 {
		k = cfg.Mech.WeakK
	}
	expiry := cfg.HelloExpiry
	if cfg.Mech.WeakK > 0 {
		// Weak consistency needs the k recent messages to stay usable for
		// the whole window they may be consulted in (Theorem 3).
		expiry = math.Max(expiry, float64(k+1)*cfg.HelloMax)
	}
	if cfg.Mech.Proactive {
		// Pinned-epoch lookups need a couple of versions of history and a
		// lifetime covering the pinned epoch plus the current one.
		k = 3
		expiry = math.Max(expiry, 3*cfg.HelloMax)
	}
	// Bulk-allocate the per-node state: one node array and one shared
	// hello-table backing — O(1) allocations where the per-node
	// constructors cost O(n). Tables are sized to the neighborhood, so
	// the whole set is O(n).
	backing := make([]node, n)
	tables := hello.NewTablesN(k, expiry, n, n)
	// Logical neighbor sets are small (2-8 for every protocol in the
	// registry), so every node's live set comes from one shared backing
	// array, each node holding a fixed-capacity window. A node outgrowing
	// its window falls back to a plain append reallocation, so the
	// capacity is a fast path, not a limit.
	const selCap = 8
	logBack := make([]int, n*selCap)
	for i := 0; i < n; i++ {
		sub := root.Sub('h', uint64(i))
		nd := &backing[i]
		nd.id = i
		nd.interval = sub.Uniform(cfg.HelloMin, cfg.HelloMax)
		nd.table = tables[i]
		nd.logical = logBack[i*selCap : i*selCap : (i+1)*selCap]
		nw.nodes[i] = nd
	}
	return nw, nil
}

// Engine exposes the event engine (for tests and custom instrumentation).
func (nw *Network) Engine() *sim.Engine { return nw.eng }

// Run executes the simulation for the given duration (seconds) and returns
// the aggregated result. It is the one driver of a run: it schedules the
// beacons (or reactive rounds), sampling, snapshots, and exactly one
// probe workload — floods (FloodRate), routed traffic (Traffic), or greedy
// unicast probes (Unicast).
//
// With Config.Domains >= 1 (and a configuration the region-parallel engine
// supports — see parallelEligible) the "Hello" traffic runs through the
// domain-decomposed engine of parallel.go; everything else (floods,
// sampling, snapshots) stays on the serial event engine as synchronization
// fences. Results are bit-identical either way.
func (nw *Network) Run(duration float64) Result {
	par := nw.parallelEligible()
	if !par {
		nw.scheduleBeacons()
	}
	if nw.cfg.FloodRate > 0 {
		// Warm-up: let every node beacon at least twice before probing.
		start := 2 * nw.cfg.HelloMax
		nw.eng.Every(start, 1/nw.cfg.FloodRate, func(now sim.Time) {
			if now+nw.cfg.FloodSettle <= duration {
				nw.originateFlood(now)
			}
		})
	}
	if nw.cfg.Traffic.Enabled() {
		nw.startTraffic(duration)
	}
	if nw.cfg.Unicast.Enabled() {
		nw.startUnicast()
	}
	sampleStart := 2 * nw.cfg.HelloMax
	nw.eng.Every(sampleStart, 1/nw.cfg.SampleRate, func(now sim.Time) {
		nw.sampleMetrics(now)
	})
	if nw.cfg.SnapshotEvery > 0 {
		nw.eng.Every(sampleStart, nw.cfg.SnapshotEvery, func(now sim.Time) {
			nw.snapshotSum += nw.EffectiveDigraphAt(now).AvgReachability()
			nw.snapshotCount++
		})
	}
	if par {
		return nw.runParallel(duration)
	}
	nw.eng.Run(duration)
	return nw.result()
}

// scheduleBeacons puts the serial engine's beacon schedule on the event
// queue: synchronized rounds under the reactive scheme, otherwise one
// periodic "Hello" per node from its firstBeacon offset. The parallel
// engine replays the same schedule (newParRun).
func (nw *Network) scheduleBeacons() {
	if nw.cfg.Mech.Reactive {
		nw.scheduleReactiveRounds()
		return
	}
	for _, nd := range nw.nodes {
		nd := nd
		nw.eng.Every(nw.firstBeacon(nd), nd.interval, func(now sim.Time) {
			nw.sendHello(nd, now)
		})
	}
}

// firstBeacon is the instant of node nd's first asynchronous "Hello": a
// uniform offset within its interval, which keeps beacons asynchronous
// (§5.1). Both engines schedule from it.
func (nw *Network) firstBeacon(nd *node) float64 {
	return nw.rng.Sub('f', uint64(nd.id)).Uniform(0, nd.interval)
}

// parallelEligible reports whether the configuration can run on the
// region-parallel engine. Channel loss and delay, reactive
// rounds, and flood forwarding are all covered: their random components
// are pure functions of each event's identity (or per-receiver chains
// replayed in chronological order), so domain barriers resolve them
// bit-identically to the serial engine. Two workloads remain ineligible,
// both because their packet processing consumes shared, globally ordered
// state that cannot be partitioned by receiver domain: the traffic
// subsystem (route tables and link-state views mutate at arbitrary nodes
// on every reception, so packet order across domains is semantic), and
// unicast probes (each walks every node on its path at one instant). Such
// configurations silently use the serial engine (results are identical by
// construction, so the fallback is a performance property, not a semantic
// one).
func (nw *Network) parallelEligible() bool {
	return nw.cfg.Domains >= 1 && !nw.cfg.Traffic.Enabled() && !nw.cfg.Unicast.Enabled()
}

// reactiveSettle is the reactive scheme's fixed settle offset after each
// round: the bounded flooding/broadcast delay of §4.1. Shared by the
// serial round scheduler and the parallel engine's settle passes.
const reactiveSettle = 0.05

// epoch returns the proactive scheme's global epoch index at time t:
// version numbers are derived from synchronized coarse timestamps, standing
// in for the paper's loosely synchronized clocks (§4.1).
func (nw *Network) epoch(t sim.Time) uint64 {
	return uint64(t/nw.cfg.HelloMax) + 1
}

// advertise is the sender side of one asynchronous "Hello" from node nd at
// instant now, whose true position pos the caller resolved: the position
// noise draw, the version (the epoch under the proactive scheme, otherwise
// the next one), the own-advertisement history, and advertiseAs's
// bookkeeping. It returns the message as advertised. Both engines run it
// per beacon, in beacon order.
func (nw *Network) advertise(nd *node, now float64, pos geom.Point) hello.Message {
	if nw.cfg.PosNoise > 0 {
		// Imprecise positioning: the node advertises (and reasons from) a
		// noisy estimate; the radio still transmits from the true spot.
		noise := nw.rng.Sub('p', uint64(nd.id), uint64(now*1e6))
		pos = geom.Pt(pos.X+nw.cfg.PosNoise*noise.NormFloat64(),
			pos.Y+nw.cfg.PosNoise*noise.NormFloat64())
	}
	ver := nd.version + 1
	if nw.cfg.Mech.Proactive {
		ver = nw.epoch(now)
	}
	msg := nw.advertiseAs(nd, now, pos, ver)
	nd.recordOwn(msg)
	return msg
}

// advertiseAs is the bookkeeping every "Hello" sender does, reactive round
// or asynchronous beacon: nd advertises pos at instant now under version
// ver, and the hello counters grow by one full-power transmission.
func (nw *Network) advertiseAs(nd *node, now float64, pos geom.Point, ver uint64) hello.Message {
	nd.version = ver
	nd.advertisedPos = pos
	nd.advertisedAt = now
	nw.helloTx++
	nw.helloEnergy++ // hellos always use the normal (full) power
	return hello.Message{From: nd.id, Pos: pos, SentAt: now, Version: ver}
}

// sendHello advertises node nd's current position to everyone within the
// normal range and refreshes nd's logical neighbor selection.
func (nw *Network) sendHello(nd *node, now sim.Time) {
	msg := nw.advertise(nd, now, nw.med.PositionAt(nd.id, now))
	if nw.traf != nil {
		// Outside OLSR mode the payload is nil.
		msg.Payload = nw.traf.helloPayload(nd, now)
	}
	nw.recvBuf = nw.med.Transmit(now, nd.id, nw.cfg.NormalRange, nw.recvBuf[:0])
	nw.receive(msg, nw.recvBuf)
	nw.selectView(nd, now, selModeLatest, 0, msg.Pos)
}

// scheduleReactiveRounds implements the reactive strong-consistency scheme:
// every node beacons at the start of each common interval with a shared
// version; selection happens a fixed settle time later using only
// same-version messages.
func (nw *Network) scheduleReactiveRounds() {
	interval := (nw.cfg.HelloMin + nw.cfg.HelloMax) / 2
	round := uint64(0)
	nw.eng.Every(0, interval, func(now sim.Time) {
		round++
		ver := round
		for _, nd := range nw.nodes {
			msg := nw.advertiseAs(nd, now, nw.med.PositionAt(nd.id, now), ver)
			nw.recvBuf = nw.med.Transmit(now, nd.id, nw.cfg.NormalRange, nw.recvBuf[:0])
			nw.receive(msg, nw.recvBuf)
		}
		nw.eng.ScheduleIn(reactiveSettle, func(sel sim.Time) {
			for _, nd := range nw.nodes {
				nw.selectView(nd, sel, selModeVersioned, ver, nd.advertisedPos)
			}
		})
	})
}

// selectView recomputes nd's logical neighbors and transmission range from
// the view its hello table answers to query (selModeLatest, or
// selModeVersioned / selModeAsOf at version pin), with selfPos as nd's own
// position in the view. Callers pass the position nd's neighbors see: the
// beacon's advertised position, nd.advertisedPos for a reactive settle or
// view-synchronized forward (§5.1, "View synchronization"), and nd's own
// advertisement as of the pin for a proactive one (§4.1). The transmission
// range is always computed from nd's current physical position — the radio
// transmits from wherever the node actually is. Weak consistency, which
// excludes the reactive and proactive schemes, selects from the latest
// messages' k-deep history instead (selectWeak).
func (sc *selCtx) selectView(nd *node, now sim.Time, query uint8, pin uint64, selfPos geom.Point) {
	if sc.cfg.Mech.WeakK > 0 {
		sc.selectWeak(nd, now, selfPos)
		return
	}
	switch query {
	case selModeVersioned:
		sc.msgBuf = nd.table.VersionedInto(sc.msgBuf[:0], pin, now)
	case selModeAsOf:
		sc.msgBuf = nd.table.AsOfInto(sc.msgBuf[:0], pin, now)
	default:
		sc.msgBuf = nd.table.LatestInto(sc.msgBuf[:0], now)
	}
	sc.nbrBuf = sc.nbrBuf[:0]
	for _, m := range sc.msgBuf {
		sc.nbrBuf = append(sc.nbrBuf, topology.NodeInfo{ID: m.From, Pos: m.Pos})
	}
	v := topology.View{Self: topology.NodeInfo{ID: nd.id, Pos: selfPos}, Neighbors: sc.nbrBuf}
	v = v.EnsureCanon()
	sc.selBuf = sc.cfg.Protocol.SelectInto(v, sc.selBuf[:0], &sc.scratch)
	v.Self.Pos = sc.pos.PositionAt(nd.id, now)
	sc.setSelection(nd, sc.selBuf, topology.ActualRange(v, sc.selBuf))
}

// selectWeak recomputes nd's selection under weak consistency: the view
// carries up to WeakK recent positions per neighbor and nd's own recent
// advertised positions (approximated by selfPos, the advertisement the
// caller is selecting against — nodes do not retain their own history
// beyond it — plus the current position, which is what the next Hello will
// advertise). selfPos arrives as a parameter rather than being read from
// nd.advertisedPos: the region-parallel barrier replays beacons after
// dispatch has already overwritten advertisedPos with a later beacon of the
// same window, and it must select against what THIS beacon advertised.
func (sc *selCtx) selectWeak(nd *node, now sim.Time, selfPos geom.Point) {
	sc.selfPosBuf = append(sc.selfPosBuf[:0], selfPos, sc.pos.PositionAt(nd.id, now))
	self := topology.MultiNodeInfo{ID: nd.id, Positions: sc.selfPosBuf}
	// One pass over the table lists every live neighbor's history; the
	// positions are copied out whole before any neighbor's subslice is
	// taken, so a growing posBuf cannot leave one behind.
	sc.msgBuf = nd.table.HistoriesInto(sc.msgBuf[:0], now)
	sc.posBuf = sc.posBuf[:0]
	for _, m := range sc.msgBuf {
		sc.posBuf = append(sc.posBuf, m.Pos)
	}
	sc.multiBuf = sc.multiBuf[:0]
	for i := 0; i < len(sc.msgBuf); {
		j := i + 1
		for j < len(sc.msgBuf) && sc.msgBuf[j].From == sc.msgBuf[i].From {
			j++
		}
		sc.multiBuf = append(sc.multiBuf, topology.MultiNodeInfo{ID: sc.msgBuf[i].From, Positions: sc.posBuf[i:j:j]})
		i = j
	}
	mv := topology.MultiView{Self: self, Neighbors: sc.multiBuf}
	sc.selBuf = sc.cfg.Weak.SelectWeakInto(mv, sc.selBuf[:0], &sc.scratch)
	sel := sc.selBuf
	// Range must cover the farthest stored position of every selected
	// neighbor (conservative). sel and mv.Neighbors both ascend by id, so
	// a single merge scan finds each selected neighbor — O(sel + nbrs)
	// instead of the quadratic per-selection rescan.
	r := 0.0
	j := 0
	for _, id := range sel {
		for j < len(mv.Neighbors) && mv.Neighbors[j].ID < id {
			j++
		}
		if j < len(mv.Neighbors) && mv.Neighbors[j].ID == id {
			if dMax := topology.MaxDist(self.Positions[1:2], mv.Neighbors[j].Positions); dMax > r {
				r = dMax
			}
		}
	}
	sc.setSelection(nd, sel, r)
}

func (sc *selCtx) setSelection(nd *node, sel []int, actual float64) {
	nd.logical = append(nd.logical[:0], sel...)
	nd.actualRange = actual
	nd.txRange = topology.ExtendedRange(actual, sc.cfg.Mech.Buffer, sc.cfg.NormalRange)
}

// sampleMetrics records the per-node transmission range and degrees. The
// physical degrees are radio.Medium.Degree counts: one medium pass on the
// serial engine, one barrier over the snapshot index on the parallel one.
// Their sum is an integer below 2⁵³ however it is grouped, so adding it to
// phyDegSum at once rounds exactly as adding node by node would.
func (nw *Network) sampleMetrics(now sim.Time) {
	phy := 0
	if nw.par != nil {
		phy = nw.par.sampleDegrees(now)
	} else {
		for i, nd := range nw.nodes {
			nw.sampleRanges[i] = nd.txRange
		}
		nw.sampleDeg = nw.med.DegreesAt(now, nw.sampleRanges, nw.sampleDeg[:0])
		for _, k := range nw.sampleDeg {
			phy += k
		}
	}
	for _, nd := range nw.nodes {
		nw.rangeSum += nd.txRange
		nw.logDegSum += float64(len(nd.logical))
	}
	nw.rangeSamples += len(nw.nodes)
	nw.degSamples += len(nw.nodes)
	nw.phyDegSum += float64(phy)
}

// EffectiveDigraphAt builds the directed effective topology at time t:
// arc u->v iff v is within u's current transmission range and v would
// accept u's packet (logical membership or the physical-neighbor
// mechanism).
func (nw *Network) EffectiveDigraphAt(t float64) *graph.Directed {
	d := graph.NewDirected(len(nw.nodes))
	buf := make([]int, 0, 64)
	for _, nd := range nw.nodes {
		buf = nw.med.ReceiversAt(t, nd.id, nd.txRange, buf[:0])
		for _, v := range buf {
			if nw.carries(nd, v) {
				d.AddArc(nd.id, v)
			}
		}
	}
	return d
}

// LogicalNeighbors returns node id's current logical neighbor ids.
func (nw *Network) LogicalNeighbors(id int) []int {
	out := make([]int, len(nw.nodes[id].logical))
	copy(out, nw.nodes[id].logical)
	return out
}

// TxRange returns node id's current transmission range (with buffer).
func (nw *Network) TxRange(id int) float64 { return nw.nodes[id].txRange }

// ActualRange returns node id's current pre-buffer transmission range.
func (nw *Network) ActualRange(id int) float64 { return nw.nodes[id].actualRange }

// result assembles the Run output.
func (nw *Network) result() Result {
	res := Result{
		Protocol: nw.cfg.ProtocolName(),
		Floods:   nw.floods,
	}
	if nw.floods > 0 {
		res.Connectivity = nw.deliverySum / float64(nw.floods)
	}
	if nw.rangeSamples > 0 {
		res.AvgTxRange = nw.rangeSum / float64(nw.rangeSamples)
	}
	if nw.degSamples > 0 {
		res.AvgLogicalDegree = nw.logDegSum / float64(nw.degSamples)
		res.AvgPhysicalDegree = nw.phyDegSum / float64(nw.degSamples)
	}
	if nw.snapshotCount > 0 {
		res.SnapshotConnectivity = nw.snapshotSum / float64(nw.snapshotCount)
		res.Snapshots = nw.snapshotCount
	}
	res.HelloTx = nw.helloTx
	res.DataTx = nw.dataTx
	res.DataEnergy = nw.dataEnergy
	res.HelloEnergy = nw.helloEnergy
	if nw.traf != nil {
		res.Traffic = nw.traf.result()
	}
	res.Unicast = nw.unicastResult()
	return res
}

// Result aggregates one run.
type Result struct {
	// Protocol is the display name of the protocol under test.
	Protocol string
	// Connectivity is the mean flood delivery ratio (weak connectivity).
	Connectivity float64
	// Floods is the number of scored floods.
	Floods int
	// AvgTxRange is the time- and node-averaged transmission range (m),
	// including the buffer zone.
	AvgTxRange float64
	// AvgLogicalDegree is the mean logical neighbor count.
	AvgLogicalDegree float64
	// AvgPhysicalDegree is the mean count of nodes inside the
	// transmission range.
	AvgPhysicalDegree float64
	// SnapshotConnectivity is the mean strict (snapshot) directed
	// reachability, if sampled.
	SnapshotConnectivity float64
	// Snapshots is the number of strict-connectivity samples.
	Snapshots int
	// HelloTx counts "Hello" transmissions (control overhead).
	HelloTx int
	// DataTx counts flood-packet transmissions (data overhead: one per
	// node that originated or forwarded a probe).
	DataTx int
	// DataEnergy is the normalized transmission energy spent on data
	// packets: each transmission with range r costs
	// (r/NormalRange)^EnergyAlpha, so an uncontrolled network spends
	// exactly 1.0 per transmission.
	DataEnergy float64
	// HelloEnergy is the energy spent on beaconing (always full power:
	// one unit per "Hello").
	HelloEnergy float64
	// Traffic aggregates the traffic subsystem, when Config.Traffic
	// enables it (Mode is "" otherwise).
	Traffic TrafficResult
	// Unicast aggregates the greedy-geographic probe workload, when
	// Config.Unicast enables it (zero otherwise).
	Unicast UnicastResult
}
