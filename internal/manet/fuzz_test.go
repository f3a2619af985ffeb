package manet

import (
	"math"
	"testing"

	"mstc/internal/channel"
	"mstc/internal/topology"
	"mstc/internal/traffic"
)

// FuzzParallelMatchesSerial is the fuzzed form of
// TestParallelMatchesSerialMatrix: a small random-waypoint network under a
// fuzzer-drawn configuration — mechanism, channel loss and delay,
// position noise, the reactive, proactive and weak
// schemes — runs once on the serial engine and once on a 1×1 to 3×3 domain
// grid with 1 to 4 workers. Either NewNetwork rejects the configuration, or
// both runs hash to the same digest. Mechanism bits 0x004 and 0x100 are
// unused.
func FuzzParallelMatchesSerial(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(4), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(28), uint8(9), uint16(0x0003), uint8(130), uint8(90), uint8(200), uint8(60))
	f.Add(uint64(3), uint8(16), uint8(7), uint16(0x0008), uint8(70), uint8(120), uint8(150), uint8(0))
	f.Add(uint64(4), uint8(24), uint8(2), uint16(0x0217), uint8(0), uint8(40), uint8(0), uint8(30))
	f.Add(uint64(5), uint8(12), uint8(11), uint16(0x00a0), uint8(200), uint8(0), uint8(90), uint8(120))
	f.Fuzz(func(t *testing.T, seed uint64, nSel, grid uint8, mech uint16, loss, delay, delayMin, noise uint8) {
		const dur = 4.0
		n := 2 + int(nSel)%29
		protocols := []topology.Protocol{topology.RNG{}, topology.MST{}, topology.SPT{Alpha: 2, Range: 250}, topology.Gabriel{}}
		weaks := []topology.WeakProtocol{topology.WeakRNG{}, topology.WeakMST{}, topology.WeakSPT{Alpha: 2, Range: 250}, topology.WeakRNG{}}
		pick := int(mech>>6) & 3
		cfg := Config{
			Protocol:  protocols[pick],
			Weak:      weaks[pick],
			FloodRate: 5,
			PosNoise:  float64(noise%64) / 4,
			Seed:      seed,
			Mech: Mechanisms{
				ViewSync:          mech&0x001 != 0,
				PhysicalNeighbors: mech&0x002 != 0,
				Reactive:          mech&0x008 != 0,
				Proactive:         mech&0x010 != 0,
			},
		}
		if mech&0x020 != 0 {
			cfg.Mech.WeakK = 2 + int(mech>>10)%2
		}
		if mech&0x200 != 0 {
			cfg.Mech.Buffer = 10
		}
		if loss%3 != 0 {
			cfg.Channel.Loss = channel.LossConfig{Rate: float64(loss%40) / 100}
		}
		if delay%2 == 1 {
			dMax := 0.01 + float64(delay%50)/200
			cfg.Channel.Delay = channel.DelayConfig{Min: dMax * float64(delayMin%4) / 4, Max: dMax}
		}
		par := cfg
		par.Domains = 1 + int(grid)%3
		par.ParallelWorkers = 1 + int(grid/3)%4

		model := parWaypoint(t, n, 5+float64(seed%30), dur, seed)
		if _, err := NewNetwork(model, cfg); err != nil {
			return // rejected configuration
		}
		if _, err := NewNetwork(model, par); err != nil {
			t.Fatalf("the serial configuration is valid but %dx%d domains, %d workers is rejected: %v",
				par.Domains, par.Domains, par.ParallelWorkers, err)
		}
		want := runDigest(t, model, cfg, dur)
		if got := runDigest(t, model, par, dur); got != want {
			t.Errorf("%dx%d domains, %d workers: digest %s != serial %s (config %+v)",
				par.Domains, par.Domains, par.ParallelWorkers, got[:16], want[:16], cfg)
		}
	})
}

// FuzzConfigValidate fuzzes Config.validate against what a run does with
// the configuration: every scalar a run reads takes a fuzzer-drawn float64,
// NaN, ±Inf, huge, tiny, zero and negative values included, with the
// mechanisms, the traffic and unicast workloads, the channel and the domain
// grid switched by fuzzer bits. NewNetwork must fail exactly when validate
// (after defaults) rejects the configuration, and an accepted one must run
// a 3 s horizon on a small random-waypoint scene without panicking. The
// radio's staleness Slack is not fuzzed: no value of it changes a result.
func FuzzConfigValidate(f *testing.F) {
	// bits: 0-1 and 3-4 mechanisms (2 and 5 unused), 6-7 protocol, 8 WeakK
	// on, 9-11 channel impairment (0-2, 6 and 7: none), 12-13 weak selector, 14-15 WeakK, 16-17 probe
	// workload, 18-19 unicast hops or OLSR, 20-21 workers, 24-31 domains.
	f.Add(uint64(1), uint32(0x0000_0040), 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(2), uint32(0x0221_0640), 0.0, 0.0, 0.0, 10.0, 5.0, 0.0, 0.15, 0.0, 0.0, 0.5)
	f.Add(uint64(3), uint32(0x0310_d900), 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.002, 4.0, 0.05)
	f.Add(uint64(4), uint32(0x0003_0080), 200.0, 0.5, 1.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(5), uint32(0x0006_0040), 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(6), uint32(0x0220_0048), 0.0, 0.0, 0.0, 20.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(7), uint32(0x0000_0a92), 0.0, 0.0, 0.0, 30.0, 5.0, 0.0, 0.5, 0.0, 0.0, 3.0)
	f.Add(uint64(8), uint32(0x0000_0040), math.NaN(), 1e-300, 1e300, math.Inf(-1), 1e300, 1e300, -1.0, 5e-324, 1e300, -0.0)
	f.Add(uint64(9), uint32(0x4600_0040), 1e300, 0.0, 0.0, 0.0, 0.0, 1e300, 0.0, 0.0, 0.0, 1e-9)
	f.Fuzz(func(t *testing.T, seed uint64, bits uint32, normal, helloMin, helloMax, buffer, floodRate, sampleRate, loss, jitter, alpha, period float64) {
		const dur = 3.0
		cfg := Config{
			NormalRange:      normal,
			HelloMin:         helloMin,
			HelloMax:         helloMax,
			FloodRate:        floodRate,
			SampleRate:       sampleRate,
			ForwardJitterMax: jitter,
			EnergyAlpha:      alpha,
			Seed:             seed,
			Mech: Mechanisms{
				Buffer:            buffer,
				ViewSync:          bits&0x1 != 0,
				PhysicalNeighbors: bits&0x2 != 0,
				Reactive:          bits&0x8 != 0,
				Proactive:         bits&0x10 != 0,
			},
			Domains:         int(bits>>24) % 72, // past the 64 × 64 bound
			ParallelWorkers: int(bits >> 20 & 3),
		}
		protocols := []topology.Protocol{nil, topology.RNG{}, topology.MST{}, topology.SPT{Alpha: 2, Range: 250}}
		weaks := []topology.WeakProtocol{nil, topology.WeakRNG{}, topology.WeakMST{}, topology.WeakRNG{}}
		cfg.Protocol = protocols[bits>>6&3]
		cfg.Weak = weaks[bits>>12&3]
		if bits&0x100 != 0 {
			cfg.Mech.WeakK = int(bits>>14&3) - 1
		}
		// A float feeds one field of each family, so every field still
		// meets the whole float range across inputs.
		switch bits >> 9 & 7 {
		case 3:
			cfg.Channel.Loss = channel.LossConfig{Rate: loss}
		case 4:
			cfg.Channel.Delay = channel.DelayConfig{Max: period}
		case 5:
			cfg.Channel = channel.Config{
				Loss:  channel.LossConfig{Rate: loss},
				Delay: channel.DelayConfig{Min: loss, Max: period},
			}
		}
		switch bits >> 16 & 3 {
		case 1:
			cfg.SnapshotEvery = period
		case 2:
			cfg.Unicast = UnicastConfig{Rate: sampleRate, MaxHops: int(bits >> 18 & 3)}
		case 3:
			mode := traffic.AODV
			if bits&0x0008_0000 != 0 {
				mode = traffic.OLSR
			}
			cfg.Traffic = traffic.Config{Mode: mode, Flows: 2, Rate: sampleRate, TCInterval: period}
		}
		cfg.PosNoise = loss * 10
		cfg.HelloExpiry = period * 3
		cfg.FloodSettle = period

		model := parWaypoint(t, 2+int(seed%7), 5+float64(seed%20), dur, seed)
		verr := cfg.withDefaults().validate()
		nw, err := NewNetwork(model, cfg)
		if (verr == nil) != (err == nil) {
			t.Fatalf("validate says %v but NewNetwork says %v (config %+v)", verr, err, cfg)
		}
		if err != nil {
			return
		}
		nw.Run(dur)
	})
}
