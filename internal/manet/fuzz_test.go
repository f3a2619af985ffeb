package manet

import (
	"testing"

	"mstc/internal/channel"
	"mstc/internal/topology"
)

// FuzzParallelMatchesSerial is the fuzzed form of
// TestParallelMatchesSerialMatrix: a small random-waypoint network under a
// fuzzer-drawn configuration — mechanism, channel loss, delay and churn,
// radio loss and delay, position noise, the reactive, proactive and weak
// schemes — runs once on the serial engine and once on a 1×1 to 3×3 domain
// grid with 1 to 4 workers. Either NewNetwork rejects the configuration, or
// both runs hash to the same digest. Configurations the region-parallel
// engine does not support (CDS forwarding) take the serial fallback, which
// must match too.
func FuzzParallelMatchesSerial(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(4), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(28), uint8(9), uint16(0x0003), uint8(130), uint8(90), uint8(200), uint8(40), uint8(60))
	f.Add(uint64(3), uint8(16), uint8(7), uint16(0x0008), uint8(70), uint8(120), uint8(150), uint8(0), uint8(0))
	f.Add(uint64(4), uint8(24), uint8(2), uint16(0x0217), uint8(0), uint8(40), uint8(0), uint8(25), uint8(30))
	f.Add(uint64(5), uint8(12), uint8(11), uint16(0x00a0), uint8(200), uint8(0), uint8(90), uint8(80), uint8(120))
	f.Fuzz(func(t *testing.T, seed uint64, nSel, grid uint8, mech uint16, loss, delay, churn, radioSel, noise uint8) {
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
				SelfPruning:       mech&0x004 != 0,
				Reactive:          mech&0x008 != 0,
				Proactive:         mech&0x010 != 0,
				CDSForward:        mech&0x100 != 0,
			},
		}
		if mech&0x020 != 0 {
			cfg.Mech.WeakK = 2 + int(mech>>10)%2
		}
		if mech&0x200 != 0 {
			cfg.Mech.Buffer = 10
		}
		switch loss % 3 {
		case 1:
			cfg.Channel.Loss = channel.LossConfig{Model: channel.Bernoulli, Rate: float64(loss%40) / 100}
		case 2:
			cfg.Channel.Loss = channel.LossConfig{Model: channel.GilbertElliott, Rate: float64(loss%40) / 100, MeanBurst: 2 + float64(loss%5)}
		}
		if delay%2 == 1 {
			cfg.Channel.Delay = channel.DelayConfig{Max: 0.01 + float64(delay%50)/200}
		}
		if churn%2 == 1 {
			cfg.Channel.Churn = channel.ChurnConfig{MeanUp: 3 + float64(churn%8), MeanDown: 0.2 + float64(churn%4)/3}
		}
		cfg.Radio.LossRate = float64(radioSel%4) / 10
		if radioSel&0x10 != 0 {
			cfg.Radio.Delay = 0.001
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
