package experiment

import (
	"testing"

	"mstc/internal/channel"
	"mstc/internal/manet"
	"mstc/internal/sweep"
	"mstc/internal/traffic"
)

// TestStoredRecordIdentity pins what a result store addresses and verifies
// records by — Options.Fingerprint, Run.StoreKey and Run.Desc — to literal
// values. A store journaled under these values must keep resolving without
// recomputation, so any change to them (a renamed or dropped field inside a
// %+v, a reordered hash word) shows here rather than as silent cache misses.
func TestStoredRecordIdentity(t *testing.T) {
	fps := []struct {
		name string
		o    Options
		want string
	}{
		{"default", DefaultOptions(), "2dd780cbaabea6c497034f22d561eec9"},
		{"quick", QuickOptions(), "5fc0c39648fc60a640719a10b0b1f16b"},
		{"channel", func() Options {
			o := QuickOptions()
			o.Channel = channel.Config{
				Loss:  channel.LossConfig{Rate: 0.2},
				Delay: channel.DelayConfig{Min: 0.001, Max: 0.004},
			}
			o.SnapshotEvery = 0.5
			return o
		}(), "84c467c5b488fd206258bd85f44e3214"},
	}
	for _, tc := range fps {
		if got := tc.o.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %q, want %q", tc.name, got, tc.want)
		}
	}

	fp := QuickOptions().Fingerprint()
	runs := []struct {
		name string
		r    Run
		desc string
		key  uint64
	}{
		{"plain", Run{Protocol: "MST", Speed: 40},
			"MST speed=40 rep=0 mech={Buffer:0 ViewSync:false PhysicalNeighbors:false WeakK:0 Reactive:false CDSForward:false SelfPruning:false Proactive:false}",
			0xfa45441d8f0338cb},
		{"buffer", Run{Protocol: "RNG", Speed: 0.5, Rep: 3, Mech: manet.Mechanisms{Buffer: 2.5}},
			"RNG speed=0.5 rep=3 mech={Buffer:2.5 ViewSync:false PhysicalNeighbors:false WeakK:0 Reactive:false CDSForward:false SelfPruning:false Proactive:false}",
			0x129340b41dae82c9},
		{"view-sync", Run{Protocol: "SPT-2", Speed: 160, Mech: manet.Mechanisms{ViewSync: true}},
			"SPT-2 speed=160 rep=0 mech={Buffer:0 ViewSync:true PhysicalNeighbors:false WeakK:0 Reactive:false CDSForward:false SelfPruning:false Proactive:false}",
			0xfef672557513eda},
		{"physical", Run{Protocol: "SPT-4", Speed: 20, Rep: 1, Mech: manet.Mechanisms{PhysicalNeighbors: true, Buffer: 10}},
			"SPT-4 speed=20 rep=1 mech={Buffer:10 ViewSync:false PhysicalNeighbors:true WeakK:0 Reactive:false CDSForward:false SelfPruning:false Proactive:false}",
			0x7125e5a82efa444d},
		{"reactive", Run{Protocol: "GG", Speed: 80, Mech: manet.Mechanisms{Reactive: true}},
			"GG speed=80 rep=0 mech={Buffer:0 ViewSync:false PhysicalNeighbors:false WeakK:0 Reactive:true CDSForward:false SelfPruning:false Proactive:false}",
			0x4d5929727d7dfd9b},
		{"proactive", Run{Protocol: "MST", Speed: 1, Rep: 19, Mech: manet.Mechanisms{Proactive: true, ViewSync: true}},
			"MST speed=1 rep=19 mech={Buffer:0 ViewSync:true PhysicalNeighbors:false WeakK:0 Reactive:false CDSForward:false SelfPruning:false Proactive:true}",
			0xb214915b1b2b9883},
		{"weak-k", Run{Protocol: "MST", Speed: 40, Mech: manet.Mechanisms{WeakK: 3, Buffer: 1e-5}},
			"MST speed=40 rep=0 mech={Buffer:1e-05 ViewSync:false PhysicalNeighbors:false WeakK:3 Reactive:false CDSForward:false SelfPruning:false Proactive:false}",
			0xf3b997b1889dfa03},
		{"channel", Run{Protocol: "RNG", Speed: 40, Rep: 2, Channel: channel.Config{
			Loss:  channel.LossConfig{Rate: 0.2},
			Delay: channel.DelayConfig{Max: 0.003},
		}},
			"RNG speed=40 rep=2 mech={Buffer:0 ViewSync:false PhysicalNeighbors:false WeakK:0 Reactive:false CDSForward:false SelfPruning:false Proactive:false} chan={Loss:{Model:bernoulli Rate:0.2 MeanBurst:0 GoodLoss:0 BadLoss:0} Delay:{Min:0 Max:0.003} Churn:{MeanUp:0 MeanDown:0}}",
			0x964c617f1e2b8058},
		{"bufferzone-delay", Run{Protocol: "MST", Speed: 20, Channel: channel.Config{
			Delay: channel.DelayConfig{Min: 0.5, Max: 0.5},
		}},
			"MST speed=20 rep=0 mech={Buffer:0 ViewSync:false PhysicalNeighbors:false WeakK:0 Reactive:false CDSForward:false SelfPruning:false Proactive:false} chan={Loss:{Model:bernoulli Rate:0 MeanBurst:0 GoodLoss:0 BadLoss:0} Delay:{Min:0.5 Max:0.5} Churn:{MeanUp:0 MeanDown:0}}",
			0xc5cb44508d7fbe0a},
		{"traffic", Run{Protocol: "SPT-2", Speed: 20, Traffic: traffic.Config{Mode: traffic.OLSR, Flows: 4, Rate: 2, TCInterval: 5}},
			"SPT-2 speed=20 rep=0 mech={Buffer:0 ViewSync:false PhysicalNeighbors:false WeakK:0 Reactive:false CDSForward:false SelfPruning:false Proactive:false} traffic={Mode:olsr Flows:4 Rate:2 Packets:0 TTLStart:0 TTLMax:0 MaxRetries:0 RingTimeout:0 RouteLifetime:0 TCInterval:5}",
			0x9d8de0b20cafbc4d},
		{"unicast", Run{Protocol: "RNG", Speed: 160, Rep: 1, Unicast: manet.UnicastConfig{Rate: 5, MaxHops: 64}},
			"RNG speed=160 rep=1 mech={Buffer:0 ViewSync:false PhysicalNeighbors:false WeakK:0 Reactive:false CDSForward:false SelfPruning:false Proactive:false} unicast={Rate:5 MaxHops:64}",
			0x796c8e2ea3fea91b},
	}
	for _, tc := range runs {
		if got := tc.r.Desc(); got != tc.desc {
			t.Errorf("%s: Desc() = %q, want %q", tc.name, got, tc.desc)
		}
		want := sweep.Key{Fingerprint: fp, Run: tc.key, Rep: tc.r.Rep}
		if got := tc.r.StoreKey(fp); got != want {
			t.Errorf("%s: StoreKey() = %+v (Run %#x), want %+v", tc.name, got, got.Run, want)
		}
	}
}
