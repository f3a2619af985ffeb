package channel

import (
	"math"
	"testing"

	"mstc/internal/xrand"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Loss: LossConfig{Rate: 0.3}},
		{Delay: DelayConfig{Max: 0.5}},
		{Delay: DelayConfig{Min: 0.1, Max: 0.5}},
		{Delay: DelayConfig{Min: 0.5, Max: 0.5}},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("case %d: valid config rejected: %v", i, err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Config{
		{Loss: LossConfig{Rate: -0.1}},
		{Loss: LossConfig{Rate: 1}},
		{Loss: LossConfig{Rate: nan}},
		{Delay: DelayConfig{Min: -1, Max: 1}},
		{Delay: DelayConfig{Min: 2, Max: 1}},
		{Delay: DelayConfig{Min: nan, Max: 1}},
		{Delay: DelayConfig{Max: nan}},
		{Delay: DelayConfig{Max: inf}},
		{Delay: DelayConfig{Min: inf, Max: inf}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config %+v accepted", i, c)
		}
	}
}

func TestIdealConfigBuildsNoModel(t *testing.T) {
	m, err := NewModel(Config{}, 50, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatalf("ideal config built a model: %+v", m)
	}
	// The nil model is usable everywhere.
	if m.LossEnabled() || m.DelayEnabled() {
		t.Error("nil model reports an enabled fault process")
	}
	ids := []int{1, 2, 3}
	if got := m.FilterLost(ids); len(got) != 3 {
		t.Errorf("nil model dropped receivers: %v", got)
	}
}

func TestBernoulliLongRunRate(t *testing.T) {
	for _, rate := range []float64{0.05, 0.2, 0.5} {
		m, err := NewModel(Config{Loss: LossConfig{Rate: rate}}, 1, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		const n = 200000
		kept := 0
		ids := []int{0}
		for i := 0; i < n; i++ {
			kept += len(m.FilterLost(ids[:1]))
		}
		got := 1 - float64(kept)/n
		if math.Abs(got-rate) > 0.01 {
			t.Errorf("rate %g: long-run loss %g", rate, got)
		}
	}
}

func TestDelayBounds(t *testing.T) {
	m, err := NewModel(Config{Delay: DelayConfig{Min: 0.05, Max: 0.4}}, 10, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !m.DelayEnabled() {
		t.Fatal("delay not enabled")
	}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := m.HelloDelay(i%10, (i+1)%10, uint64(i))
		if d < 0.05 || d >= 0.4 {
			t.Fatalf("delay %g outside [0.05, 0.4)", d)
		}
		sum += d
	}
	if mean := sum / n; math.Abs(mean-0.225) > 0.01 {
		t.Errorf("delay mean %g, want ~0.225", mean)
	}
	// The delay is a pure function of the delivery key, and the hello and
	// flood kinds never share a substream even on identical numeric keys.
	if a, b := m.HelloDelay(3, 4, 77), m.HelloDelay(3, 4, 77); a != b {
		t.Errorf("HelloDelay not pure: %g != %g", a, b)
	}
	if a, b := m.HelloDelay(3, 4, 77), m.FloodDelay(77, 3, 4); a == b {
		t.Errorf("hello and flood delay kinds collide: both %g", a)
	}
}

func TestFilterLostPreservesOrderAndAdvancesPerReceiver(t *testing.T) {
	cfg := Config{Loss: LossConfig{Rate: 0.5}}
	m, err := NewModel(cfg, 6, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same per-receiver substreams drawn directly, one
	// uniform per packet.
	ref := make([]*xrand.Source, 6)
	for i := range ref {
		ref[i] = xrand.New(11).Sub('l', uint64(i))
	}
	ids := []int{0, 2, 3, 5}
	for round := 0; round < 200; round++ {
		var want []int
		for _, id := range ids {
			if ref[id].Float64() >= cfg.Loss.Rate {
				want = append(want, id)
			}
		}
		buf := append([]int(nil), ids...)
		got := m.FilterLost(buf)
		if len(got) != len(want) {
			t.Fatalf("round %d: kept %v, want %v", round, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: kept %v, want %v", round, got, want)
			}
		}
	}
}
