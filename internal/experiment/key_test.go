package experiment

import (
	"testing"

	"mstc/internal/manet"
	"mstc/internal/topology"
)

// TestRunKeyCollisionFree enumerates the full configuration cross product
// reachable from DefaultOptions — every registry protocol, every paper
// speed and buffer width, every single-mechanism toggle and the weak-K
// ladder — and asserts the substream labels are pairwise distinct. A
// collision would silently pair two different configurations on one
// network randomness stream, the bug class the FNV encoding of Run.key
// exists to rule out.
func TestRunKeyCollisionFree(t *testing.T) {
	o := DefaultOptions()
	protocols := topology.Names()
	mechs := []manet.Mechanisms{
		{},
		{ViewSync: true},
		{PhysicalNeighbors: true},
		{Reactive: true},
		{Proactive: true},
		{WeakK: 2},
		{WeakK: 3},
		{WeakK: 5},
		{ViewSync: true, PhysicalNeighbors: true, Reactive: true},
	}
	seen := make(map[uint64]Run)
	for _, p := range protocols {
		for _, speed := range o.Speeds {
			for _, buf := range o.Buffers {
				for _, m := range mechs {
					m := m
					m.Buffer = buf
					r := Run{Protocol: p, Speed: speed, Mech: m}
					k := r.key()
					if prev, dup := seen[k]; dup {
						t.Fatalf("key collision %#x:\n  %+v\n  %+v", k, prev, r)
					}
					seen[k] = r
				}
			}
		}
	}
	// Rep must NOT enter the key: repetitions share the substream label.
	r0 := Run{Protocol: "MST", Speed: 40}
	r7 := r0
	r7.Rep = 7
	if r0.key() != r7.key() {
		t.Errorf("Rep changed the key: rep 0 %#x != rep 7 %#x", r0.key(), r7.key())
	}
}
