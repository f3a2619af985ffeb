package main

import "testing"

// TestRefChunkIsFixedWork checks what host-speed scaling rests on: every
// reference chunk does the same work, whatever ran before it, and
// allocates nothing once its buffers are sized, so it moves neither the
// collector nor alloc_mb_per_run.
func TestRefChunkIsFixedWork(t *testing.T) {
	k := newRefKernel()
	sums := make([]float64, 2)
	for i := range sums {
		k.sink = 0
		k.chunk()
		sums[i] = k.sink
	}
	if sums[0] != sums[1] || sums[0] == 0 {
		t.Errorf("two chunks summed %v and %v: want the same, nonzero", sums[0], sums[1])
	}
	if allocs := testing.AllocsPerRun(5, k.chunk); allocs != 0 {
		t.Errorf("chunk allocates %v times, want 0", allocs)
	}
}

// TestRefClockScaling checks the speed a clock reports and that slots
// count separately.
func TestRefClockScaling(t *testing.T) {
	c := newRefClock(2)
	if got := c.totals().speed(); got != 1 {
		t.Errorf("speed with no chunks = %v, want 1 (times reported as read)", got)
	}
	c.tick(1)
	c.tickAll()
	tot := c.totals()
	if tot.chunks != 3 || c.slots[0].chunks != 1 || c.slots[1].chunks != 2 {
		t.Errorf("chunks: total %d, per slot %d and %d; want 3, 1 and 2", tot.chunks, c.slots[0].chunks, c.slots[1].chunks)
	}
	if tot.wall <= 0 || tot.cpu <= 0 {
		t.Errorf("wall %v, cpu %v: want both positive", tot.wall, tot.cpu)
	}
	slow := refStats{chunks: 4, wall: 8 * refNominal}
	if got := slow.speed(); !near(got, 0.5) {
		t.Errorf("chunks at twice refNominal: speed %v, want 0.5", got)
	}
	c.reset()
	if got := c.totals(); got != (refStats{}) {
		t.Errorf("after reset: %+v, want zero", got)
	}
}
