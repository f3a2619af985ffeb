package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The shared host this benchmark runs on changes speed over minutes: over
// ten consecutive runs the middle half of their raw timings spread by up
// to 18 % (README.md, "Host speed"), more than a run can average away. So
// before every timed run, on the same goroutine, the harness times a chunk
// of fixed reference work, and scales the pass's times by how fast the
// host ran those chunks compared with refNominal. The reference is frozen
// here, in the benchmark, and calls no code of the repository: a change to
// the simulator cannot move it, only the host can.
//
// It resembles the simulator's own mix on purpose, so that it slows with
// the same things: per node of a 100-node paper-density scene, a grid
// neighbour search, a dense Dijkstra over the neighbourhood with math.Pow
// link costs (the SPT selection kernel), and writes into an n×n table (the
// hello tables). It allocates nothing after its first chunk, so it moves
// neither the collector's pacing nor alloc_mb_per_run.
const (
	refNodes      = 100
	refSide       = 900.0 // m, the paper's arena
	refRange      = 250.0 // m
	refCells      = 4     // ⌈refSide / refRange⌉ grid cells per side
	refChunkUnits = 2     // units per chunk

	// refNominal is one chunk's time on the README's host at its usual
	// speed. Timings are reported as if the host had run at that speed.
	refNominal = 3370 * time.Microsecond
)

// refKernel is one goroutine's reference state. Every chunk starts from
// the same scene, so every chunk does the same work.
type refKernel struct {
	x, y, vx, vy []float64
	table        []float64 // refNodes × refNodes, written like hello tables
	grid         [refCells * refCells][]int
	view         []int
	w, dist      []float64
	done         []bool
	sink         float64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		x: make([]float64, refNodes), y: make([]float64, refNodes),
		vx: make([]float64, refNodes), vy: make([]float64, refNodes),
		table: make([]float64, refNodes*refNodes),
	}
	for c := range k.grid {
		k.grid[c] = make([]int, 0, refNodes)
	}
	return k
}

// reset places the fixed scene: a low-discrepancy layout, the same in
// every process.
func (k *refKernel) reset() {
	for i := 0; i < refNodes; i++ {
		f := float64(i)
		k.x[i] = math.Mod(f*0.6180339887*refSide, refSide)
		k.y[i] = math.Mod(f*0.7548776662*refSide, refSide)
		k.vx[i] = 20 * math.Cos(f*2.399963)
		k.vy[i] = 20 * math.Sin(f*2.399963)
	}
}

// chunk does one chunk of reference work from the fixed scene.
func (k *refKernel) chunk() {
	k.reset()
	for step := 0; step < refChunkUnits; step++ {
		k.unit(step)
	}
}

// unit moves the scene one step, buckets it, and runs a neighbourhood
// Dijkstra per node with α = 2 or 4 costs.
func (k *refKernel) unit(step int) {
	for i := 0; i < refNodes; i++ {
		k.x[i] += k.vx[i]
		k.y[i] += k.vy[i]
		if k.x[i] < 0 || k.x[i] > refSide {
			k.vx[i] = -k.vx[i]
			k.x[i] = math.Max(0, math.Min(refSide, k.x[i]))
		}
		if k.y[i] < 0 || k.y[i] > refSide {
			k.vy[i] = -k.vy[i]
			k.y[i] = math.Max(0, math.Min(refSide, k.y[i]))
		}
	}
	cellOf := func(v float64) int { return int(math.Min(v/refRange, refCells-1)) }
	for c := range k.grid {
		k.grid[c] = k.grid[c][:0]
	}
	for i := 0; i < refNodes; i++ {
		c := cellOf(k.y[i])*refCells + cellOf(k.x[i])
		k.grid[c] = append(k.grid[c], i)
	}
	alpha := float64(2 + 2*(step%2))
	for u := 0; u < refNodes; u++ {
		k.view = append(k.view[:0], u)
		cx, cy := cellOf(k.x[u]), cellOf(k.y[u])
		for gy := max(cy-1, 0); gy <= min(cy+1, refCells-1); gy++ {
			for gx := max(cx-1, 0); gx <= min(cx+1, refCells-1); gx++ {
				for _, v := range k.grid[gy*refCells+gx] {
					if v != u && math.Hypot(k.x[u]-k.x[v], k.y[u]-k.y[v]) <= refRange {
						k.view = append(k.view, v)
						k.table[v*refNodes+u] = float64(step)
					}
				}
			}
		}
		k.sink += k.dijkstra(alpha)
	}
}

// dijkstra is an O(n²) shortest-path tree from view[0] over the view's
// unit-disk graph with cost d^alpha; it returns the sum of distances.
func (k *refKernel) dijkstra(alpha float64) float64 {
	n := len(k.view)
	k.w = grownTo(k.w, n*n)
	k.dist = grownTo(k.dist, n)
	k.done = grownTo(k.done, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := k.view[i], k.view[j]
			d := math.Hypot(k.x[a]-k.x[b], k.y[a]-k.y[b])
			c := math.Inf(1)
			if d <= refRange {
				c = math.Pow(d, alpha)
			}
			k.w[i*n+j], k.w[j*n+i] = c, c
		}
		k.w[i*n+i] = math.Inf(1)
		k.dist[i] = math.Inf(1)
		k.done[i] = false
	}
	k.dist[0] = 0
	sum := 0.0
	for {
		u := -1
		for i := 0; i < n; i++ {
			if !k.done[i] && !math.IsInf(k.dist[i], 1) && (u < 0 || k.dist[i] < k.dist[u]) {
				u = i
			}
		}
		if u < 0 {
			return sum
		}
		k.done[u] = true
		sum += k.dist[u]
		for v := 0; v < n; v++ {
			if nd := k.dist[u] + k.w[u*n+v]; nd < k.dist[v] {
				k.dist[v] = nd
			}
		}
	}
}

func grownTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// refClock sums the reference chunks of one pass, per slot: each slot
// adds to its own entry, so the slots share nothing while a pass runs.
type refClock struct {
	kernels []*refKernel
	slots   []refStats
}

// refStats is what a set of chunks measured: how many ran, their wall
// time, and the CPU time of the threads that ran them.
type refStats struct {
	chunks    int
	wall, cpu time.Duration
}

// newRefClock makes a clock for slots goroutines. Each kernel runs one
// untimed chunk, which sizes its buffers.
func newRefClock(slots int) *refClock {
	c := &refClock{}
	for s := 0; s < slots; s++ {
		k := newRefKernel()
		k.chunk()
		c.kernels = append(c.kernels, k)
	}
	c.reset()
	return c
}

// reset forgets the chunks, for the next pass.
func (c *refClock) reset() { c.slots = make([]refStats, len(c.kernels)) }

// tick runs one chunk on the calling goroutine, for slot.
func (c *refClock) tick(slot int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	t0 := time.Now()
	c.kernels[slot].chunk()
	r := &c.slots[slot]
	r.wall += time.Since(t0)
	r.cpu += threadCPU() - cpu0
	r.chunks++
}

// tickAll runs one chunk on every slot at once, as the region-parallel
// engine's workers run, and returns when all are done.
func (c *refClock) tickAll() {
	var wg sync.WaitGroup
	for s := range c.kernels {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			c.tick(slot)
		}(s)
	}
	wg.Wait()
}

// totals sums the slots.
func (c *refClock) totals() refStats {
	var t refStats
	for _, r := range c.slots {
		t.chunks += r.chunks
		t.wall += r.wall
		t.cpu += r.cpu
	}
	return t
}

// speed is refNominal ÷ the mean chunk time: 1 on the README's host at its
// usual speed, below 1 while the host runs slow. With no chunk it is 1, so
// times measured without chunks are reported as read.
func (r refStats) speed() float64 {
	if r.chunks == 0 || r.wall <= 0 {
		return 1
	}
	return refNominal.Seconds() * float64(r.chunks) / r.wall.Seconds()
}

// threadCPU is the calling thread's user+system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(1 /* RUSAGE_THREAD */, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
