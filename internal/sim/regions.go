// Region-parallel execution support: a fixed pool of worker goroutines that
// drains a set of independent spatial domains between two barriers. The
// pool is deliberately dumb — it knows nothing about simulation state. The
// caller guarantees that the per-domain work function touches disjoint
// state (package manet's ownership discipline), and the pool guarantees
// that Barrier does not return until every domain has been processed, with
// the channel send/receive plus WaitGroup edges providing the
// happens-before ordering that makes the serial code before and after a
// barrier race-free against the workers.
package sim

import "sync"

// Regions is a reusable barrier-synchronized worker pool over a fixed
// number of domains. The per-domain work function is bound once at
// construction — Barrier itself takes no arguments and allocates nothing,
// so it can sit on an allocation-audited hot path. With one worker the
// pool degenerates to an inline loop — no goroutines, no synchronization —
// so single-worker runs stay measurable by allocation- and determinism-
// sensitive tests.
type Regions struct {
	domains int
	workers int
	run     func(domain int)
	work    chan int
	wg      sync.WaitGroup
}

// NewRegions builds a pool of workers goroutines serving the given number
// of domains, each barrier running run(d) for every domain d. workers is
// clamped to [1, domains]; with workers == 1 no goroutines are started.
func NewRegions(domains, workers int, run func(domain int)) *Regions {
	if domains < 1 {
		domains = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > domains {
		workers = domains
	}
	r := &Regions{domains: domains, workers: workers, run: run}
	if workers > 1 {
		r.work = make(chan int, domains)
		for w := 0; w < workers; w++ {
			// The channel is passed in, not read from r: Close clears
			// r.work, possibly before a worker has started.
			go r.worker(r.work)
		}
	}
	return r
}

// Domains returns the domain count the pool was built for.
func (r *Regions) Domains() int { return r.domains }

// Workers returns the effective worker count.
func (r *Regions) Workers() int { return r.workers }

func (r *Regions) worker(work <-chan int) {
	for d := range work {
		r.run(d)
		r.wg.Done()
	}
}

// Barrier runs the bound work function for every domain in [0, domains)
// and returns once all calls have completed. Domains are handed out
// through a buffered channel, so workers load-balance dynamically; because
// the caller guarantees domain independence, the completion order cannot
// influence results. Barrier must not be called concurrently with itself.
func (r *Regions) Barrier() {
	if r.workers == 1 {
		for d := 0; d < r.domains; d++ {
			r.run(d)
		}
		return
	}
	r.wg.Add(r.domains)
	for d := 0; d < r.domains; d++ {
		r.work <- d
	}
	r.wg.Wait()
}

// Close shuts the worker goroutines down. The pool must not be used after
// Close; calling Close on a single-worker pool is a no-op.
func (r *Regions) Close() {
	if r.work != nil {
		close(r.work)
		r.work = nil
	}
}
