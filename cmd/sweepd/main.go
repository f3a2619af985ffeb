// Command sweepd is the sweep-fleet coordinator daemon: it owns a result
// store and a task set, and hands out lease-based work batches to
// workers (paperfig -worker) over HTTP. Crashed or
// partitioned workers lose their leases after -lease-ttl of silence and
// their tasks are re-granted to whoever asks next; because every run is
// deterministic, duplicated work is absorbed byte-identically.
//
//	sweepd -exp fig6 -quick -store runs/ &
//	paperfig -worker http://127.0.0.1:7070 &
//	paperfig -worker http://127.0.0.1:7070 &
//	curl -s http://127.0.0.1:7070/status | jq .
//	curl -sN http://127.0.0.1:7070/events    # live NDJSON progress
//
// The daemon computes exactly the experiment's task set, minus the runs
// the store already holds: the finished store is byte-identical to a
// single-process `paperfig -store` sweep of the same experiment and
// merges cleanly with `sweepctl merge`.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/fleet"
	"mstc/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweepd: ")

	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address (port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file (for scripts using port 0)")
		exp      = flag.String("exp", "", "task set to sweep: "+strings.Join(experiment.TaskSetNames(), ", "))
		quick    = flag.Bool("quick", false, "scaled-down options for a fast pass")
		reps     = flag.Int("reps", 0, "repetitions per configuration (default: paper's 20, or 3 with -quick)")
		duration = flag.Float64("duration", 0, "simulated seconds per run (default: paper's 100, or 20 with -quick)")
		seed     = flag.Uint64("seed", 2004, "root seed")
		storeDir = flag.String("store", "", "result store directory (required)")
		resume   = flag.Bool("resume", false, "reuse runs already journaled in -store instead of refusing a non-empty store")
		ttl      = flag.Duration("lease-ttl", 60*time.Second, "lease lifetime without a heartbeat before tasks are stolen")
		batch    = flag.Int("lease-batch", 4, "maximum tasks granted per lease")
		retries  = flag.Int("retries", 1, "per-run panic-retry budget advertised to workers")
		exitDone = flag.Bool("exit-on-done", false, "exit 0 once the sweep completes instead of serving /status forever")
	)
	flag.Parse()
	if *exp == "" || *storeDir == "" {
		log.Print("both -exp and -store are required")
		flag.Usage()
		os.Exit(2)
	}

	o := experiment.DefaultOptions()
	if *quick {
		o = experiment.QuickOptions()
	}
	// 0 keeps the default; any other value, invalid ones included, is
	// copied for Options.Validate to judge.
	if *reps != 0 {
		o.Reps = *reps
	}
	if *duration != 0 { //lint:ignore float-eq zero value is the unset sentinel, exact by construction
		o.Duration = *duration
	}
	o.Seed = *seed
	if err := o.Validate(); err != nil {
		log.Fatal(err)
	}

	tasks, err := experiment.TaskSet(*exp, o)
	if err != nil {
		log.Fatal(err)
	}

	st, err := sweep.Open(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	// Same operator-intent gate as paperfig -store: a non-empty store is
	// only trusted with an explicit -resume.
	if n, err := st.Count(); err != nil {
		log.Fatal(err)
	} else if n > 0 && !*resume {
		log.Fatalf("store %s already holds %d runs; pass -resume to reuse them or choose a fresh directory", *storeDir, n)
	}

	c, err := fleet.New(fleet.Config{
		Options:    o,
		Tasks:      tasks,
		Store:      st,
		Clock:      time.Now, //lint:ignore no-wallclock the daemon is the one place wall time enters the fleet: lease deadlines and ETA; simulations never see it
		LeaseTTL:   *ttl,
		LeaseBatch: *batch,
		Retries:    *retries,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	status := c.Status()
	log.Printf("serving %s (%d tasks, %d store hits, %d pending) on http://%s",
		*exp, status.Total, status.Hits, status.Pending, bound)

	srv := fleet.NewServer(c)

	// Lifecycle: SIGINT/SIGTERM flushes an interrupted checkpoint and
	// exits 130 (matching paperfig's drain contract — workers' in-flight
	// completions just fail their POST and the runs are recomputed on
	// resume); completion exits 0 under -exit-on-done.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	exit := make(chan int, 1)
	go func() { //lint:ignore no-naked-goroutine lifecycle watcher: waits for a signal or sweep completion, then closes the listener to unblock Serve
		select {
		case <-sigc:
			c.Interrupt()
			log.Print("interrupt: checkpoint flushed, shutting down")
			exit <- 130
		case <-c.DoneCh():
			final := c.Status()
			log.Printf("sweep complete: %d done, %d failed, %d computed by %d workers",
				final.Done, final.Failed, final.Computed, final.Workers)
			if !*exitDone {
				// Keep serving /status for inspection.
				select {
				case <-sigc:
				}
			}
			exit <- 0
		}
		srv.Close()
	}()

	if err := srv.Serve(ln); err != http.ErrServerClosed {
		log.Fatal(err)
	}
	os.Exit(<-exit)
}
