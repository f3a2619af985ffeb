// Command sweepctl inspects and maintains sweep result stores (the
// content-addressed run journals cmd/paperfig writes with -store; see
// internal/sweep).
//
//	sweepctl status [-json] <store>...         record/failure/corrupt counts, checkpoint, summary
//	sweepctl merge -into <dst> <src>...        combine the stores of separate sweeps into one
//	sweepctl verify <store>...                 re-verify every checksum; exit 1 on corruption
//	sweepctl gc [-fingerprint <fp>] <store>... drop tmp files, failures, corrupt (and foreign) records
//
// Every store argument must name an existing store; only merge's -into
// destination is created when missing.
//
// Two sweeps merged into one store that renders both:
//
//	paperfig -exp fig6 -store s0
//	paperfig -exp table1 -store s1
//	sweepctl merge -into merged s0 s1
//	paperfig -exp fig6 -store merged -resume   # renders with zero recomputation
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"mstc/internal/fleet"
	"mstc/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweepctl: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "status":
		cmdStatus(os.Args[2:])
	case "merge":
		cmdMerge(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "gc":
		cmdGC(os.Args[2:])
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sweepctl status [-json] <store>...
  sweepctl merge -into <dst> <src>...
  sweepctl verify <store>...
  sweepctl gc [-fingerprint <fp>] <store>...`)
	os.Exit(2)
}

// open opens an existing store, exiting with status 1 when dir is not one.
func open(dir string) *sweep.Store {
	s, err := sweep.OpenExisting(dir)
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func cmdStatus(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	failures := fs.Int("failures", 3, "failure records to detail per fingerprint")
	jsonOut := fs.Bool("json", false, "machine-readable output (the same summary encoding sweepd serves at /status)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}
	// One StoreSummary per store, via the shared fleet encoding — a
	// dashboard parses identical shapes from an offline store and a live
	// daemon, and the text report renders the same fold.
	var sums []fleet.StoreSummary
	for _, dir := range fs.Args() {
		sum, err := fleet.SummarizeStore(open(dir), *failures)
		if err != nil {
			log.Fatal(err)
		}
		sums = append(sums, sum)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sums); err != nil {
			log.Fatal(err)
		}
		return
	}
	for i, sum := range sums {
		fmt.Printf("%s:\n", fs.Arg(i))
		for _, f := range sum.Failures {
			fmt.Printf("  FAILED (%d attempts) %s: %.120s\n", f.Attempts, f.Desc, f.Message)
		}
		if len(sum.Fingerprints) == 0 {
			fmt.Println("  empty")
		}
		for _, fp := range sum.Fingerprints {
			fmt.Printf("  fingerprint %s: %d runs", fp.Fingerprint, fp.Runs)
			if fp.Failed > 0 {
				fmt.Printf(", %d failed", fp.Failed)
			}
			if fp.Corrupt > 0 {
				fmt.Printf(", %d corrupt", fp.Corrupt)
			}
			if c := fp.Connectivity; c.N > 0 {
				fmt.Printf("  (connectivity %.4f ± %.4f)", c.Mean, c.CI95)
			}
			fmt.Println()
		}
		if sum.CheckpointError != "" {
			// Advisory file only — records are intact — but the operator
			// should know it was damaged rather than see it vanish.
			fmt.Printf("  WARNING: %s\n", sum.CheckpointError)
		}
		if cp := sum.Checkpoint; cp != nil {
			state := "complete"
			if cp.Interrupted {
				state = "interrupted"
			} else if cp.Done < cp.Total {
				state = "in progress"
			}
			fmt.Printf("  last sweep: %d/%d computed (%s, fingerprint %s)\n",
				cp.Done, cp.Total, state, cp.Fingerprint)
		}
	}
}

func cmdMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	into := fs.String("into", "", "destination store directory (created if missing)")
	fs.Parse(args)
	if *into == "" || fs.NArg() == 0 {
		usage()
	}
	// Every source must open before the destination is created, so a
	// mistyped source leaves no empty destination behind.
	srcs := make([]*sweep.Store, fs.NArg())
	for i, dir := range fs.Args() {
		srcs[i] = open(dir)
	}
	dst, err := sweep.Open(*into)
	if err != nil {
		log.Fatal(err)
	}
	for i, src := range srcs {
		st, err := sweep.Merge(dst, src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s -> %s: %s\n", fs.Arg(i), *into, st)
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}
	bad := 0
	for _, dir := range fs.Args() {
		ok, failed := 0, 0
		err := open(dir).Scan(func(info sweep.RecordInfo) error {
			switch {
			case info.Err != nil:
				bad++
				fmt.Printf("%s: CORRUPT: %v\n", info.Path, info.Err)
			case info.Failed:
				failed++
			default:
				ok++
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d records verified, %d failure records\n", dir, ok, failed)
	}
	if bad > 0 {
		log.Fatalf("%d corrupt records (re-run the sweep to replace them, or gc to drop them)", bad)
	}
}

func cmdGC(args []string) {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	fp := fs.String("fingerprint", "", "also drop records not under this fingerprint")
	fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}
	for _, dir := range fs.Args() {
		st, err := open(dir).GC(*fp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: removed %d tmp, %d failed, %d corrupt, %d foreign\n",
			dir, st.Tmp, st.Failed, st.Corrupt, st.Foreign)
	}
}
