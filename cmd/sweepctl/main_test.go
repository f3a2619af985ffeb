package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mstc/internal/fleet"
	"mstc/internal/manet"
	"mstc/internal/sweep"
)

// sweepctl runs the command in a child process: the test binary re-enters
// TestSweepctlChild with the arguments after "--", so log.Fatal
// and usage exits are observed as real exit statuses.
func sweepctl(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestSweepctlChild$", "--"}, args...)...)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatal(err)
	return "", 0
}

// TestSweepctlChild is the child side of sweepctl: with arguments after
// "--" it runs main on them and exits; otherwise it does nothing.
func TestSweepctlChild(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"sweepctl"}, args...)
		main()
		os.Exit(0)
	}
}

// TestMissingStoreRefused: status, verify and gc, and merge's source
// arguments, refuse a path that is not an existing store with exit status
// 1 and create nothing there; a merge with such a source does not create
// its destination either. Only a merge of existing stores creates -into.
func TestMissingStoreRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the command in a child process")
	}
	dir := t.TempDir()
	typo := filepath.Join(dir, "typo")
	into := filepath.Join(dir, "merged")
	for _, args := range [][]string{
		{"status", typo},
		{"status", "-json", typo},
		{"verify", typo},
		{"gc", typo},
		{"merge", "-into", into, typo},
	} {
		out, code := sweepctl(t, args...)
		if code != 1 {
			t.Errorf("sweepctl %s: exit %d, want 1\n%s", strings.Join(args, " "), code, out)
		}
		for _, p := range []string{typo, into} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("sweepctl %s created %s (stat: %v)", strings.Join(args, " "), p, err)
			}
		}
	}
	// A plain directory is not a store either.
	if out, code := sweepctl(t, "verify", dir); code != 1 {
		t.Errorf("sweepctl verify on a directory without a store: exit %d, want 1\n%s", code, out)
	}
	src := filepath.Join(dir, "src")
	if _, err := sweep.Open(src); err != nil {
		t.Fatal(err)
	}
	if out, code := sweepctl(t, "merge", "-into", into, src); code != 0 {
		t.Fatalf("sweepctl merge of an existing store: exit %d\n%s", code, out)
	}
	if _, err := sweep.OpenExisting(into); err != nil {
		t.Errorf("merge -into did not create its destination store: %v", err)
	}
}

// TestStatusFailuresUnderTheirStore: with two stores, the second holding a
// failure record, the FAILED detail line is printed under the second
// store's header, not before it where it would read as the first's.
func TestStatusFailuresUnderTheirStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the command in a child process")
	}
	dir := t.TempDir()
	first, second := filepath.Join(dir, "first"), filepath.Join(dir, "second")
	a, err := sweep.Open(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(sweep.Key{Fingerprint: "fp01", Run: 1}, "RNG speed=1 rep=0", 1, manet.Result{Connectivity: 0.5}); err != nil {
		t.Fatal(err)
	}
	b, err := sweep.Open(second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PutFailure(sweep.Key{Fingerprint: "fp01", Run: 2}, "MST speed=2 rep=0", 3, "panic: boom"); err != nil {
		t.Fatal(err)
	}
	out, code := sweepctl(t, "status", first, second)
	if code != 0 {
		t.Fatalf("sweepctl status: exit %d\n%s", code, out)
	}
	failed := strings.Index(out, "FAILED")
	header := strings.Index(out, second+":")
	if failed < 0 || header < 0 || failed < header {
		t.Errorf("the failure line must follow %s's header:\n%s", second, out)
	}
	if !strings.HasPrefix(out, first+":") {
		t.Errorf("output must open with %s's header:\n%s", first, out)
	}
}

// TestStatusFailuresPerFingerprint: with two fingerprints of four failure
// records each, `status -failures 2` details two records per fingerprint,
// and the text report and -json detail the same records.
func TestStatusFailuresPerFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the command in a child process")
	}
	dir := filepath.Join(t.TempDir(), "store")
	s, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"fp01", "fp02"} {
		for run := uint64(1); run <= 4; run++ {
			desc := fmt.Sprintf("%s RNG speed=%d rep=0", fp, run)
			if err := s.PutFailure(sweep.Key{Fingerprint: fp, Run: run}, desc, 2, "panic: boom"); err != nil {
				t.Fatal(err)
			}
		}
	}
	text, code := sweepctl(t, "status", "-failures", "2", dir)
	if code != 0 {
		t.Fatalf("sweepctl status: exit %d\n%s", code, text)
	}
	out, code := sweepctl(t, "status", "-json", "-failures", "2", dir)
	if code != 0 {
		t.Fatalf("sweepctl status -json: exit %d\n%s", code, out)
	}
	var sums []fleet.StoreSummary
	if err := json.Unmarshal([]byte(out), &sums); err != nil {
		t.Fatalf("status -json: %v\n%s", err, out)
	}
	if len(sums) != 1 {
		t.Fatalf("status -json: %d summaries, want 1", len(sums))
	}
	perFP := make(map[string]int)
	var fromJSON []string
	for _, f := range sums[0].Failures {
		perFP[f.Fingerprint]++
		fromJSON = append(fromJSON, fmt.Sprintf("  FAILED (%d attempts) %s: %s", f.Attempts, f.Desc, f.Message))
	}
	if perFP["fp01"] != 2 || perFP["fp02"] != 2 || len(perFP) != 2 {
		t.Errorf("status -json details %v failures per fingerprint, want 2 each", perFP)
	}
	var fromText []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "  FAILED") {
			fromText = append(fromText, line)
		}
	}
	if strings.Join(fromText, "\n") != strings.Join(fromJSON, "\n") {
		t.Errorf("text details:\n%s\njson details:\n%s", strings.Join(fromText, "\n"), strings.Join(fromJSON, "\n"))
	}
	for _, fp := range sums[0].Fingerprints {
		if fp.Failed != 4 {
			t.Errorf("fingerprint %s: %d failed, want the exact count 4", fp.Fingerprint, fp.Failed)
		}
	}
}
