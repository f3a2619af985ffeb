package main

import (
	"bytes"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/fleet"
	"mstc/internal/sweep"
)

// paperfig runs the command in a child process in dir: the test binary
// re-enters TestPaperfigChild with the arguments after "--", so the
// command's exit status is observed as a real one.
func paperfig(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the command in a child process")
	}
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestPaperfigChild$", "--"}, args...)...)
	cmd.Dir = dir
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

// TestPaperfigChild is the child side of paperfig: with arguments after
// "--" it runs main on them and exits; otherwise it does nothing.
func TestPaperfigChild(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"paperfig"}, args...)
		flag.CommandLine = flag.NewFlagSet("paperfig", flag.ExitOnError)
		main()
		os.Exit(0)
	}
}

// TestFatalErrorKeepsProfiles runs the command itself with both profiles
// requested and -resume without -store, an error that comes after
// profiling has started. It expects exit status 1 and two complete
// profiles: gzip data, not the empty files a deferred write skipped by
// os.Exit would leave.
func TestFatalErrorKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	out, code := paperfig(t, dir, "-cpuprofile", cpu, "-memprofile", mem, "-exp", "table1", "-resume")
	if code != 1 {
		t.Fatalf("paperfig -resume without -store: exit %d, want 1\n%s", code, out)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, want a gzip-compressed profile", filepath.Base(path), len(b))
		}
	}
}

// TestInvalidOptionsCreateNoStore: options that every run would reject
// exit 1 before the store is opened, so the -store directory is never
// created and no failure record is journaled.
func TestInvalidOptionsCreateNoStore(t *testing.T) {
	for _, args := range [][]string{
		{"-reps", "-1"},
		{"-duration", "2", "-domains", "100"},
		{"-duration", "2", "-domains", "-1"},
		{"-duration", "2", "-engine-workers", "2"},
	} {
		dir := t.TempDir()
		all := append([]string{"-exp", "table1", "-quick", "-store", "s"}, args...)
		out, code := paperfig(t, dir, all...)
		if code != 1 {
			t.Errorf("paperfig %s: exit %d, want 1\n%s", strings.Join(all, " "), code, out)
		}
		if _, err := os.Stat(filepath.Join(dir, "s")); !os.IsNotExist(err) {
			t.Errorf("paperfig %s created its store (stat: %v)", strings.Join(all, " "), err)
		}
	}
}

// TestWorkerBadEngineKnobsExitOne: a worker started with engine knobs
// every run would reject exits 1 before it leases a task, leaving the
// coordinator's tasks pending and its store without failure records.
func TestWorkerBadEngineKnobsExitOne(t *testing.T) {
	o := experiment.QuickOptions()
	o.Reps, o.Duration = 1, 2
	tasks, err := experiment.TaskSet("table1", o)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := fleet.New(fleet.Config{Options: o, Tasks: tasks, Store: st, Clock: time.Now}) //lint:ignore no-wallclock lease deadlines only; no run is computed
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	out, code := paperfig(t, t.TempDir(), "-worker", srv.URL, "-domains", "100")
	if code != 1 {
		t.Errorf("paperfig -worker -domains 100: exit %d, want 1\n%s", code, out)
	}
	if s := c.Status(); s.Pending != len(tasks) || s.Failed != 0 {
		t.Errorf("coordinator after the rejected worker: %d pending, %d failed; want %d pending, 0 failed",
			s.Pending, s.Failed, len(tasks))
	}
}
