package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFatalErrorKeepsProfiles runs the command itself with both profiles
// requested and a horizon the mobility model refuses, an error that comes
// after profiling has started. It expects exit status 1 and two complete
// profiles: gzip data, not the empty files a deferred write skipped by
// os.Exit would leave. The child process runs main as
// TestBadFlagsExitTwo's does.
func TestFatalErrorKeepsProfiles(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"manetsim"}, args...)
		flag.CommandLine = flag.NewFlagSet("manetsim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	if testing.Short() {
		t.Skip("runs the command in a child process")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatalErrorKeepsProfiles$", "--",
		"-cpuprofile", cpu, "-memprofile", mem, "-speed", "0", "-duration", "1e7")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("manetsim -duration 1e7: %v, want exit status 1\n%s", err, out)
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
