package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadGeometryExitsTwo runs the command itself on a non-finite or
// non-positive -arena or -range, or an -n below 1, and expects the
// usage-error exit status 2, with a message naming the flag, before any
// scene is built. The test binary re-executes itself with the command's
// flags after "--"; in that child, TestBadGeometryExitsTwo finds them in
// flag.Args() and runs main with them.
func TestBadGeometryExitsTwo(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"topoviz"}, args...)
		flag.CommandLine = flag.NewFlagSet("topoviz", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	if testing.Short() {
		t.Skip("runs the command in a child process")
	}
	for _, args := range [][]string{
		{"-arena", "NaN"}, {"-arena", "-Inf"}, {"-arena", "-900"},
		{"-range", "NaN"}, {"-range", "Inf"}, {"-range", "0"},
		{"-n", "-1"}, {"-n", "0"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestBadGeometryExitsTwo$", "--"}, args...)...)
		cmd.Dir = t.TempDir()
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), args[0]) {
			t.Errorf("topoviz %s: %v, want exit status 2 and a message naming %s\n%s", strings.Join(args, " "), err, args[0], out)
		}
	}
}
