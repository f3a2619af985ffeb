package main

import (
	"errors"
	"flag"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mstc/internal/channel"
	"mstc/internal/geom"
	"mstc/internal/manet"
	"mstc/internal/mobility"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

func TestBuildChannelValid(t *testing.T) {
	cases := []struct {
		name string
		f    channelFlags
		want func(channel.Config) bool
	}{
		{"ideal", channelFlags{}, func(c channel.Config) bool { return !c.Enabled() }},
		{"loss", channelFlags{Loss: 0.2}, func(c channel.Config) bool {
			return c.Loss.Rate == 0.2 && !c.Delay.Enabled() //lint:ignore float-eq flag value passed through unchanged
		}},
		{"delay", channelFlags{DelayMin: 0.01, DelayMax: 0.5}, func(c channel.Config) bool {
			return c.Delay.Enabled() && c.Delay.Min == 0.01 && c.Delay.Max == 0.5 //lint:ignore float-eq flag values passed through unchanged
		}},
		{"loss and delay", channelFlags{Loss: 0.1, DelayMax: 0.2}, func(c channel.Config) bool {
			return c.Loss.Enabled() && c.Delay.Enabled()
		}},
	}
	for _, tc := range cases {
		cfg, err := tc.f.buildChannel()
		if err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
			continue
		}
		if !tc.want(cfg) {
			t.Errorf("%s: unexpected config %+v", tc.name, cfg)
		}
	}
}

func TestBuildChannelConflicts(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		f       channelFlags
		wantErr string
	}{
		{"loss rate over 1", channelFlags{Loss: 1.5}, "rate"},
		{"negative loss rate", channelFlags{Loss: -0.5}, "rate"},
		{"NaN loss rate", channelFlags{Loss: nan}, "rate"},
		{"negative delay min", channelFlags{DelayMin: -0.1, DelayMax: 0.5}, "delay"},
		{"negative delay min alone", channelFlags{DelayMin: -1}, "delay"},
		{"delay min above max", channelFlags{DelayMin: 0.5}, "delay"},
		{"NaN delay max", channelFlags{DelayMax: nan}, "delay"},
		{"infinite delay max", channelFlags{DelayMax: math.Inf(1)}, "delay"},
	}
	for _, tc := range cases {
		_, err := tc.f.buildChannel()
		if err == nil {
			t.Errorf("%s: no error, want one mentioning %q", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// FuzzBuildChannel: for any -loss, -delay-min and -delay-max, buildChannel
// either fails, or returns a configuration holding exactly the flag
// values, which the simulator then accepts and runs on a small static
// scene.
func FuzzBuildChannel(f *testing.F) {
	f.Add(0.0, 0.0, 0.0)
	f.Add(0.2, 0.0, 0.0)
	f.Add(0.0, 0.01, 0.5)
	f.Add(0.1, 0.2, 0.2)
	f.Add(-0.5, -1.0, math.NaN())
	f.Add(0.999, 0.0, 1e300)
	arena := geom.Square(300)
	model := mobility.NewStatic(arena, mobility.UniformPoints(arena, 6, xrand.New(1)), 2)
	f.Fuzz(func(t *testing.T, loss, delayMin, delayMax float64) {
		fl := channelFlags{Loss: loss, DelayMin: delayMin, DelayMax: delayMax}
		cfg, err := fl.buildChannel()
		if err != nil {
			return
		}
		for _, p := range [][2]float64{{cfg.Loss.Rate, loss}, {cfg.Delay.Min, delayMin}, {cfg.Delay.Max, delayMax}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("flags %+v built %+v", fl, cfg)
			}
		}
		nw, err := manet.NewNetwork(model, manet.Config{
			Protocol: topology.RNG{}, FloodRate: 2, Channel: cfg, Seed: 1,
		})
		if err != nil {
			t.Fatalf("flags %+v: buildChannel accepted %+v but NewNetwork rejects it: %v", fl, cfg, err)
		}
		nw.Run(2)
	})
}

// TestBadFlagsExitTwo runs the command itself on a non-finite or
// non-positive -arena, -range or -duration, an -n below 2, or a channel
// flag out of range, and expects the usage-error exit status 2, with a
// message naming the flag, before any scene is built. The test binary
// re-executes itself with the command's flags after "--"; in that child,
// TestBadFlagsExitTwo finds them in flag.Args() and runs main with them.
func TestBadFlagsExitTwo(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"manetsim"}, args...)
		flag.CommandLine = flag.NewFlagSet("manetsim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	if testing.Short() {
		t.Skip("runs the command in a child process")
	}
	for _, args := range [][]string{
		{"-arena", "NaN"}, {"-arena", "Inf"}, {"-arena", "0"},
		{"-range", "NaN"}, {"-range", "-Inf"}, {"-range", "-5"},
		{"-n", "-1"}, {"-n", "0"}, {"-n", "1"},
		{"-duration", "0"}, {"-duration", "NaN"},
		{"-loss", "NaN"}, {"-loss", "1.5"},
		{"-delay-min", "-1"}, {"-delay-max", "Inf"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestBadFlagsExitTwo$", "--"}, args...)...)
		cmd.Dir = t.TempDir()
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), args[0]) {
			t.Errorf("manetsim %s: %v, want exit status 2 and a message naming %s\n%s", strings.Join(args, " "), err, args[0], out)
		}
	}
}
