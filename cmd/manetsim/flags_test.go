package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mstc/internal/channel"
)

func TestBuildChannelValid(t *testing.T) {
	cases := []struct {
		name string
		f    channelFlags
		want func(channel.Config) bool
	}{
		{"ideal", channelFlags{}, func(c channel.Config) bool { return !c.Enabled() }},
		{"bernoulli", channelFlags{Loss: 0.2}, func(c channel.Config) bool {
			return c.Loss.Model == channel.Bernoulli && c.Loss.Rate == 0.2 //lint:ignore float-eq flag value passed through unchanged
		}},
		{"explicit bernoulli", channelFlags{Loss: 0.2, LossModel: "bernoulli"}, func(c channel.Config) bool {
			return c.Loss.Model == channel.Bernoulli
		}},
		{"gilbert", channelFlags{Loss: 0.3, LossModel: "gilbert", LossBurst: 5}, func(c channel.Config) bool {
			return c.Loss.Model == channel.GilbertElliott && c.Loss.MeanBurst == 5 //lint:ignore float-eq flag value passed through unchanged
		}},
		{"delay", channelFlags{DelayMin: 0.01, DelayMax: 0.5}, func(c channel.Config) bool {
			return c.Delay.Enabled() && c.Delay.Min == 0.01 && c.Delay.Max == 0.5 //lint:ignore float-eq flag values passed through unchanged
		}},
		{"churn default outage", channelFlags{Churn: 0.5}, func(c channel.Config) bool {
			// Expected down fraction 1/2 with the 2 s default outage → 2 s up.
			return c.Churn.MeanUp == 2 && c.Churn.MeanDown == 2 //lint:ignore float-eq exact arithmetic on flag values
		}},
		{"churn custom outage", channelFlags{Churn: 0.25, Outage: 4}, func(c channel.Config) bool {
			return c.Churn.MeanUp == 12 && c.Churn.MeanDown == 4 //lint:ignore float-eq exact arithmetic on flag values
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
	cases := []struct {
		name    string
		f       channelFlags
		wantErr string
	}{
		{"burst without gilbert", channelFlags{Loss: 0.2, LossBurst: 5}, "-loss-burst"},
		{"gilbert without loss", channelFlags{LossModel: "gilbert"}, "-loss > 0"},
		{"unknown model", channelFlags{Loss: 0.1, LossModel: "markov"}, "loss-model"},
		{"churn fraction too big", channelFlags{Churn: 1}, "fraction"},
		{"outage without churn", channelFlags{Outage: 2}, "-churn-outage"},
		{"loss rate over 1", channelFlags{Loss: 1.5}, "rate"},
		{"negative delay min", channelFlags{DelayMin: -0.1, DelayMax: 0.5}, "delay"},
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

// TestBadGeometryExitsTwo runs the command itself on a non-finite or
// non-positive -arena or -range, or an -n below 2, and expects the
// usage-error exit status 2, with a message naming the flag, before any
// scene is built. The test binary re-executes itself with the command's
// flags after "--"; in that child, TestBadGeometryExitsTwo finds them in
// flag.Args() and runs main with them.
func TestBadGeometryExitsTwo(t *testing.T) {
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
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestBadGeometryExitsTwo$", "--"}, args...)...)
		cmd.Dir = t.TempDir()
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), args[0]) {
			t.Errorf("manetsim %s: %v, want exit status 2 and a message naming %s\n%s", strings.Join(args, " "), err, args[0], out)
		}
	}
}
