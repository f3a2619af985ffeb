package main

import (
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
		cfg, err := tc.f.buildChannel(0)
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
		txDur   float64
		wantErr string
	}{
		{"burst without gilbert", channelFlags{Loss: 0.2, LossBurst: 5}, 0, "-loss-burst"},
		{"gilbert without loss", channelFlags{LossModel: "gilbert"}, 0, "-loss > 0"},
		{"unknown model", channelFlags{Loss: 0.1, LossModel: "markov"}, 0, "loss-model"},
		{"delay vs txdur", channelFlags{DelayMax: 0.1}, 0.001, "-txdur"},
		{"churn fraction too big", channelFlags{Churn: 1}, 0, "fraction"},
		{"outage without churn", channelFlags{Outage: 2}, 0, "-churn-outage"},
		{"loss rate over 1", channelFlags{Loss: 1.5}, 0, "rate"},
		{"negative delay min", channelFlags{DelayMin: -0.1, DelayMax: 0.5}, 0, "delay"},
	}
	for _, tc := range cases {
		_, err := tc.f.buildChannel(tc.txDur)
		if err == nil {
			t.Errorf("%s: no error, want one mentioning %q", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
