package fleet

import (
	"mstc/internal/stats"
	"mstc/internal/sweep"
)

// This file is the shared machine-readable status encoding: `sweepctl
// status -json` summarizing a store offline and the daemon's GET
// /status describing the same store live emit the same
// FingerprintSummary shape, each folding one Welford.Add per completed
// record — so dashboards and scripts parse one format regardless of
// whether a coordinator is running.

// FingerprintSummary summarizes one fingerprint's records.
type FingerprintSummary struct {
	Fingerprint string `json:"fingerprint"`
	// Runs counts verified completed records.
	Runs int `json:"runs"`
	// Failed counts exhausted-retry failure records; Corrupt counts
	// records that failed checksum or decode verification.
	Failed  int `json:"failed,omitempty"`
	Corrupt int `json:"corrupt,omitempty"`
	// Connectivity summarizes every completed record's connectivity.
	Connectivity Metric `json:"connectivity"`
}

// Metric is a Welford summary rendered for JSON.
type Metric struct {
	N     int     `json:"n"`
	Mean  float64 `json:"mean"`
	CI95  float64 `json:"ci95"`
	RelCI float64 `json:"rel_ci"`
}

// FailureDetail is one exhausted-retry failure surfaced by the summary.
type FailureDetail struct {
	Fingerprint string `json:"fingerprint"`
	Desc        string `json:"desc"`
	Attempts    int    `json:"attempts"`
	Message     string `json:"message"`
}

// StoreSummary is the full offline summary of one store directory.
type StoreSummary struct {
	Dir          string               `json:"dir"`
	Fingerprints []FingerprintSummary `json:"fingerprints"`
	// Checkpoint is the advisory progress summary, when present and
	// intact; CheckpointError carries the decode defect when the file
	// exists but is corrupt (records stay authoritative either way).
	Checkpoint      *sweep.Checkpoint `json:"checkpoint,omitempty"`
	CheckpointError string            `json:"checkpoint_error,omitempty"`
	// Failures details up to the requested number of failure records
	// per fingerprint, in scan order; FingerprintSummary.Failed is the
	// exact count.
	Failures []FailureDetail `json:"failures,omitempty"`
}

// metricOf renders a Welford accumulator as a wire Metric.
func metricOf(w stats.Welford) Metric {
	return Metric{N: w.N(), Mean: w.Mean(), CI95: w.CI95(), RelCI: w.RelCI()}
}

// SummarizeStore scans a store into its summary, detailing at most
// failures failure records per fingerprint.
func SummarizeStore(st *sweep.Store, failures int) (StoreSummary, error) {
	sum := StoreSummary{Dir: st.Dir()}
	var conn []stats.Welford
	// Scan visits fingerprints in sorted order, so the fold is a
	// streaming group-by: the current fingerprint is always the last.
	err := st.Scan(func(info sweep.RecordInfo) error {
		if n := len(sum.Fingerprints); n == 0 || sum.Fingerprints[n-1].Fingerprint != info.Fingerprint {
			sum.Fingerprints = append(sum.Fingerprints, FingerprintSummary{Fingerprint: info.Fingerprint})
			conn = append(conn, stats.Welford{})
		}
		i := len(sum.Fingerprints) - 1
		fp := &sum.Fingerprints[i]
		switch {
		case info.Err != nil:
			fp.Corrupt++
		case info.Failed:
			fp.Failed++
			if fp.Failed <= failures {
				sum.Failures = append(sum.Failures, FailureDetail{
					Fingerprint: info.Fingerprint,
					Desc:        info.Record.Desc,
					Attempts:    info.Record.Attempts,
					Message:     info.Record.Failure,
				})
			}
		default:
			fp.Runs++
			conn[i].Add(info.Record.Result.Connectivity)
		}
		return nil
	})
	if err != nil {
		return StoreSummary{}, err
	}
	for i := range sum.Fingerprints {
		sum.Fingerprints[i].Connectivity = metricOf(conn[i])
	}
	cp, ok, cperr := st.ReadCheckpoint()
	if cperr != nil {
		sum.CheckpointError = cperr.Error()
	}
	if ok {
		sum.Checkpoint = &cp
	}
	return sum, nil
}
