package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// MergeStats summarizes one Merge call.
type MergeStats struct {
	// Copied counts records newly written into the destination.
	Copied int
	// Identical counts records already present with identical payloads.
	Identical int
	// SkippedFailed counts source failure records (never merged).
	SkippedFailed int
	// SkippedCorrupt counts source records that failed checksum or
	// decode verification (reported, not copied — a sweep over the
	// destination re-runs them).
	SkippedCorrupt int
}

// Merge copies every valid record of src into dst, verifying checksums
// on the way. Records already present in dst must be payload-identical —
// runs are deterministic, so a divergent duplicate means one side is
// wrong and the merge aborts rather than pick a winner. Failure and
// corrupt records are skipped (and counted): only verified results
// migrate. Stores of separate sweeps, overlapping or not, combine this
// way into one that renders each of their figures without recomputing
// a run.
func Merge(dst, src *Store) (MergeStats, error) {
	var st MergeStats
	err := src.Scan(func(info RecordInfo) error {
		switch {
		case info.Failed:
			st.SkippedFailed++
			return nil
		case info.Err != nil:
			st.SkippedCorrupt++
			return nil
		}
		rel := filepath.Join(info.Fingerprint, filepath.Base(info.Path))
		dstPath := filepath.Join(dst.dir, runsDirName, rel)
		srcData, err := os.ReadFile(info.Path)
		if err != nil {
			return fmt.Errorf("sweep: merge read %s: %w", info.Path, err)
		}
		if dstData, err := os.ReadFile(dstPath); err == nil {
			if dstRec, derr := decode(dstData); derr == nil {
				if !bytes.Equal(dstData, srcData) {
					return fmt.Errorf("sweep: merge conflict at %s (%s): source and destination hold different results for the same deterministic run",
						rel, dstRec.Desc)
				}
				st.Identical++
				return nil
			}
			// Destination copy is corrupt: the verified source record
			// replaces it.
		}
		if err := dst.writeAtomic(dstPath, srcData); err != nil {
			return fmt.Errorf("sweep: merge write %s: %w", rel, err)
		}
		st.Copied++
		return nil
	})
	return st, err
}

// String renders the stats for CLI reporting.
func (st MergeStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d copied, %d identical", st.Copied, st.Identical)
	if st.SkippedFailed > 0 {
		fmt.Fprintf(&b, ", %d failed skipped", st.SkippedFailed)
	}
	if st.SkippedCorrupt > 0 {
		fmt.Fprintf(&b, ", %d corrupt skipped", st.SkippedCorrupt)
	}
	return b.String()
}
