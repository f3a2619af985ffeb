// Package sweep is the persistence and orchestration layer for experiment
// execution: a content-addressed on-disk result store, and a merge
// operation combining the stores of separate sweeps into one.
//
// The store holds one record per completed simulation run, addressed by
// the run's configuration substream key (experiment.Run.key) plus the
// options fingerprint — everything that determines the run's result and
// nothing that doesn't. Records are written atomically (temp file +
// rename on the same filesystem) and carry a sha256 checksum over their
// payload bytes, so a torn or bit-rotted record is *detected and re-run*
// rather than silently trusted. A record is the journal entry for its
// run: restarting an interrupted sweep skips every run whose record
// verifies, and resumes exactly where the previous process died.
//
// Because every run is deterministic given (fingerprint, key, rep), two
// stores never hold conflicting valid records for the same address; the
// merge operation checks that invariant instead of assuming it.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mstc/internal/manet"
)

// ErrInterrupted reports a sweep that drained gracefully before
// completing: in-flight runs finished and were journaled, queued runs
// were skipped. Re-running with the same store resumes from the
// journal. CLIs exit 130 on it.
//
//lint:ignore global-mutable-state errors.New sentinel, assigned once and only compared with errors.Is
var ErrInterrupted = errors.New("sweep interrupted")

// Key addresses one record: the options fingerprint, the run's
// configuration substream key, and the repetition index.
type Key struct {
	// Fingerprint identifies the option set the run was computed under
	// (experiment.Options.Fingerprint).
	Fingerprint string
	// Run is the configuration substream key (experiment.Run.key): it
	// covers protocol, speed, mechanisms, and any per-run channel.
	Run uint64
	// Rep is the repetition index.
	Rep int
}

// name returns the content address inside the fingerprint directory:
// the first 16 bytes of sha256 over the (run key, rep) pair, hex encoded.
// The full run descriptor is stored inside the record and verified on
// read, so a (vanishingly unlikely) truncated-hash collision degrades to
// a cache miss, never to a wrong result.
func (k Key) name() string {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], k.Run)
	binary.LittleEndian.PutUint64(b[8:16], uint64(int64(k.Rep)))
	sum := sha256.Sum256(b[:])
	return hex.EncodeToString(sum[:16])
}

const (
	recordSchema  = 1
	recordExt     = ".json"
	failedExt     = ".failed.json"
	runsDirName   = "runs"
	tmpDirName    = "tmp"
	checkpointLog = "checkpoint.json"
)

// Record is the stored form of one run. Exactly one of Result / Failure
// is meaningful: a failure record documents an exhausted retry budget and
// is never returned by Get.
type Record struct {
	Schema      int    `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	RunKey      uint64 `json:"run_key"`
	Rep         int    `json:"rep"`
	// Desc is the canonical human-readable run descriptor; Get verifies
	// it against the requested run so hash collisions cannot alias.
	Desc string `json:"desc"`
	// Attempts counts executions including retries (1 = first try).
	Attempts int          `json:"attempts,omitempty"`
	Result   manet.Result `json:"result"`
	Failure  string       `json:"failure,omitempty"`
}

// Checkpoint is the store-level progress summary the executor flushes
// periodically and on interrupt. It is advisory — the per-record journal
// is the source of truth for resume — but lets `sweepctl status` report
// where a sweep stood without rescanning every record.
type Checkpoint struct {
	Fingerprint string `json:"fingerprint"`
	// Done and Total count computed runs of the most recent Execute call
	// (store hits excluded from both).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Interrupted marks a checkpoint flushed during a graceful drain.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Store is a content-addressed directory of run records. All methods are
// safe for concurrent use by the executor's workers; distinct records
// land in distinct files and the checkpoint writer is serialized.
type Store struct {
	dir string
	mu  sync.Mutex // serializes checkpoint writes
}

// Open creates (if needed) and returns the store rooted at dir. The
// directory layout is
//
//	dir/runs/<fingerprint>/<addr>.json         completed records
//	dir/runs/<fingerprint>/<addr>.failed.json  exhausted-retry failures
//	dir/tmp/                                   write staging (same fs)
//	dir/checkpoint.json                        advisory progress summary
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, runsDirName), filepath.Join(dir, tmpDirName)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: open store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// OpenExisting returns the store rooted at dir without creating
// anything: dir must already hold a store's runs directory. Tools that
// inspect or maintain stores open them this way, so a mistyped path is an
// error instead of a new empty store.
func OpenExisting(dir string) (*Store, error) {
	if fi, err := os.Stat(filepath.Join(dir, runsDirName)); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("sweep: %s is not a result store (no %s directory)", dir, runsDirName)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) recordPath(k Key, failed bool) string {
	ext := recordExt
	if failed {
		ext = failedExt
	}
	return filepath.Join(s.dir, runsDirName, k.Fingerprint, k.name()+ext)
}

// encode renders a record as its on-disk bytes: a checksum header line
// over the exact payload bytes that follow it.
func encode(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("sweep: encode record: %w", err)
	}
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "sha256:%s\n", hex.EncodeToString(sum[:]))
	buf.Write(payload)
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// decode parses and checksum-verifies on-disk record bytes.
func decode(data []byte) (Record, error) {
	head, payload, ok := bytes.Cut(data, []byte("\n"))
	if !ok || !bytes.HasPrefix(head, []byte("sha256:")) {
		return Record{}, errors.New("sweep: record missing checksum header")
	}
	payload = bytes.TrimSuffix(payload, []byte("\n"))
	sum := sha256.Sum256(payload)
	if got := string(bytes.TrimPrefix(head, []byte("sha256:"))); got != hex.EncodeToString(sum[:]) {
		return Record{}, errors.New("sweep: record checksum mismatch")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("sweep: record payload: %w", err)
	}
	if rec.Schema != recordSchema {
		return Record{}, fmt.Errorf("sweep: record schema %d, want %d", rec.Schema, recordSchema)
	}
	return rec, nil
}

// writeAtomic lands data at path via a temp file in the store's staging
// directory (same filesystem, so the rename is atomic) with an fsync
// before the rename: after a crash the address holds either the old
// bytes, the new bytes, or nothing — never a torn record. Torn staging
// files are invisible to readers and collected by GC.
func (s *Store) writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Join(s.dir, tmpDirName), filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			if err = os.Rename(tmp, path); err == nil {
				return nil
			}
		}
	} else {
		f.Close()
	}
	os.Remove(tmp)
	return err
}

// Get returns the stored result for k, verifying the checksum and the
// run descriptor. Any defect — missing file, torn write, checksum or
// schema mismatch, aliased descriptor — reads as a miss, so the caller
// re-runs the simulation instead of trusting a corrupt record.
func (s *Store) Get(k Key, desc string) (manet.Result, bool) {
	data, err := os.ReadFile(s.recordPath(k, false))
	if err != nil {
		return manet.Result{}, false
	}
	rec, err := decode(data)
	if err != nil {
		return manet.Result{}, false
	}
	if rec.Fingerprint != k.Fingerprint || rec.RunKey != k.Run || rec.Rep != k.Rep ||
		rec.Desc != desc || rec.Failure != "" {
		return manet.Result{}, false
	}
	return rec.Result, true
}

// Put journals a completed run. A stale failure record for the same
// address is removed: the run has now succeeded.
func (s *Store) Put(k Key, desc string, attempts int, res manet.Result) error {
	data, err := encode(Record{
		Schema: recordSchema, Fingerprint: k.Fingerprint,
		RunKey: k.Run, Rep: k.Rep, Desc: desc, Attempts: attempts, Result: res,
	})
	if err != nil {
		return err
	}
	if err := s.writeAtomic(s.recordPath(k, false), data); err != nil {
		return fmt.Errorf("sweep: put record: %w", err)
	}
	os.Remove(s.recordPath(k, true))
	return nil
}

// PutFailure journals a run whose retry budget was exhausted. Failure
// records never satisfy Get — they exist so `sweepctl status` can report
// what failed and why, and a resumed sweep retries the run.
func (s *Store) PutFailure(k Key, desc string, attempts int, msg string) error {
	data, err := encode(Record{
		Schema: recordSchema, Fingerprint: k.Fingerprint,
		RunKey: k.Run, Rep: k.Rep, Desc: desc, Attempts: attempts, Failure: msg,
	})
	if err != nil {
		return err
	}
	if err := s.writeAtomic(s.recordPath(k, true), data); err != nil {
		return fmt.Errorf("sweep: put failure: %w", err)
	}
	return nil
}

// Count returns the number of completed (non-failure) records across all
// fingerprints. The resume gate uses it: a non-empty store must be an
// explicit opt-in.
func (s *Store) Count() (int, error) {
	n := 0
	err := s.Scan(func(info RecordInfo) error {
		if info.Err == nil && !info.Failed {
			n++
		}
		return nil
	})
	return n, err
}

// WriteCheckpoint flushes the advisory progress summary atomically.
func (s *Store) WriteCheckpoint(cp Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	return s.writeAtomic(filepath.Join(s.dir, checkpointLog), append(data, '\n'))
}

// ReadCheckpoint returns the last flushed checkpoint, if any. A missing
// checkpoint file reads as (zero, false, nil) — a store that never
// checkpointed is normal. A file that exists but fails to decode returns
// a non-nil error *and* ok == false: the checkpoint is advisory (the
// per-record journal is the source of truth for resume), so callers keep
// working, but they must surface the corruption as a warning instead of
// silently pretending no sweep ever ran.
func (s *Store) ReadCheckpoint() (Checkpoint, bool, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, checkpointLog))
	if errors.Is(err, os.ErrNotExist) {
		return Checkpoint{}, false, nil
	}
	if err != nil {
		return Checkpoint{}, false, fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return Checkpoint{}, false, fmt.Errorf("sweep: checkpoint corrupt (advisory only; records are intact): %w", err)
	}
	return cp, true, nil
}

// RecordInfo is one record surfaced by Scan: either a decoded record or
// the defect that prevented decoding it.
type RecordInfo struct {
	// Path is the record file's absolute path.
	Path string
	// Fingerprint is the fingerprint directory the record lives under.
	Fingerprint string
	// Failed marks an exhausted-retry failure record.
	Failed bool
	// Record is the decoded record when Err is nil.
	Record Record
	// Err is the decode/checksum defect, if any.
	Err error
}

// Scan visits every record in a deterministic order (fingerprints
// sorted, then addresses sorted) and reports corrupt records through
// RecordInfo.Err instead of aborting. The callback may return an error
// to stop the scan.
func (s *Store) Scan(fn func(RecordInfo) error) error {
	runsDir := filepath.Join(s.dir, runsDirName)
	fps, err := sortedNames(runsDir, true)
	if err != nil {
		return err
	}
	for _, fp := range fps {
		files, err := sortedNames(filepath.Join(runsDir, fp), false)
		if err != nil {
			return err
		}
		for _, name := range files {
			failed := strings.HasSuffix(name, failedExt)
			if !failed && !strings.HasSuffix(name, recordExt) {
				continue
			}
			info := RecordInfo{
				Path:        filepath.Join(runsDir, fp, name),
				Fingerprint: fp,
				Failed:      failed,
			}
			data, err := os.ReadFile(info.Path)
			if err != nil {
				info.Err = err
			} else if info.Record, err = decode(data); err != nil {
				info.Err = err
			} else if info.Record.Fingerprint != fp {
				info.Err = fmt.Errorf("sweep: record claims fingerprint %s but lives under %s",
					info.Record.Fingerprint, fp)
			}
			if err := fn(info); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedNames lists a directory's entries (directories only when dirs is
// set) in sorted order; a missing directory reads as empty.
func sortedNames(dir string, dirs bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() == dirs {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// GCStats summarizes what GC removed.
type GCStats struct {
	Tmp, Failed, Corrupt, Foreign int
}

// GC removes staging leftovers, failure records, and corrupt records.
// When keepFingerprint is non-empty, records under every other
// fingerprint are removed too (Foreign counts them). Valid records of
// the kept fingerprint are never touched.
func (s *Store) GC(keepFingerprint string) (GCStats, error) {
	var st GCStats
	tmps, err := sortedNames(filepath.Join(s.dir, tmpDirName), false)
	if err != nil {
		return st, err
	}
	for _, name := range tmps {
		if err := os.Remove(filepath.Join(s.dir, tmpDirName, name)); err != nil {
			return st, err
		}
		st.Tmp++
	}
	err = s.Scan(func(info RecordInfo) error {
		switch {
		case info.Failed:
			st.Failed++
		case info.Err != nil:
			st.Corrupt++
		case keepFingerprint != "" && info.Fingerprint != keepFingerprint:
			st.Foreign++
		default:
			return nil
		}
		return os.Remove(info.Path)
	})
	return st, err
}
