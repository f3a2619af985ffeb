package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mstc/internal/manet"
)

// sampleResult exercises every field class the store must round-trip:
// strings, ints, and float64s whose decimal rendering needs the full
// shortest-round-trip treatment.
func sampleResult(i int) manet.Result {
	return manet.Result{
		Protocol:             "RNG",
		Connectivity:         0.1 + 0.2 + float64(i)/7, // deliberately non-terminating binary fractions
		Floods:               100 + i,
		AvgTxRange:           187.64528374650987 + float64(i),
		AvgLogicalDegree:     3.0000000000000004,
		AvgPhysicalDegree:    12.99999999999999,
		SnapshotConnectivity: 1.0 / 3.0,
		Snapshots:            i,
		HelloTx:              2048,
		DataTx:               4096,
		DataEnergy:           0.7071067811865476,
		HelloEnergy:          2048,
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPutGetRoundTrip pins the bit-exactness the golden determinism
// tests rely on: a result read back from disk must compare equal to the
// one stored, field for field, including every float bit.
func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	k := Key{Fingerprint: "fp01", Run: 0xDEADBEEFCAFE, Rep: 3}
	want := sampleResult(1)
	if err := s.Put(k, "RNG speed=40 rep=3", 1, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k, "RNG speed=40 rep=3")
	if !ok {
		t.Fatal("stored record not found")
	}
	if got != want {
		t.Errorf("round-trip changed the result:\n got %#v\nwant %#v", got, want)
	}
	// Wrong descriptor, rep, or fingerprint must all read as misses.
	if _, ok := s.Get(k, "MST speed=40 rep=3"); ok {
		t.Error("Get ignored a descriptor mismatch")
	}
	if _, ok := s.Get(Key{Fingerprint: "fp01", Run: k.Run, Rep: 4}, "RNG speed=40 rep=3"); ok {
		t.Error("Get returned a record for the wrong rep")
	}
	if _, ok := s.Get(Key{Fingerprint: "fp02", Run: k.Run, Rep: 3}, "RNG speed=40 rep=3"); ok {
		t.Error("Get returned a record for the wrong fingerprint")
	}
}

// TestCorruptRecordIsAMiss flips bytes in a stored record and asserts
// the store re-runs (miss) rather than trusts it, for several corruption
// shapes: payload bit-flip, checksum-line damage, truncation, garbage.
func TestCorruptRecordIsAMiss(t *testing.T) {
	k := Key{Fingerprint: "fp01", Run: 42, Rep: 0}
	const desc = "RNG speed=1 rep=0"
	corrupt := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"payload-flip", func(b []byte) []byte { b[len(b)-10] ^= 0x40; return b }},
		{"header-flip", func(b []byte) []byte { b[8] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"garbage", func(b []byte) []byte { return []byte("not a record") }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			if err := s.Put(k, desc, 1, sampleResult(0)); err != nil {
				t.Fatal(err)
			}
			path := s.recordPath(k, false)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(k, desc); ok {
				t.Error("corrupt record satisfied Get")
			}
			saw := 0
			if err := s.Scan(func(info RecordInfo) error {
				saw++
				if info.Err == nil {
					t.Error("Scan decoded a corrupt record without error")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if saw != 1 {
				t.Errorf("Scan visited %d records, want 1", saw)
			}
		})
	}
}

// TestFailureRecords pins that exhausted-retry failures are journaled
// for diagnosis but never satisfy Get, and that a later success replaces
// them.
func TestFailureRecords(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	k := Key{Fingerprint: "fp01", Run: 7, Rep: 1}
	const desc = "MST speed=20 rep=1"
	if err := s.PutFailure(k, desc, 3, "panic: boom"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k, desc); ok {
		t.Fatal("failure record satisfied Get")
	}
	if n, err := s.Count(); err != nil || n != 0 {
		t.Fatalf("Count = %d, %v; failures must not count as results", n, err)
	}
	if err := s.Put(k, desc, 4, sampleResult(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k, desc); !ok {
		t.Fatal("record stored after failure not found")
	}
	failed := 0
	if err := s.Scan(func(info RecordInfo) error {
		if info.Failed {
			failed++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Errorf("success did not remove the stale failure record (%d left)", failed)
	}
}

// TestMerge covers the three merge outcomes: fresh copy, identical
// duplicate, and the conflict abort for divergent duplicates.
func TestMerge(t *testing.T) {
	a := mustOpen(t, t.TempDir())
	b := mustOpen(t, t.TempDir())
	kShared := Key{Fingerprint: "fp01", Run: 1, Rep: 0}
	kOnlyA := Key{Fingerprint: "fp01", Run: 2, Rep: 0}
	kOnlyB := Key{Fingerprint: "fp02", Run: 3, Rep: 1}
	for _, put := range []struct {
		s *Store
		k Key
	}{{a, kShared}, {b, kShared}, {a, kOnlyA}, {b, kOnlyB}} {
		if err := put.s.Put(put.k, "desc", 1, sampleResult(int(put.k.Run))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.PutFailure(Key{Fingerprint: "fp01", Run: 9, Rep: 0}, "desc", 2, "panic"); err != nil {
		t.Fatal(err)
	}

	dst := mustOpen(t, t.TempDir())
	st, err := Merge(dst, a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 2 || st.Identical != 0 {
		t.Errorf("merge a: %+v, want 2 copied", st)
	}
	st, err = Merge(dst, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 1 || st.Identical != 1 || st.SkippedFailed != 1 {
		t.Errorf("merge b: %+v, want 1 copied, 1 identical, 1 failed skipped", st)
	}
	for _, k := range []Key{kShared, kOnlyA, kOnlyB} {
		if _, ok := dst.Get(k, "desc"); !ok {
			t.Errorf("merged store missing %+v", k)
		}
	}

	// A divergent duplicate for the same address is impossible for
	// deterministic runs, so the merge must abort instead of guessing.
	evil := mustOpen(t, t.TempDir())
	if err := evil.Put(kShared, "desc", 1, sampleResult(99)); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(dst, evil); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Errorf("divergent duplicate merged without conflict error; err = %v", err)
	}
}

// TestGC verifies tmp leftovers, failure records, corrupt records, and
// foreign fingerprints are collected while valid kept records survive.
func TestGC(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	keep := Key{Fingerprint: "fpkeep", Run: 1, Rep: 0}
	foreign := Key{Fingerprint: "fpold", Run: 2, Rep: 0}
	corrupt := Key{Fingerprint: "fpkeep", Run: 3, Rep: 0}
	if err := s.Put(keep, "keep", 1, sampleResult(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(foreign, "foreign", 1, sampleResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(corrupt, "corrupt", 1, sampleResult(2)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.recordPath(corrupt, false), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFailure(Key{Fingerprint: "fpkeep", Run: 4, Rep: 0}, "failed", 2, "panic"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), tmpDirName, "leftover.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := s.GC("fpkeep")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tmp != 1 || st.Failed != 1 || st.Corrupt != 1 || st.Foreign != 1 {
		t.Errorf("GC stats %+v, want 1 of each", st)
	}
	if _, ok := s.Get(keep, "keep"); !ok {
		t.Error("GC removed a valid kept record")
	}
	if n, err := s.Count(); err != nil || n != 1 {
		t.Errorf("Count after GC = %d, %v, want 1", n, err)
	}
}

// TestCheckpointRoundTrip covers the advisory progress summary.
func TestCheckpointRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if _, ok, err := s.ReadCheckpoint(); ok || err != nil {
		t.Fatalf("fresh store checkpoint = ok %v, err %v; want absent, nil", ok, err)
	}
	want := Checkpoint{Fingerprint: "fp01", Done: 12, Total: 40, Interrupted: true}
	if err := s.WriteCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.ReadCheckpoint()
	if !ok || err != nil || got != want {
		t.Errorf("checkpoint round-trip = %+v, %v, %v, want %+v", got, ok, err, want)
	}
}

// TestCheckpointCorruptionSurfaces writes a truncated checkpoint file and
// asserts ReadCheckpoint reports the decode defect instead of silently
// reading as "no checkpoint": the file is advisory, but an operator
// should see that it was damaged.
func TestCheckpointCorruptionSurfaces(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.WriteCheckpoint(Checkpoint{Fingerprint: "fp01", Done: 30, Total: 40}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointLog))
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-JSON: a torn write that the atomic rename normally
	// prevents, simulated directly.
	if err := os.WriteFile(filepath.Join(dir, checkpointLog), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cp, ok, err := s.ReadCheckpoint()
	if ok {
		t.Errorf("truncated checkpoint read as valid: %+v", cp)
	}
	if err == nil {
		t.Fatal("truncated checkpoint produced no error")
	}
	// Overwriting with a fresh checkpoint recovers the warning path.
	want := Checkpoint{Fingerprint: "fp01", Done: 40, Total: 40}
	if err := s.WriteCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.ReadCheckpoint(); !ok || err != nil || got != want {
		t.Errorf("checkpoint after rewrite = %+v, %v, %v, want %+v", got, ok, err, want)
	}
}

// TestOpenExisting: a missing path or a directory that holds no store is
// refused and left as it was; a store Open made opens and reads back.
func TestOpenExisting(t *testing.T) {
	root := t.TempDir()
	missing := filepath.Join(root, "typo")
	if _, err := OpenExisting(missing); err == nil {
		t.Error("a missing path opened as a store")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("OpenExisting left something at the missing path: %v", err)
	}
	if _, err := OpenExisting(root); err == nil {
		t.Error("a directory without a runs directory opened as a store")
	}
	k := Key{Fingerprint: "fp01", Run: 1, Rep: 0}
	if err := mustOpen(t, filepath.Join(root, "s")).Put(k, "d", 1, sampleResult(1)); err != nil {
		t.Fatal(err)
	}
	s, err := OpenExisting(filepath.Join(root, "s"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k, "d"); !ok {
		t.Error("the record Put through Open is missing through OpenExisting")
	}
}
