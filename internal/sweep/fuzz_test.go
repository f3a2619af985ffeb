package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the record decoder, once as they are
// and once as a payload under a checksum header that matches it, so the
// fuzzer reaches the JSON and schema checks behind the checksum. Each input
// must either fail to decode or give a record that encode round-trips:
// decoding encode(rec) gives rec back, and encoding that gives the same
// bytes. The decoder must never panic: a store read trusts nothing on disk.
//
// `go test` runs the seed corpus; `go test -fuzz=FuzzDecode` explores
// further.
func FuzzDecode(f *testing.F) {
	valid, err := encode(Record{
		Schema: recordSchema, Fingerprint: "00112233445566778899aabbccddeeff",
		RunKey: 7, Rep: 1, Desc: "RNG speed=40 rep=1", Attempts: 1, Result: sampleResult(1),
	})
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len("sha256:")] ^= 1 // one hex digit of the checksum
	wrongSchema, err := encode(Record{Schema: recordSchema + 1, Desc: "future"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	f.Add(flipped)
	f.Add(wrongSchema)
	_, payload, _ := bytes.Cut(valid, []byte("\n"))
	f.Add(payload)

	f.Fuzz(func(t *testing.T, data []byte) {
		sum := sha256.Sum256(bytes.TrimSuffix(data, []byte("\n")))
		checksummed := append([]byte("sha256:"+hex.EncodeToString(sum[:])+"\n"), data...)
		checkRoundTrip(t, data)
		checkRoundTrip(t, checksummed)
	})
}

// checkRoundTrip decodes data and, if that succeeds, checks that encode
// round-trips the record.
func checkRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	rec, err := decode(data)
	if err != nil {
		return
	}
	enc, err := encode(rec)
	if err != nil {
		t.Fatalf("decoded record does not encode: %v", err)
	}
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("encoded record does not decode: %v", err)
	}
	if again != rec {
		t.Fatalf("round trip changed the record:\n%+v\n%+v", rec, again)
	}
	if enc2, _ := encode(again); !bytes.Equal(enc2, enc) {
		t.Fatalf("re-encoding changed the bytes:\n%q\n%q", enc, enc2)
	}
}
