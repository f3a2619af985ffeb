package stats

import (
	"math"
	"testing"

	"mstc/internal/xrand"
)

// Property tests for Welford.Merge over randomized data, partitions, and
// fold orders. Merge cannot be exactly associative or commutative in
// float64 (rounding depends on fold order), so the properties are stated
// against a relative tolerance; N, which is integer arithmetic, must be
// exact. Randomness comes from xrand with fixed seeds, so every failure
// is reproducible.

// relClose reports whether a and b agree to within rel relative error
// (absolute near zero).
func relClose(a, b, rel float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= rel*scale
}

// checkClose asserts the three exposed statistics of got match want.
func checkClose(t *testing.T, label string, got, want Welford, rel float64) {
	t.Helper()
	if got.N() != want.N() {
		t.Errorf("%s: N = %d, want %d", label, got.N(), want.N())
	}
	if !relClose(got.Mean(), want.Mean(), rel) {
		t.Errorf("%s: Mean = %g, want %g", label, got.Mean(), want.Mean())
	}
	if !relClose(got.Variance(), want.Variance(), rel) {
		t.Errorf("%s: Variance = %g, want %g", label, got.Variance(), want.Variance())
	}
}

// randomData draws a dataset whose scale stresses the accumulator: a large
// common offset with a comparatively small spread, the exact shape Welford
// exists to handle.
func randomData(rng *xrand.Source, n int) []float64 {
	offset := rng.Uniform(-1e6, 1e6)
	spread := math.Exp(rng.Uniform(-3, 3))
	data := make([]float64, n)
	for i := range data {
		data[i] = offset + spread*rng.NormFloat64()
	}
	return data
}

// partition splits data into parts non-empty-or-empty slices at random cut
// points; every element lands in exactly one part.
func partition(rng *xrand.Source, data []float64, parts int) [][]float64 {
	out := make([][]float64, parts)
	for _, x := range data {
		p := rng.Intn(parts)
		out[p] = append(out[p], x)
	}
	return out
}

func accumulate(xs []float64) Welford {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w
}

// TestWelfordMergePartitionProperty: for random datasets split into random
// partitions, folding the per-part accumulators in a random order agrees
// with sequentially Add-ing the whole dataset — the property the sweep
// tooling relies on when it folds per-record singletons into a summary.
func TestWelfordMergePartitionProperty(t *testing.T) {
	rng := xrand.New(20260805)
	for trial := 0; trial < 200; trial++ {
		tr := rng.Sub(uint64(trial))
		n := 2 + tr.Intn(400)
		data := randomData(tr, n)
		whole := accumulate(data)

		parts := 1 + tr.Intn(12)
		shards := partition(tr, data, parts)
		accs := make([]Welford, parts)
		for i, s := range shards {
			accs[i] = accumulate(s)
		}

		// Fold the partials in a random order.
		var merged Welford
		for _, i := range tr.Perm(parts) {
			merged.Merge(accs[i])
		}
		checkClose(t, "random-order fold", merged, whole, 1e-9)

		// Balanced pairwise tree, the shape a parallel reduction uses.
		tree := append([]Welford(nil), accs...)
		for len(tree) > 1 {
			var next []Welford
			for i := 0; i < len(tree); i += 2 {
				w := tree[i]
				if i+1 < len(tree) {
					w.Merge(tree[i+1])
				}
				next = append(next, w)
			}
			tree = next
		}
		checkClose(t, "pairwise tree fold", tree[0], whole, 1e-9)
	}
}

// TestWelfordMergeCommutative: a⊕b and b⊕a agree (N exactly, moments to
// tolerance) for random operand pairs, including empty operands where the
// agreement is exact by the identity contract.
func TestWelfordMergeCommutative(t *testing.T) {
	rng := xrand.New(7041776)
	for trial := 0; trial < 200; trial++ {
		tr := rng.Sub(uint64(trial))
		a := accumulate(randomData(tr, tr.Intn(50)))
		b := accumulate(randomData(tr, tr.Intn(50)))
		ab, ba := a, b
		ab.Merge(b)
		ba.Merge(a)
		checkClose(t, "commutativity", ab, ba, 1e-12)
	}
}

// TestWelfordMergeAssociative: (a⊕b)⊕c agrees with a⊕(b⊕c) to tolerance
// for random operand triples, so shard summaries can be folded in
// whatever order merge processes complete.
func TestWelfordMergeAssociative(t *testing.T) {
	rng := xrand.New(1789)
	for trial := 0; trial < 200; trial++ {
		tr := rng.Sub(uint64(trial))
		a := accumulate(randomData(tr, tr.Intn(40)))
		b := accumulate(randomData(tr, tr.Intn(40)))
		c := accumulate(randomData(tr, tr.Intn(40)))

		left := a
		left.Merge(b)
		left.Merge(c)

		bc := b
		bc.Merge(c)
		right := a
		right.Merge(bc)

		checkClose(t, "associativity", left, right, 1e-10)
	}
}

// TestWelfordMergeIdentity: the empty accumulator is a two-sided identity,
// and bit-exactly so — merging with it must not perturb a single bit,
// because shards may legitimately contribute zero observations.
func TestWelfordMergeIdentity(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 50; trial++ {
		tr := rng.Sub(uint64(trial))
		w := accumulate(randomData(tr, 1+tr.Intn(30)))
		var empty Welford

		left := empty
		left.Merge(w)
		right := w
		right.Merge(empty)
		if left != w || right != w {
			t.Fatalf("empty is not a bit-exact identity: %v / %v, want %v", left, right, w)
		}
	}
}
