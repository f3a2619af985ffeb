package radio

import "math/bits"

// IDSet orders a query's receiver ids without a sort: one bit per node id,
// ⌈n/64⌉ words. A receiver scan marks ids in whatever order its candidates
// arrive and reads them back ascending, in time linear in the word count
// plus the marks. A set is allocated once per scanner and is empty between
// scans: AppendSorted clears every word it reads.
type IDSet []uint64

// NewIDSet returns an empty set over ids 0..n-1.
func NewIDSet(n int) IDSet { return make(IDSet, (n+63)/64) }

// Add marks id, which must be below the n the set was made for.
func (s IDSet) Add(id int) { s[id>>6] |= 1 << (id & 63) }

// AppendSorted appends every marked id to dst in ascending order, clears
// the set and returns the extended slice.
//
//manet:noalloc
func (s IDSet) AppendSorted(dst []int) []int {
	for i, w := range s {
		if w == 0 {
			continue
		}
		s[i] = 0
		for base := i << 6; w != 0; w &= w - 1 {
			dst = append(dst, base+bits.TrailingZeros64(w))
		}
	}
	return dst
}
