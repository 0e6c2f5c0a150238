// Package bitset provides a dense fixed-capacity bitset used by the exact
// (branch-and-bound) forwarding-set solver, where coverage of 2-hop
// neighbors is tested with word-parallel operations.
package bitset

import "math/bits"

// Set is a bitset over [0, n). The zero value of the struct is unusable;
// construct with New.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty bitset with capacity n.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Add sets bit i. Out-of-range indices panic, as they indicate a logic
// error in the caller.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndNotWith sets s to s \ t. The sets must have the same capacity.
func (s *Set) AndNotWith(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// CountAndNot returns |s \ t| without modifying s.
func (s *Set) CountAndNot(t *Set) int {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w &^ t.words[i])
	}
	return c
}

// IsSubset reports whether s ⊆ t.
func (s *Set) IsSubset(t *Set) bool {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Fill sets every bit in [0, n).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := uint(s.n) & 63; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << rem) - 1
	}
}

// Members returns the set bits in increasing order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}
