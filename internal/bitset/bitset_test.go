package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// has reports whether bit i is set; out-of-range indices are unset.
func (s *Set) has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("new set must be empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.has(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if s.has(1) || s.has(128) {
		t.Error("unset bits reported as set")
	}
	if got := s.Members(); len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Errorf("Members = %v", got)
	}
}

func TestOutOfRange(t *testing.T) {
	s := New(10)
	mustPanic(t, func() { s.Add(10) })
	mustPanic(t, func() { s.Add(-1) })
}

func TestCapacityMismatchPanics(t *testing.T) {
	a, b := New(10), New(20)
	mustPanic(t, func() { a.AndNotWith(b) })
	mustPanic(t, func() { a.CountAndNot(b) })
	mustPanic(t, func() { a.IsSubset(b) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestFillClear(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Errorf("Fill(%d): Count = %d", n, s.Count())
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := New(100), New(100)
	for _, i := range []int{1, 5, 70} {
		a.Add(i)
	}
	for _, i := range []int{5, 70, 99} {
		b.Add(i)
	}
	u := a.Clone()
	for _, i := range b.Members() {
		u.Add(i)
	}
	if u.Count() != 4 {
		t.Errorf("union count = %d, want 4", u.Count())
	}
	d := a.Clone()
	d.AndNotWith(b)
	if d.Count() != 1 || !d.has(1) {
		t.Errorf("difference = %v", d.Members())
	}
	if got := a.CountAndNot(b); got != 1 {
		t.Errorf("CountAndNot = %d, want 1", got)
	}
	if !a.IsSubset(u) || !b.IsSubset(u) {
		t.Error("operands must be subsets of their union")
	}
	if a.IsSubset(b) {
		t.Error("a is not a subset of b")
	}
	if c := a.Clone(); !a.IsSubset(c) || !c.IsSubset(a) {
		t.Error("clone must equal original")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Add(3)
	c := a.Clone()
	c.Add(7)
	if a.has(7) {
		t.Error("mutating a clone must not affect the original")
	}
}

// Property: a bitset agrees with a reference map-based set under a random
// operation sequence.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		const n = 150
		s := New(n)
		ref := make(map[int]bool)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range opsRaw {
			i := rng.Intn(n)
			switch op % 2 {
			case 0:
				s.Add(i)
				ref[i] = true
			case 1:
				if s.has(i) != ref[i] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, m := range s.Members() {
			if !ref[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: |a \ b| + |a ∩ b| == |a| (via CountAndNot and set ops).
func TestQuickCountIdentity(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		const n = 200
		a, b := New(n), New(n)
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		for i := 0; i < 80; i++ {
			a.Add(ra.Intn(n))
			b.Add(rb.Intn(n))
		}
		inter := a.Clone()
		inter.AndNotWith(b) // a \ b
		return a.CountAndNot(b)+a.Count()-inter.Count() == a.Count() &&
			a.CountAndNot(b) == inter.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
