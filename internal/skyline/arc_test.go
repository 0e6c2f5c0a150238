package skyline

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestValidateAcceptsSingle(t *testing.T) {
	if err := single(0).Validate(1); err != nil {
		t.Errorf("single-arc skyline should validate: %v", err)
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	var s Skyline
	if err := s.Validate(0); err == nil {
		t.Error("empty skyline must not validate")
	}
}

func TestValidateRejectsGap(t *testing.T) {
	s := Skyline{
		{Start: 0, End: 1, Disk: 0},
		{Start: 2, End: geom.TwoPi, Disk: 1},
	}
	if err := s.Validate(2); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("gapped skyline must fail with a gap error, got %v", err)
	}
}

func TestValidateRejectsBadBounds(t *testing.T) {
	s := Skyline{{Start: 0.5, End: geom.TwoPi, Disk: 0}}
	if err := s.Validate(1); err == nil {
		t.Error("skyline not starting at 0 must fail")
	}
	s = Skyline{{Start: 0, End: 3, Disk: 0}}
	if err := s.Validate(1); err == nil {
		t.Error("skyline not ending at 2π must fail")
	}
}

func TestValidateRejectsBadDiskIndex(t *testing.T) {
	s := Skyline{{Start: 0, End: geom.TwoPi, Disk: 5}}
	if err := s.Validate(1); err == nil {
		t.Error("out-of-range disk index must fail")
	}
}

func TestValidateRejectsNonPositiveSpan(t *testing.T) {
	s := Skyline{
		{Start: 0, End: 1, Disk: 0},
		{Start: 1, End: 1, Disk: 1},
		{Start: 1, End: geom.TwoPi, Disk: 0},
	}
	if err := s.Validate(2); err == nil {
		t.Error("zero-span arc must fail")
	}
}

func TestAtAndDiskAt(t *testing.T) {
	s := Skyline{
		{Start: 0, End: math.Pi, Disk: 3},
		{Start: math.Pi, End: geom.TwoPi, Disk: 7},
	}
	if got := s.diskAt(1); got != 3 {
		t.Errorf("diskAt(1) = %d, want 3", got)
	}
	if got := s.diskAt(4); got != 7 {
		t.Errorf("diskAt(4) = %d, want 7", got)
	}
	// Angles are normalized first.
	if got := s.diskAt(-1); got != 7 {
		t.Errorf("diskAt(-1) = %d, want 7 (normalizes to 2π−1)", got)
	}
	if got := s.diskAt(geom.TwoPi + 1); got != 3 {
		t.Errorf("diskAt(2π+1) = %d, want 3", got)
	}
}

func TestSet(t *testing.T) {
	s := Skyline{
		{Start: 0, End: 1, Disk: 4},
		{Start: 1, End: 2, Disk: 1},
		{Start: 2, End: 3, Disk: 4},
		{Start: 3, End: geom.TwoPi, Disk: 2},
	}
	sameSet(t, s.Set(), []int{1, 2, 4}, "Set")
}

func TestArcCountWrap(t *testing.T) {
	// First and last arcs from the same disk: one geometric arc.
	s := Skyline{
		{Start: 0, End: 1, Disk: 0},
		{Start: 1, End: 4, Disk: 1},
		{Start: 4, End: geom.TwoPi, Disk: 0},
	}
	if got := s.ArcCount(); got != 2 {
		t.Errorf("ArcCount = %d, want 2 (wrap-around arc counted once)", got)
	}
	s[2].Disk = 2
	if got := s.ArcCount(); got != 3 {
		t.Errorf("ArcCount = %d, want 3", got)
	}
	if got := single(0).ArcCount(); got != 1 {
		t.Errorf("ArcCount(single) = %d, want 1", got)
	}
}

func TestCombineMergesNeighbors(t *testing.T) {
	s := Skyline{
		{Start: 0, End: 1, Disk: 0},
		{Start: 1, End: 2, Disk: 0},
		{Start: 2, End: 3, Disk: 1},
		{Start: 3, End: geom.TwoPi, Disk: 1},
	}
	got := s.combine()
	if len(got) != 2 || got[0].Disk != 0 || got[1].Disk != 1 {
		t.Fatalf("Combine = %v", got)
	}
	if got[0].Start != 0 || !geom.AngleEq(got[0].End, 2) || !geom.AngleEq(got[1].End, geom.TwoPi) {
		t.Errorf("Combine angles wrong: %v", got)
	}
}

func TestCombineDropsSlivers(t *testing.T) {
	s := Skyline{
		{Start: 0, End: 2, Disk: 0},
		{Start: 2, End: 2 + geom.AngleEps/2, Disk: 1},
		{Start: 2 + geom.AngleEps/2, End: geom.TwoPi, Disk: 0},
	}
	got := s.combine()
	if len(got) != 1 || got[0].Disk != 0 {
		t.Fatalf("Combine should absorb the sliver: %v", got)
	}
	if err := got.Validate(2); err != nil {
		t.Errorf("combined skyline invalid: %v", err)
	}
}

func TestCombineDoesNotModifyReceiver(t *testing.T) {
	s := Skyline{
		{Start: 0, End: 1, Disk: 0},
		{Start: 1, End: geom.TwoPi, Disk: 0},
	}
	_ = s.combine()
	if s[0].End != 1 {
		t.Error("Combine must not modify its receiver")
	}
}

func TestArcSpanAndString(t *testing.T) {
	a := Arc{Start: 0, End: math.Pi, Disk: 2}
	if a.Span() != math.Pi {
		t.Errorf("Span = %v", a.Span())
	}
	if !strings.Contains(a.String(), "d2") {
		t.Errorf("String = %q", a.String())
	}
}
