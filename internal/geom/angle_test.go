package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{TwoPi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{3 * TwoPi, 0},
		{TwoPi + 1, 1},
		{-TwoPi - 1, TwoPi - 1},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !almostEq(got, c.want, 1e-9) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeAngleRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		got := NormalizeAngle(x)
		return got >= 0 && got < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleEq(t *testing.T) {
	if !AngleEq(0, TwoPi) {
		t.Error("0 and 2π should be equal angles")
	}
	if !AngleEq(1, 1+AngleEps/2) {
		t.Error("angles within AngleEps should be equal")
	}
	if AngleEq(1, 1.001) {
		t.Error("angles 1e-3 apart should differ")
	}
	if !AngleEq(-math.Pi, math.Pi) {
		t.Error("-π and π should be equal angles")
	}
}

func TestAngleSpans(t *testing.T) {
	if !AngleInSpan(1.0, 0.5, 1.5) {
		t.Error("1.0 should be in [0.5, 1.5]")
	}
	if !AngleInSpan(0.5, 0.5, 1.5) {
		t.Error("endpoints are in the closed span")
	}
	if AngleStrictlyInSpan(0.5, 0.5, 1.5) {
		t.Error("endpoints are not strictly inside")
	}
	if !AngleStrictlyInSpan(1.0, 0.5, 1.5) {
		t.Error("1.0 should be strictly inside (0.5, 1.5)")
	}
	if AngleInSpan(2.0, 0.5, 1.5) {
		t.Error("2.0 is outside [0.5, 1.5]")
	}
}

func TestCCWDelta(t *testing.T) {
	if got := CCWDelta(0, math.Pi); !almostEq(got, math.Pi, 1e-12) {
		t.Errorf("CCWDelta(0, π) = %v", got)
	}
	if got := CCWDelta(3*math.Pi/2, math.Pi/2); !almostEq(got, math.Pi, 1e-12) {
		t.Errorf("CCWDelta(3π/2, π/2) = %v, want π (wraps through 0)", got)
	}
	if got := CCWDelta(1, 1); got != 0 {
		t.Errorf("CCWDelta(1, 1) = %v, want 0", got)
	}
}

// radians converts degrees to radians: the inverse Degrees is checked
// against.
func radians(deg float64) float64 { return deg * math.Pi / 180 }

func TestDegreesRadians(t *testing.T) {
	if got := Degrees(math.Pi); !almostEq(got, 180, 1e-9) {
		t.Errorf("Degrees(π) = %v", got)
	}
	if got := radians(90); !almostEq(got, math.Pi/2, 1e-12) {
		t.Errorf("radians(90) = %v", got)
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 1e6)
		return almostEq(Degrees(radians(x)), x, 1e-6*(1+math.Abs(x)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
