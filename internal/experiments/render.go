package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// JSON renders the figure as an indented JSON document for machine
// consumption (plotting scripts, regression tracking).
func (f Figure) JSON() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

// Bars renders one series of the figure as a horizontal ASCII bar chart —
// the terminal-friendly form of the paper's distribution figures. width is
// the maximum bar length in characters (≤ 0 selects 50).
func (f Figure) Bars(label string, width int) (string, error) {
	if width <= 0 {
		width = 50
	}
	var s *Series
	for i := range f.Series {
		if f.Series[i].Label == label {
			s = &f.Series[i]
			break
		}
	}
	if s == nil {
		return "", fmt.Errorf("experiments: figure %s has no series %q", f.ID, label)
	}
	maxY := 0.0
	for _, y := range s.Y {
		if y > maxY {
			maxY = y
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, label)
	for i, x := range s.X {
		y := s.Y[i]
		bar := 0
		if maxY > 0 {
			bar = int(math.Round(y / maxY * float64(width)))
		}
		fmt.Fprintf(&b, "%8g | %-*s %g\n", x, width, strings.Repeat("█", bar), y)
	}
	return b.String(), nil
}
