// Package stats provides the summary statistics, histograms, and plain-text
// table rendering used by the experiment harness to report the paper's
// figures: average forwarding-set sizes (Figures 5.1 and 5.4) and
// forwarding-set size distributions (Figures 5.2, 5.3, and 5.5).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates streaming moments with Welford's algorithm.
type Summary struct {
	n          int
	mean, m2   float64
	min, max   float64
	everyValue bool // whether min/max are initialized
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.everyValue || x < s.min {
		s.min = x
	}
	if !s.everyValue || x > s.max {
		s.max = x
	}
	s.everyValue = true
}

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// String implements fmt.Stringer.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Histogram counts integer-valued observations, as in the paper's
// distribution figures where the x-axis is the forwarding-set size and the
// y-axis the number of random point sets.
type Histogram struct {
	counts map[int]int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add counts one observation of value v.
func (h *Histogram) Add(v int) {
	h.counts[v]++
}

// Count returns the number of observations with value v.
func (h *Histogram) Count(v int) int { return h.counts[v] }

// Quantile returns the q-th sample quantile (0 ≤ q ≤ 1) of the data using
// linear interpolation between order statistics (type-7, the R/NumPy
// default). It sorts a copy; the input is not modified. NaN for empty
// input or q outside [0, 1].
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Table renders rows of columns into an aligned plain-text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row. Cells beyond the header width are dropped; missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting; callers use
// numeric and simple-label cells only).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		cells := make([]string, len(t.header))
		copy(cells, row)
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
