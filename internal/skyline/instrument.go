package skyline

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Metric names exported by this package (see docs/OBSERVABILITY.md).
const (
	MetricComputeTotal     = "skyline_compute_total"
	MetricComputeSeconds   = "skyline_compute_seconds"
	MetricMergeTotal       = "skyline_merge_total"
	MetricMergeCase0Total  = "skyline_merge_case0_total"
	MetricMergeCase1Total  = "skyline_merge_case1_total"
	MetricMergeCase2Total  = "skyline_merge_case2_total"
	MetricBreakpointsTotal = "skyline_merge_breakpoints_total"
	MetricMaxArcs          = "skyline_max_arcs"
	MetricMaxArcBound      = "skyline_max_arc_bound"
	MetricArcBoundRatio    = "skyline_arc_bound_ratio"
	MetricBoundViolations  = "skyline_arc_bound_violations_total"
	MetricRecursionDepth   = "skyline_recursion_depth"
	MetricArcsPerCompute   = "skyline_arcs_per_compute"
)

// skyMetrics holds pre-resolved metric handles so the instrumented hot
// paths never touch the registry's name map. All fields come from one
// registry; the struct is installed atomically by Instrument.
type skyMetrics struct {
	computes       *obs.Counter
	computeSeconds *obs.Timer
	merges         *obs.Counter
	// Merge span outcomes, by how many envelope crossings were cut into
	// the span: the paper's no-intersection / one-intersection /
	// two-intersection cases. Spans in which the same disk is active on
	// both sides trivially have no crossing and count as case 0.
	case0, case1, case2 *obs.Counter
	breakpoints         *obs.Counter
	// Lemma 8 accounting: maxArcs is the largest skyline (in arcs) any
	// Compute returned, maxArcBound the largest 2n bound among those
	// instances, boundRatio the largest per-instance arcs/(2n) ratio
	// (> 1 would falsify Lemma 8 at runtime), and violations counts
	// instances that exceeded their own bound outright.
	maxArcs     *obs.Gauge
	maxArcBound *obs.Gauge
	boundRatio  *obs.Gauge
	violations  *obs.Counter
	depth       *obs.Gauge
	arcs        *obs.Histogram
}

// skyInstr is the package's installed instrumentation; nil means disabled.
// Hot paths do one atomic load and a nil check — the zero-cost-off path.
var skyInstr atomic.Pointer[skyMetrics]

// Instrument installs metrics collection for this package into r; nil
// disables it.
func Instrument(r *obs.Registry) {
	if r == nil {
		skyInstr.Store(nil)
		return
	}
	skyInstr.Store(&skyMetrics{
		computes:       r.Counter(MetricComputeTotal),
		computeSeconds: r.Timer(MetricComputeSeconds),
		merges:         r.Counter(MetricMergeTotal),
		case0:          r.Counter(MetricMergeCase0Total),
		case1:          r.Counter(MetricMergeCase1Total),
		case2:          r.Counter(MetricMergeCase2Total),
		breakpoints:    r.Counter(MetricBreakpointsTotal),
		maxArcs:        r.Gauge(MetricMaxArcs),
		maxArcBound:    r.Gauge(MetricMaxArcBound),
		boundRatio:     r.Gauge(MetricArcBoundRatio),
		violations:     r.Counter(MetricBoundViolations),
		depth:          r.Gauge(MetricRecursionDepth),
		arcs:           r.Histogram(MetricArcsPerCompute),
	})
}

// recordCompute books one finished Compute: the arc count against the
// Lemma 8 bound 2n, and the arc-count distribution.
func (m *skyMetrics) recordCompute(arcs, n int) {
	bound := 2 * n
	m.maxArcs.SetMax(float64(arcs))
	m.maxArcBound.SetMax(float64(bound))
	m.boundRatio.SetMax(float64(arcs) / float64(bound))
	if arcs > bound {
		m.violations.Inc()
	}
	m.arcs.Observe(float64(arcs))
}
