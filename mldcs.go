// Package mldcs is the public API of this repository: a Go implementation
// of "Minimum Local Disk Cover Sets for Broadcasting in Heterogeneous
// Wireless Ad Hoc Networks" (ICPP 2007).
//
// The package exposes four layers:
//
//   - Geometry and the skyline algorithm: ComputeSkyline computes the
//     boundary of the union of disks that share a hub point in
//     O(n log n), via the paper's divide-and-conquer Merge.
//   - The MLDCS problem: CoverSet and ForwardingSet solve the minimum
//     local disk cover set problem of §3.2 (Theorem 3: the cover equals
//     the skyline set).
//   - Networks: BuildNetwork constructs heterogeneous disk graphs, and
//     SelectorByName provides every forwarding-set algorithm from the
//     paper's evaluation (flooding, skyline, greedy, optimal, calinescu)
//     plus the future-work repair extension. Broadcast simulates
//     network-wide dissemination.
//   - Experiments: RunExperiment regenerates any of the paper's figures.
//
// See the examples directory for runnable walk-throughs, docs/DESIGN.md for
// the system inventory, and EXPERIMENTS.md for paper-versus-measured
// results.
package mldcs

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/broadcast"
	"repro/internal/cds"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/forwarding"
	"repro/internal/geom"
	imldcs "repro/internal/mldcs"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/skyline"
	"repro/internal/viz"
)

// Observability types. The registry is a named collection of atomic
// counters, gauges, timers, and fixed-bucket histograms; the event sink
// writes a structured JSONL trace. See docs/OBSERVABILITY.md for the
// exported metric names and a worked example.
type (
	// MetricsRegistry collects the engine's runtime metrics.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time, deterministic export of a
	// registry (JSON-serializable).
	MetricsSnapshot = obs.Snapshot
	// EventSink writes structured events as JSON Lines.
	EventSink = obs.EventSink
	// ExperimentObs is the per-experiment observability summary embedded
	// in instrumented figures.
	ExperimentObs = experiments.RunObs
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventSink returns an event sink writing JSONL to w. Call Flush before
// closing the underlying writer.
func NewEventSink(w io.Writer) *EventSink { return obs.NewEventSink(w) }

// Instrument threads the observability layer through the skyline engine,
// the broadcast simulator, and the experiment harness: per-Compute merge
// statistics and Lemma 8 arc-bound accounting, per-round broadcast
// counters and trace events, and per-experiment wall time with embedded
// metric snapshots. Either argument may be nil; Instrument(nil, nil)
// disables instrumentation, restoring the zero-cost fast path. The hook is
// process-wide and not intended to be toggled concurrently with running
// computations (installs are atomic, so readers never observe a torn
// state — but metrics from in-flight operations may be split across
// registries).
func Instrument(reg *MetricsRegistry, events *EventSink) {
	skyline.Instrument(reg)
	broadcast.Instrument(reg, events)
	experiments.Instrument(reg, events)
	engine.Instrument(reg, events)
}

// Whole-network engine types. The engine computes every node's forwarding
// set in one batched pass — spatial-grid neighbor discovery, a worker pool
// sharded over grid cells, and an incremental recompute path for mobility
// deltas. Its output is element-identical to running ForwardingSet per
// node; see docs/TESTING.md for the harness that proves it.
type (
	// Engine is the batched whole-network MLDCS engine.
	Engine = engine.Engine
	// EngineConfig parameterizes an Engine (workers, kinetic repair).
	EngineConfig = engine.Config
	// EngineResult is a per-node snapshot of forwarding sets, hub-cover
	// flags, neighborhoods, and pass statistics.
	EngineResult = engine.Result
	// EngineStats summarizes one engine pass.
	EngineStats = engine.Stats
)

// NewEngine returns a whole-network MLDCS engine. Compute solves the full
// network; Update takes the whole node slice after nodes moved, diffs it
// against the engine's state, and recomputes only the dirtied
// neighborhoods.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// Geometry types.
type (
	// Point is a point in the plane.
	Point = geom.Point
	// Disk is a closed disk: a center and a radius. A node's coverage.
	Disk = geom.Disk
	// Arc is one skyline arc: the paper's (α_i, u_j, r_j, α_{i+1}) tuple
	// with the disk referenced by index.
	Arc = skyline.Arc
	// Skyline is the boundary of a local disk set's union: contiguous
	// arcs tiling [0, 2π) around the hub.
	Skyline = skyline.Skyline
	// LocalSet is an MLDCS problem instance: the hub's disk plus its
	// 1-hop neighbors' disks.
	LocalSet = imldcs.LocalSet
)

// Network types.
type (
	// Node is a wireless node with a position and transmission radius.
	Node = network.Node
	// Graph is a disk graph over a node set.
	Graph = network.Graph
	// LinkModel selects bidirectional (the paper's) or unidirectional
	// (physical reception) links.
	LinkModel = network.LinkModel
	// Selector is a forwarding-set algorithm.
	Selector = forwarding.Selector
	// BroadcastResult summarizes a simulated broadcast.
	BroadcastResult = broadcast.Result
)

// Link models.
const (
	// Bidirectional links require mutual reachability (the paper's model).
	Bidirectional = network.Bidirectional
	// Unidirectional links are one-way reception edges.
	Unidirectional = network.Unidirectional
)

// Experiment types.
type (
	// ExperimentConfig controls replications, seeding, parallelism, and
	// the degree axis of an experiment.
	ExperimentConfig = experiments.Config
	// Figure is a reproduced paper figure: labeled series plus notes.
	Figure = experiments.Figure
	// DeployConfig describes a random deployment (region, density,
	// radius model).
	DeployConfig = deploy.Config
)

// Pt returns the point (x, y).
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewDisk returns the disk with center (x, y) and radius r.
func NewDisk(x, y, r float64) Disk { return geom.NewDisk(x, y, r) }

// ComputeSkyline computes the skyline — the boundary of the union — of
// disks that all contain the hub point, using the paper's O(n log n)
// divide-and-conquer algorithm. Arc angles are measured at the hub;
// Arc.Disk indexes into the input slice.
func ComputeSkyline(hub Point, disks []Disk) (Skyline, error) {
	translated := make([]Disk, len(disks))
	for i, d := range disks {
		translated[i] = d.Translate(hub)
	}
	return skyline.Compute(translated)
}

// SkylineSet returns the indices of the disks contributing arcs to the
// skyline around hub — by Theorem 3, the minimum subset of disks whose
// union equals the union of all of them.
func SkylineSet(hub Point, disks []Disk) ([]int, error) {
	sl, err := ComputeSkyline(hub, disks)
	if err != nil {
		return nil, err
	}
	return sl.Set(), nil
}

// UnionArea returns the exact area of the union of disks that all contain
// hub, computed in closed form from the skyline (one triangle plus one
// circular segment per arc) — no sampling.
func UnionArea(hub Point, disks []Disk) (float64, error) {
	translated := make([]Disk, len(disks))
	for i, d := range disks {
		translated[i] = d.Translate(hub)
	}
	sl, err := skyline.Compute(translated)
	if err != nil {
		return 0, err
	}
	return sl.Area(translated), nil
}

// CoverSet solves the MLDCS problem for a hub disk and its neighbors'
// disks: the returned indices select the minimum local disk cover set from
// the combined list where 0 is the hub and i ≥ 1 is neighbors[i−1].
func CoverSet(hub Disk, neighbors []Disk) ([]int, error) {
	r, err := imldcs.Solve(imldcs.LocalSet{Hub: hub, Neighbors: neighbors})
	if err != nil {
		return nil, err
	}
	return r.Cover, nil
}

// ForwardingSet returns the paper's forwarding set for a node: the
// neighbors (as indices into neighbors) whose disks contribute arcs to the
// skyline of the local disk set. The hub's own arcs are covered by its
// original transmission and are excluded.
func ForwardingSet(hub Disk, neighbors []Disk) ([]int, error) {
	r, err := imldcs.Solve(imldcs.LocalSet{Hub: hub, Neighbors: neighbors})
	if err != nil {
		return nil, err
	}
	return r.NeighborCover(), nil
}

// BuildNetwork constructs a disk graph over the nodes (IDs must equal
// slice positions) under the given link model.
func BuildNetwork(nodes []Node, model LinkModel) (*Graph, error) {
	return network.Build(nodes, model)
}

// SelectorByName returns a forwarding-set algorithm by name: "flooding",
// "skyline", "greedy", "optimal", "calinescu", or "repair".
func SelectorByName(name string) (Selector, error) {
	return forwarding.ByName(name)
}

// SelectForwarders runs a selector for node u of g.
func SelectForwarders(g *Graph, u int, sel Selector) ([]int, error) {
	return sel.Select(g, u)
}

// TwoHopCoverage returns the fraction of u's 2-hop neighbors adjacent to
// at least one member of the forwarding set (1 when u has none). A value
// below 1 for the skyline selector is the paper's §5.2 drawback.
func TwoHopCoverage(g *Graph, u int, set []int) float64 {
	return forwarding.CoverageRatio(g, u, set)
}

// UncoveredTwoHop returns u's 2-hop neighbors that no member of the
// forwarding set can reach, sorted.
func UncoveredTwoHop(g *Graph, u int, set []int) []int {
	return forwarding.Uncovered(g, u, set)
}

// Broadcast simulates a network-wide broadcast from source. A nil selector
// means blind flooding; otherwise relaying follows multipoint-relay
// semantics with the selector's forwarding sets.
func Broadcast(g *Graph, source int, sel Selector) (BroadcastResult, error) {
	return broadcast.Run(g, source, sel)
}

// ConnectedDominatingSet builds a broadcast backbone over g with the
// requested method: "wuli" (the Wu–Li marking process with pruning Rules
// 1 and 2) or "mis" (layered maximal-independent-set dominators connected
// through shared neighbors, rooted at node root; root is ignored by
// "wuli"). BroadcastBackbone relays only through the returned set.
func ConnectedDominatingSet(g *Graph, method string, root int) ([]int, error) {
	switch method {
	case "wuli":
		return cds.WuLi(g), nil
	case "mis":
		return cds.MISConnect(g, root)
	default:
		return nil, fmt.Errorf("mldcs: unknown CDS method %q (want wuli or mis)", method)
	}
}

// BroadcastBackbone simulates a broadcast in which only backbone members
// relay (see ConnectedDominatingSet).
func BroadcastBackbone(g *Graph, source int, backbone []int) (BroadcastResult, error) {
	return broadcast.RunWithBackbone(g, source, backbone)
}

// Route is the outcome of an on-demand route discovery.
type Route = routing.Route

// DiscoverRoute floods a route request from source under the given
// relaying policy (nil = blind flooding) and returns the route to dest
// extracted from the reverse-path tree, together with the discovery cost
// in transmissions. This is the paper's motivating use of broadcasting
// ("find routing paths").
func DiscoverRoute(g *Graph, source, dest int, policy Selector) (Route, error) {
	return routing.Discover(g, source, dest, policy)
}

// PaperDeployment generates one of the paper's random point sets:
// model is "homogeneous" (r = 1) or "heterogeneous" (r ∈ U[1, 2]), over a
// 12.5 × 12.5 square with the source node (ID 0) at the center, with node
// density calibrated to the requested mean 1-hop degree.
func PaperDeployment(model string, meanDegree float64, rng *rand.Rand) ([]Node, error) {
	var m deploy.RadiusModel
	switch model {
	case "homogeneous":
		m = deploy.Homogeneous
	case "heterogeneous":
		m = deploy.Heterogeneous
	default:
		return nil, fmt.Errorf("mldcs: unknown deployment model %q", model)
	}
	return deploy.Generate(deploy.PaperConfig(m, meanDegree), rng)
}

// WriteDeployment archives a deployment in the plain-text trace format
// ("id x y radius" per line) so it can be replayed or fed from external
// tools; ReadDeployment parses it back.
func WriteDeployment(w io.Writer, nodes []Node) error {
	return deploy.WriteNodes(w, nodes)
}

// ReadDeployment parses a deployment trace written by WriteDeployment.
func ReadDeployment(r io.Reader) ([]Node, error) {
	return deploy.ReadNodes(r)
}

// DefaultExperimentConfig returns the paper's experiment configuration:
// 200 replications per data point, mean degrees 4..24.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// RunExperiment regenerates one of the paper's figures (or an extension
// experiment). Valid IDs: "fig5.1", "fig5.2", "fig5.3", "fig5.4",
// "fig5.5", "fig5.6", "scaling", "engine-scaling", "storm-homogeneous",
// "storm-heterogeneous", "mobility", "collision-homogeneous",
// "collision-heterogeneous", "protocols-homogeneous",
// "protocols-heterogeneous", "energy-homogeneous",
// "energy-heterogeneous".
func RunExperiment(id string, cfg ExperimentConfig) (Figure, error) {
	return experiments.Observe(id, func() (Figure, error) {
		return runExperiment(id, cfg)
	})
}

func runExperiment(id string, cfg ExperimentConfig) (Figure, error) {
	switch id {
	case "fig5.1":
		return experiments.Fig51(cfg)
	case "fig5.2":
		return experiments.Fig52(cfg)
	case "fig5.3":
		return experiments.Fig53(cfg)
	case "fig5.4":
		return experiments.Fig54(cfg)
	case "fig5.5":
		return experiments.Fig55(cfg)
	case "fig5.6", "repair":
		return experiments.Fig56(cfg)
	case "scaling":
		return experiments.Scaling(cfg, nil)
	case "engine-scaling":
		return experiments.EngineScaling(cfg, nil)
	case "storm-homogeneous":
		return experiments.Storm(cfg, deploy.Homogeneous)
	case "storm-heterogeneous":
		return experiments.Storm(cfg, deploy.Heterogeneous)
	case "mobility":
		return experiments.Mobility(cfg, nil)
	case "collision-homogeneous":
		return experiments.Collision(cfg, deploy.Homogeneous)
	case "collision-heterogeneous":
		return experiments.Collision(cfg, deploy.Heterogeneous)
	case "protocols-homogeneous":
		return experiments.Protocols(cfg, deploy.Homogeneous)
	case "protocols-heterogeneous":
		return experiments.Protocols(cfg, deploy.Heterogeneous)
	case "energy-homogeneous":
		return experiments.Energy(cfg, deploy.Homogeneous)
	case "energy-heterogeneous":
		return experiments.Energy(cfg, deploy.Heterogeneous)
	case "overhead-homogeneous":
		return experiments.Overhead(cfg, deploy.Homogeneous)
	case "overhead-heterogeneous":
		return experiments.Overhead(cfg, deploy.Heterogeneous)
	case "allnodes-homogeneous":
		return experiments.AllNodes(cfg, deploy.Homogeneous)
	case "allnodes-heterogeneous":
		return experiments.AllNodes(cfg, deploy.Heterogeneous)
	case "lossy-homogeneous":
		return experiments.Lossy(cfg, deploy.Homogeneous, nil)
	case "lossy-heterogeneous":
		return experiments.Lossy(cfg, deploy.Heterogeneous, nil)
	default:
		return Figure{}, fmt.Errorf("mldcs: unknown experiment %q (see ExperimentIDs)", id)
	}
}

// RunScenario parses a JSON scenario document (see experiments.Scenario
// for the schema) and executes its experiment suite in order, returning
// the figures.
func RunScenario(data []byte) ([]Figure, error) {
	known := make(map[string]bool)
	for _, id := range ExperimentIDs() {
		known[id] = true
	}
	known["repair"] = true // alias of fig5.6
	sc, err := experiments.ParseScenario(data, func(id string) bool { return known[id] })
	if err != nil {
		return nil, err
	}
	return sc.Run(RunExperiment)
}

// WriteReport materializes figures (typically from RunScenario) into a
// directory: per-figure JSON, CSV, and SVG chart plus an index.md with
// the rendered tables.
func WriteReport(dir string, figs []Figure) error {
	return experiments.WriteReport(dir, figs, RenderFigureSVG)
}

// ExperimentIDs lists the experiment identifiers RunExperiment accepts, in
// presentation order.
func ExperimentIDs() []string {
	return []string{
		"fig5.1", "fig5.2", "fig5.3", "fig5.4", "fig5.5", "fig5.6",
		"scaling", "engine-scaling", "storm-homogeneous", "storm-heterogeneous", "mobility",
		"collision-homogeneous", "collision-heterogeneous",
		"protocols-homogeneous", "protocols-heterogeneous",
		"energy-homogeneous", "energy-heterogeneous",
		"overhead-homogeneous", "overhead-heterogeneous",
		"allnodes-homogeneous", "allnodes-heterogeneous",
		"lossy-homogeneous", "lossy-heterogeneous",
	}
}

// RenderFigureSVG renders an experiment figure as an SVG line chart with
// axes, error bars (where the experiment recorded them), and a legend.
func RenderFigureSVG(fig Figure) string {
	series := make([]viz.ChartSeries, len(fig.Series))
	for i, s := range fig.Series {
		series[i] = viz.ChartSeries{Label: s.Label, X: s.X, Y: s.Y, Err: s.Err}
	}
	return viz.LineChart(fig.Title, fig.XLabel, fig.YLabel, series, 0, 0)
}

// RenderLocalSetSVG renders a local disk set and its skyline (as returned
// by ComputeSkyline with the same hub) to an SVG document. The disks are
// drawn in the hub frame.
func RenderLocalSetSVG(hub Point, disks []Disk, sl Skyline) string {
	translated := make([]Disk, len(disks))
	for i, d := range disks {
		translated[i] = d.Translate(hub)
	}
	return viz.RenderLocalSet(translated, sl)
}

// RenderNetworkSVG renders a network, highlighting the source and a
// forwarding set, to an SVG document.
func RenderNetworkSVG(g *Graph, source int, fwdSet []int) string {
	return viz.RenderNetwork(g, source, fwdSet)
}

// RenderBroadcastTreeSVG renders the reverse-path tree of a broadcast
// result (its Parent and Transmitted fields) as an SVG document: blue
// source, red transmitters, green leaves, gray unreached nodes.
func RenderBroadcastTreeSVG(g *Graph, source int, res BroadcastResult) string {
	return viz.RenderBroadcastTree(g, source, res.Parent, res.Transmitted)
}
