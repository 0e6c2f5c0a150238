package experiments

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
)

// smallConfig keeps test runtimes modest while exercising every code path.
func smallConfig() Config {
	return Config{Replications: 16, Seed: 7, Workers: 4, Degrees: []float64{6, 10}}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Replications != 200 {
		t.Errorf("Replications = %d, want the paper's 200", c.Replications)
	}
	if len(c.Degrees) != 11 || c.Degrees[0] != 4 || c.Degrees[10] != 24 {
		t.Errorf("Degrees = %v", c.Degrees)
	}
	n := Config{}.normalized()
	if n.Replications != 200 || n.Workers < 1 || len(n.Degrees) == 0 {
		t.Errorf("normalized zero config = %+v", n)
	}
}

func TestForEachReplicationRunsAll(t *testing.T) {
	var count int64
	cfg := Config{Replications: 57, Workers: 8, Seed: 3}.normalized()
	err := forEachReplication(cfg, func(rep int, rng *rand.Rand) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 57 {
		t.Errorf("ran %d replications, want 57", count)
	}
}

func TestForEachReplicationPropagatesError(t *testing.T) {
	cfg := Config{Replications: 20, Workers: 4, Seed: 3}.normalized()
	err := forEachReplication(cfg, func(rep int, rng *rand.Rand) error {
		if rep == 13 {
			return errBoom
		}
		return nil
	})
	if err != errBoom {
		t.Errorf("error not propagated: %v", err)
	}
}

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom" }

// Determinism: the same config yields identical figures regardless of
// worker count.
func TestFig51Deterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := Fig51(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := Fig51(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != len(b.Series) {
		t.Fatal("series count differs")
	}
	for i := range a.Series {
		for j := range a.Series[i].Y {
			if a.Series[i].Y[j] != b.Series[i].Y[j] {
				t.Fatalf("series %s differs at %d: %v vs %v",
					a.Series[i].Label, j, a.Series[i].Y[j], b.Series[i].Y[j])
			}
		}
	}
}

// The paper's Figure 5.1 ordering: flooding ≥ skyline ≥ calinescu ≥ greedy
// ≥ optimal (on averages; calinescu/greedy can tie).
func TestFig51Ordering(t *testing.T) {
	f, err := Fig51(Config{Replications: 40, Seed: 11, Workers: 4, Degrees: []float64{10}})
	if err != nil {
		t.Fatal(err)
	}
	y := map[string]float64{}
	for _, s := range f.Series {
		y[s.Label] = s.Y[0]
	}
	if !(y["flooding"] >= y["skyline"] && y["skyline"] >= y["greedy"] && y["greedy"] >= y["optimal"]) {
		t.Errorf("ordering violated: %v", y)
	}
	if y["calinescu"] < y["optimal"] || y["calinescu"] > y["flooding"] {
		t.Errorf("calinescu out of range: %v", y)
	}
	if y["optimal"] <= 0 {
		t.Errorf("optimal mean %v must be positive at degree 10", y["optimal"])
	}
}

func TestFig54Ordering(t *testing.T) {
	f, err := Fig54(Config{Replications: 40, Seed: 12, Workers: 4, Degrees: []float64{10}})
	if err != nil {
		t.Fatal(err)
	}
	y := map[string]float64{}
	for _, s := range f.Series {
		y[s.Label] = s.Y[0]
	}
	if !(y["flooding"] >= y["skyline"] && y["skyline"] >= y["greedy"] && y["greedy"] >= y["optimal"]) {
		t.Errorf("ordering violated: %v", y)
	}
	if len(f.Series) != 4 {
		t.Errorf("heterogeneous figure must have 4 series, got %d", len(f.Series))
	}
}

func TestDistributionsSumToReplications(t *testing.T) {
	cfg := Config{Replications: 25, Seed: 13, Workers: 4}
	for _, fn := range []func(Config) (Figure, error){Fig52, Fig53, Fig55} {
		f, err := fn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range f.Series {
			total := 0.0
			for _, y := range s.Y {
				total += y
			}
			if total != 25 {
				t.Errorf("%s/%s: histogram mass %v, want 25", f.ID, s.Label, total)
			}
		}
	}
}

func TestFig56Metrics(t *testing.T) {
	f, err := Fig56(Config{Replications: 30, Seed: 14, Workers: 4, Degrees: []float64{10}})
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string) float64 {
		for _, s := range f.Series {
			if s.Label == label {
				return s.Y[0]
			}
		}
		t.Fatalf("missing series %q", label)
		return 0
	}
	cov := get("skyline 2-hop coverage")
	if cov <= 0 || cov > 1 {
		t.Errorf("coverage %v out of (0, 1]", cov)
	}
	miss := get("point sets with a miss")
	if miss < 0 || miss > 1 {
		t.Errorf("miss rate %v out of [0, 1]", miss)
	}
	if extras := get("repair extra relays"); extras < 0 {
		t.Errorf("negative repair overhead %v", extras)
	}
}

// Fig56Graph builds the exact six-node construction of the paper's Figure
// 5.6: a source u with neighbors u1, u2, u3, where u3's large disk
// dominates the local union (so the skyline set is {u3}) but the 2-hop
// nodes u4 and u5 — geometrically inside u3's disk — have radii too small
// to reach back to u3, so they are not u3's neighbors and a u3-only
// forwarding set strands them. The optimal forwarding set is {u1, u2}.
// Fig56's figure notes name it, so it keeps its exported name.
func Fig56Graph() (*network.Graph, error) {
	nodes := []network.Node{
		{ID: 0, Pos: geom.Pt(0, 0), Radius: 1},
		{ID: 1, Pos: geom.Pt(0.8, 0.3), Radius: 1},
		{ID: 2, Pos: geom.Pt(0.8, -0.3), Radius: 1},
		{ID: 3, Pos: geom.Pt(0.5, 0), Radius: 2.5},
		{ID: 4, Pos: geom.Pt(1.7, 0.3), Radius: 0.95},
		{ID: 5, Pos: geom.Pt(1.7, -0.3), Radius: 0.95},
	}
	return network.Build(nodes, network.Bidirectional)
}

func TestFig56GraphShape(t *testing.T) {
	g, err := Fig56Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 6 || g.Degree(0) != 3 || len(g.TwoHop(0)) != 2 {
		t.Errorf("Fig56Graph shape wrong: n=%d deg=%d twohop=%v",
			g.Len(), g.Degree(0), g.TwoHop(0))
	}
}

func TestScalingSmall(t *testing.T) {
	f, err := Scaling(Config{Replications: 3, Seed: 15}, []int{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	var arcSeries *Series
	for i := range f.Series {
		if f.Series[i].Label == "arcs / 2n" {
			arcSeries = &f.Series[i]
		}
	}
	if arcSeries == nil {
		t.Fatal("missing arc series")
	}
	for _, r := range arcSeries.Y {
		if r <= 0 || r > 1 {
			t.Errorf("arc ratio %v violates Lemma 8", r)
		}
	}
}

func TestStormSmall(t *testing.T) {
	f, err := Storm(Config{Replications: 8, Seed: 16, Workers: 4, Degrees: []float64{8}}, 1 /* heterogeneous */)
	if err != nil {
		t.Fatal(err)
	}
	y := map[string]float64{}
	for _, s := range f.Series {
		y[s.Label] = s.Y[0]
	}
	if y["flooding delivery"] != 1 {
		t.Errorf("flooding delivery %v, want 1", y["flooding delivery"])
	}
	if y["greedy delivery"] != 1 || y["repair delivery"] != 1 {
		t.Errorf("cover-guaranteeing protocols must deliver: %v", y)
	}
	if y["skyline tx"] > y["flooding tx"] {
		t.Errorf("skyline transmissions %v exceed flooding %v", y["skyline tx"], y["flooding tx"])
	}
	if y["flooding redundant"] <= y["greedy redundant"] {
		t.Errorf("flooding redundancy %v should exceed greedy %v",
			y["flooding redundant"], y["greedy redundant"])
	}
}

func TestMobilitySmall(t *testing.T) {
	f, err := Mobility(Config{Replications: 3, Seed: 17, Workers: 2}, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	y := map[string][]float64{}
	for _, s := range f.Series {
		y[s.Label] = s.Y
	}
	for i := range y["1-hop entries/step"] {
		one := y["1-hop entries/step"][i]
		two := y["2-hop entries/step"][i]
		if one <= 0 {
			t.Errorf("speed point %d: 1-hop cost %v must be positive", i, one)
		}
		if two <= one {
			t.Errorf("speed point %d: 2-hop cost %v must exceed 1-hop %v", i, two, one)
		}
	}
	// Churn and staleness are fractions.
	for _, label := range []string{"1-hop churn", "2-hop churn", "skyline set stale", "greedy set stale"} {
		for i, v := range y[label] {
			if v < 0 || v > 1 {
				t.Errorf("%s[%d] = %v out of [0, 1]", label, i, v)
			}
		}
	}
	// Faster movement must churn 1-hop tables more.
	if y["1-hop churn"][1] < y["1-hop churn"][0] {
		t.Errorf("churn should grow with speed: %v", y["1-hop churn"])
	}
	// 2-hop tables are a superset dependency: they churn at least as often.
	for i := range y["1-hop churn"] {
		if y["2-hop churn"][i] < y["1-hop churn"][i]-1e-9 {
			t.Errorf("2-hop churn %v below 1-hop churn %v at point %d",
				y["2-hop churn"][i], y["1-hop churn"][i], i)
		}
	}
}

func TestCollisionSmall(t *testing.T) {
	f, err := Collision(Config{Replications: 8, Seed: 18, Workers: 4, Degrees: []float64{8}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	y := map[string]float64{}
	for _, s := range f.Series {
		y[s.Label] = s.Y[0]
	}
	for _, label := range []string{"flooding delivery", "skyline delivery", "greedy delivery"} {
		if v := y[label]; v <= 0 || v > 1 {
			t.Errorf("%s = %v out of (0, 1]", label, v)
		}
	}
	if y["greedy collisions"] >= y["flooding collisions"] {
		t.Errorf("greedy collisions %v should be below flooding %v",
			y["greedy collisions"], y["flooding collisions"])
	}
}

func TestEnergySmall(t *testing.T) {
	f, err := Energy(Config{Replications: 8, Seed: 19, Workers: 4, Degrees: []float64{8}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	y := map[string]float64{}
	for _, s := range f.Series {
		y[s.Label] = s.Y[0]
	}
	if y["flooding energy"] <= y["greedy energy"] {
		t.Errorf("flooding energy %v must exceed greedy %v",
			y["flooding energy"], y["greedy energy"])
	}
	for _, label := range []string{"flooding energy/tx", "skyline energy/tx", "greedy energy/tx"} {
		// Heterogeneous radii are in [1, 2], so energy/tx ∈ [1, 4].
		if v := y[label]; v < 1 || v > 4 {
			t.Errorf("%s = %v outside [1, 4]", label, v)
		}
	}
}

func TestProtocolsSmall(t *testing.T) {
	f, err := Protocols(Config{Replications: 6, Seed: 20, Workers: 4, Degrees: []float64{8}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	y := map[string]float64{}
	for _, s := range f.Series {
		y[s.Label] = s.Y[0]
	}
	// Everything except skyline must deliver fully.
	for _, label := range []string{
		"flooding delivery", "greedy-mpr delivery", "self-pruning delivery",
		"neighbor-elim delivery", "pdp delivery", "tdp delivery",
		"wuli-cds delivery", "mis-cds delivery",
	} {
		if y[label] != 1 {
			t.Errorf("%s = %v, want 1", label, y[label])
		}
	}
	// Flooding transmits the most.
	for label, v := range y {
		if len(label) > 3 && label[len(label)-2:] == "tx" && v > y["flooding tx"] {
			t.Errorf("%s = %v exceeds flooding %v", label, v, y["flooding tx"])
		}
	}
}

func TestOverheadSmall(t *testing.T) {
	f, err := Overhead(Config{Replications: 6, Seed: 21, Workers: 2, Degrees: []float64{6, 12}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	y := map[string][]float64{}
	for _, s := range f.Series {
		y[s.Label] = s.Y
	}
	for i := range y["1-hop entries/round"] {
		if y["2-hop entries/round"][i] <= y["1-hop entries/round"][i] {
			t.Errorf("2-hop entries must exceed 1-hop at point %d", i)
		}
	}
	// The ratio grows with density (≈ 1 + degree).
	r := y["2-hop / 1-hop"]
	if r[1] <= r[0] {
		t.Errorf("overhead ratio should grow with degree: %v", r)
	}
	if r[0] < 3 || r[0] > 12 {
		t.Errorf("ratio at degree 6 = %v, want ≈ 7", r[0])
	}
}

func TestAllNodesSmall(t *testing.T) {
	f, err := AllNodes(Config{Replications: 4, Seed: 22, Workers: 2, Degrees: []float64{8}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	y := map[string]float64{}
	for _, s := range f.Series {
		y[s.Label] = s.Y[0]
	}
	flood := y["flooding (all nodes)"]
	sky := y["skyline (all nodes)"]
	grd := y["greedy (all nodes)"]
	if !(flood >= sky && sky >= grd && grd > 0) {
		t.Errorf("all-nodes ordering violated: flooding %v, skyline %v, greedy %v", flood, sky, grd)
	}
	// Boundary effects pull the all-nodes flooding mean below the target
	// degree 8.
	if flood >= 8 {
		t.Errorf("all-nodes mean degree %v should sit below the interior target 8", flood)
	}
}

func TestLossySmall(t *testing.T) {
	f, err := Lossy(Config{Replications: 6, Seed: 23, Workers: 2}, 1, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	y := map[string][]float64{}
	for _, s := range f.Series {
		y[s.Label] = s.Y
	}
	// At core = 1 (perfect links) greedy delivers fully; at core = 0.5 its
	// delivery must drop below flooding's.
	if y["greedy delivery"][0] != 1 {
		t.Errorf("perfect-channel greedy delivery = %v", y["greedy delivery"][0])
	}
	if y["greedy delivery"][1] >= y["flooding delivery"][1] {
		t.Errorf("under fading, flooding (%v) must beat greedy (%v)",
			y["flooding delivery"][1], y["greedy delivery"][1])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	f := Figure{
		ID: "rt", Title: "T", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "a", X: []float64{1, 2}, Y: []float64{3.5, 4}}},
		Notes:  []string{"n"},
	}
	data, err := f.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var got Figure
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != f.ID || len(got.Series) != 1 || got.Series[0].Y[0] != 3.5 ||
		got.Notes[0] != "n" {
		t.Errorf("round trip lost data: %+v", got)
	}
}

func TestBars(t *testing.T) {
	f := Figure{
		ID: "b",
		Series: []Series{
			{Label: "dist", X: []float64{3, 4, 5}, Y: []float64{10, 40, 20}},
		},
	}
	out, err := f.Bars("dist", 20)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("bar chart lines = %d:\n%s", len(lines), out)
	}
	// The largest value gets the full width; half value gets half.
	if !strings.Contains(lines[2], strings.Repeat("█", 20)) {
		t.Errorf("max bar not full width: %q", lines[2])
	}
	if !strings.Contains(lines[3], strings.Repeat("█", 10)) {
		t.Errorf("half bar wrong: %q", lines[3])
	}
	if _, err := f.Bars("nope", 10); err == nil {
		t.Error("unknown series must fail")
	}
	// Degenerate: all-zero series renders without panicking.
	zero := Figure{Series: []Series{{Label: "z", X: []float64{1}, Y: []float64{0}}}}
	if _, err := zero.Bars("z", 10); err != nil {
		t.Fatal(err)
	}
}

func TestFigureRendering(t *testing.T) {
	f := Figure{
		ID: "x", Title: "T", XLabel: "deg", YLabel: "size",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{5}},
		},
		Notes: []string{"hello"},
	}
	out := f.String()
	if !strings.Contains(out, "deg") || !strings.Contains(out, "3.000") ||
		!strings.Contains(out, "note: hello") {
		t.Errorf("rendered figure:\n%s", out)
	}
	empty := Figure{XLabel: "x"}
	if got := empty.Table().String(); !strings.Contains(got, "x") {
		t.Errorf("empty figure table: %q", got)
	}
}
