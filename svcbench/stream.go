package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/deploy"
	"repro/internal/e2e"
	"repro/internal/mldcsd"
	"repro/internal/mobility"
	"repro/internal/network"
)

// workload is one traffic mix: a seeded network plus the delta and query
// streams replayed against it. See README.md for why each exists.
type workload struct {
	name string
	// setups is how many times a run builds the server from scratch;
	// setup_s is their median.
	setups int
	// capBatches is the fixed amount of work one round of the closed-loop
	// capacity phase pushes through, in batches; ingest_capacity_dps is
	// the median of capRounds rounds.
	capBatches int
	gen        func(seed int64, batches, queries, queryBatches int) (*stream, error)
}

// capRounds is how many capacity rounds a run makes.
const capRounds = 5

var workloads = []workload{
	{name: "mobility-100k", setups: 3, capBatches: 500, gen: genMobility},
	{name: "hotspot-5k", setups: 3, capBatches: 500, gen: genHotspot},
	{name: "churn-5k", setups: 7, capBatches: 800, gen: genChurn},
}

// generate makes every input of a run from the seed: batches delta
// batches, of which the first queryBatches are sent while queries run,
// and queries queries with their due times.
func (w workload) generate(seed int64, batches, queries, queryBatches int) (*stream, error) {
	st, err := w.gen(seed, batches, queries, queryBatches)
	if err != nil {
		return nil, err
	}
	st.queryDue = querySchedule(seed, queries)
	return st, nil
}

// querySchedule gives query j a due time drawn uniformly from its own
// slot [j, j+1)·queryPeriod. The rate stays exactly 1/queryPeriod, but
// queries land at every phase of the ingest period instead of at the same
// few offsets from each batch, so how many meet an engine pass does not
// hinge on the pass length crossing a fixed offset.
func querySchedule(seed int64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed + scheduleSeedOffset))
	due := make([]time.Duration, n)
	for j := range due {
		due[j] = time.Duration((float64(j) + rng.Float64()) * float64(queryPeriod))
	}
	return due
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// stream is every input of one run, generated from the seed before any
// timing starts: the join batch that builds the network, the delta
// batches in send order (pre-encoded as the wire JSON), the node each
// query asks about, and the node table the server must converge to.
type stream struct {
	initial  []byte
	initialN int
	batches  [][]byte
	deltas   []int // deltas per batch
	// touched[i] lists the nodes batch i moves or joins: the local sets
	// the traced replay recomputes with the skyline kernel.
	touched [][]int64
	queries []int64
	// queryDue[j] is when query j is due, from the start of the open loop.
	queryDue []time.Duration
	final    map[int64]e2e.ModelNode
}

// Queries and their schedule are drawn from generators of their own, so
// they do not depend on how many delta batches were generated.
const (
	querySeedOffset    = 0x5eed
	scheduleSeedOffset = 0x7e11
)

func newStream(nodes []network.Node) (*stream, error) {
	st := &stream{initialN: len(nodes), final: make(map[int64]e2e.ModelNode, len(nodes))}
	ds := make([]mldcsd.Delta, len(nodes))
	for i, n := range nodes {
		ds[i] = joinDelta(int64(n.ID), n.Pos.X, n.Pos.Y, n.Radius)
		st.final[int64(n.ID)] = e2e.ModelNode{X: n.Pos.X, Y: n.Pos.Y, R: n.Radius}
	}
	b, err := json.Marshal(mldcsd.Batch{Deltas: ds})
	if err != nil {
		return nil, fmt.Errorf("encode initial batch: %w", err)
	}
	st.initial = b
	return st, nil
}

// add encodes one batch, applies it to the intended table with the
// service's semantics, and appends it to the stream.
func (st *stream) add(ds []mldcsd.Delta) error {
	b, err := json.Marshal(mldcsd.Batch{Deltas: ds})
	if err != nil {
		return fmt.Errorf("encode batch %d: %w", len(st.batches), err)
	}
	var touched []int64
	for _, d := range ds {
		switch d.Op {
		case mldcsd.OpJoin:
			st.final[d.Node] = e2e.ModelNode{X: *d.X, Y: *d.Y, R: *d.R}
			touched = append(touched, d.Node)
		case mldcsd.OpMove:
			n := st.final[d.Node]
			n.X, n.Y = *d.X, *d.Y
			st.final[d.Node] = n
			touched = append(touched, d.Node)
		case mldcsd.OpLeave:
			delete(st.final, d.Node)
		}
	}
	st.batches = append(st.batches, b)
	st.deltas = append(st.deltas, len(ds))
	st.touched = append(st.touched, touched)
	return nil
}

func joinDelta(id int64, x, y, r float64) mldcsd.Delta {
	return mldcsd.Delta{Op: mldcsd.OpJoin, Node: id, X: &x, Y: &y, R: &r}
}

func moveDelta(id int64, x, y float64) mldcsd.Delta {
	return mldcsd.Delta{Op: mldcsd.OpMove, Node: id, X: &x, Y: &y}
}

// scaledConfig is the paper's §5.1 deployment with the square's side
// scaled to hold n nodes at the configured mean degree, as cmd/mldcsbench
// scales it.
func scaledConfig(model deploy.RadiusModel, n int) deploy.Config {
	cfg := deploy.PaperConfig(model, 10)
	cfg.Side = math.Sqrt(float64(n) * math.Pi * cfg.ExpectedMinRadiusSq() / cfg.MeanDegree)
	return cfg
}

// Every batch of mobility-100k moves this many distinct nodes, each by
// mobility.SmallMoveStep with this drift fraction.
const (
	mobilityMovers = 20
	moveFrac       = 0.02
)

// genMobility is the paper's heterogeneous deployment at 100,000 nodes
// with uniformly drawn movers and uniform reads.
func genMobility(seed int64, batches, queries, _ int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	nodes, err := deploy.Generate(scaledConfig(deploy.Heterogeneous, 100_000), rng)
	if err != nil {
		return nil, err
	}
	st, err := newStream(nodes)
	if err != nil {
		return nil, err
	}
	picked := make(map[int]bool, mobilityMovers)
	for b := 0; b < batches; b++ {
		clear(picked)
		ds := make([]mldcsd.Delta, 0, mobilityMovers)
		for len(ds) < mobilityMovers {
			u := rng.Intn(len(nodes))
			if picked[u] {
				continue
			}
			picked[u] = true
			mobility.SmallMoveStep(nodes, u, moveFrac, rng)
			ds = append(ds, moveDelta(int64(u), nodes[u].Pos.X, nodes[u].Pos.Y))
		}
		if err := st.add(ds); err != nil {
			return nil, err
		}
	}
	qrng := rand.New(rand.NewSource(seed + querySeedOffset))
	for q := 0; q < queries; q++ {
		st.queries = append(st.queries, int64(qrng.Intn(len(nodes))))
	}
	return st, nil
}

// genHotspot is a 5,000-node zipf hotspot deployment (8 clusters,
// contention 1.2, spread 1.5, heterogeneous radii): one zipf-drawn mover
// per batch, and reads drawn with the same skew.
func genHotspot(seed int64, batches, queries, _ int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	w, err := mobility.NewHotspotWorkload(mobility.HotspotConfig{
		Deploy:     scaledConfig(deploy.Heterogeneous, 5000),
		Hotspots:   8,
		Contention: 1.2,
		Spread:     1.5,
		MoveFrac:   moveFrac,
	}, rng)
	if err != nil {
		return nil, err
	}
	nodes := w.Nodes()
	st, err := newStream(nodes)
	if err != nil {
		return nil, err
	}
	for b := 0; b < batches; b++ {
		u := w.PickMover(rng)
		mobility.SmallMoveStep(nodes, u, moveFrac, rng)
		if err := st.add([]mldcsd.Delta{moveDelta(int64(u), nodes[u].Pos.X, nodes[u].Pos.Y)}); err != nil {
			return nil, err
		}
	}
	qrng := rand.New(rand.NewSource(seed + querySeedOffset))
	for q := 0; q < queries; q++ {
		st.queries = append(st.queries, int64(w.PickMover(qrng)))
	}
	return st, nil
}

// Every batch of churn-5k removes this many live nodes and adds as many
// fresh ones, so the network size never changes.
const churnPerBatch = 2

// genChurn is the paper's homogeneous deployment (r = 1) at 5,000 nodes:
// each batch is churnPerBatch leaves of uniformly drawn live nodes plus
// churnPerBatch joins of fresh IDs at uniform positions. Reads are
// uniform over the nodes that stay live through the first queryBatches
// batches, so no query can name a node that has left.
func genChurn(seed int64, batches, queries, queryBatches int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := scaledConfig(deploy.Homogeneous, 5000)
	nodes, err := deploy.Generate(cfg, rng)
	if err != nil {
		return nil, err
	}
	st, err := newStream(nodes)
	if err != nil {
		return nil, err
	}
	live := make([]int64, len(nodes))
	for i := range live {
		live[i] = int64(i)
	}
	stable := make(map[int64]bool, len(nodes))
	for _, id := range live {
		stable[id] = true
	}
	next := int64(len(nodes))
	for b := 0; b < batches; b++ {
		ds := make([]mldcsd.Delta, 0, 2*churnPerBatch)
		for k := 0; k < churnPerBatch; k++ {
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			ds = append(ds, mldcsd.Delta{Op: mldcsd.OpLeave, Node: id})
			if b < queryBatches {
				delete(stable, id)
			}
		}
		for k := 0; k < churnPerBatch; k++ {
			x, y := rng.Float64()*cfg.Side, rng.Float64()*cfg.Side
			ds = append(ds, joinDelta(next, x, y, cfg.RadiusMin))
			live = append(live, next)
			next++
		}
		if err := st.add(ds); err != nil {
			return nil, err
		}
	}
	candidates := make([]int64, 0, len(stable))
	for id := range stable {
		candidates = append(candidates, id)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	if len(candidates) == 0 {
		return nil, fmt.Errorf("churn-5k: no node stays live through %d batches", queryBatches)
	}
	qrng := rand.New(rand.NewSource(seed + querySeedOffset))
	for q := 0; q < queries; q++ {
		st.queries = append(st.queries, candidates[qrng.Intn(len(candidates))])
	}
	return st, nil
}
