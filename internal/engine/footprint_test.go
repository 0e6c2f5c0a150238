package engine

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/skyline"
)

// kinFootprint sums the bytes the engine's kinetic state holds: the
// per-slot skyline headers, and the arc buffers at their capacity (held)
// and at their length (used).
func kinFootprint(e *Engine) (headers, held, used int) {
	arc := int(unsafe.Sizeof(skyline.Arc{}))
	headers = cap(e.kin) * int(unsafe.Sizeof(skyline.Skyline(nil)))
	for _, sl := range e.kin {
		held += cap(sl) * arc
		used += len(sl) * arc
	}
	return headers, held, used
}

// kinBytesPerNode is the kinetic state's total footprint over the
// engine's slot range, the figure the engine benchmarks report.
func kinBytesPerNode(e *Engine) float64 {
	headers, held, _ := kinFootprint(e)
	return float64(headers+held) / float64(len(e.kin))
}

// TestKineticStateFootprint pins what the kinetic state costs. Each node
// keeps only its skyline: a slice header and about seven 24-byte arcs on
// the paper's heterogeneous deployment, about 190 B/node after a bulk
// Compute, where keeping the local set's IDs and hub-frame disks as well
// held about 610 B/node. Buffers grow to exactly the size they must hold,
// so after a few thousand passes of 20 sliding movers the arcs held stay
// close to the arcs in use; growing by append's doubling let them reach
// 1.5–1.7 times.
func TestKineticStateFootprint(t *testing.T) {
	const n, passes, movers = 2000, 2000, 20
	nodes, _, err := benchDeployment(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1})
	if _, err := e.Compute(nodes); err != nil {
		t.Fatal(err)
	}
	if perNode := kinBytesPerNode(e); perNode > 240 {
		t.Errorf("kinetic state after Compute holds %.1f B/node, want ≤ 240", perNode)
	}

	cur := make([]Delta, n)
	for i, nd := range nodes {
		cur[i] = Delta{Slot: i, Key: int64(i), Pos: nd.Pos, Radius: nd.Radius}
	}
	rng := rand.New(rand.NewSource(3))
	moved := make([]Delta, movers)
	for p := 0; p < passes; p++ {
		for j := range moved {
			u := rng.Intn(n)
			step := 0.02 * cur[u].Radius
			cur[u].Pos.X += (rng.Float64()*2 - 1) * step
			cur[u].Pos.Y += (rng.Float64()*2 - 1) * step
			moved[j] = cur[u]
		}
		if _, err := e.Apply(moved); err != nil {
			t.Fatal(err)
		}
	}
	_, held, used := kinFootprint(e)
	if ratio := float64(held) / float64(used); ratio > 1.25 {
		t.Errorf("after %d passes the kinetic state holds %.3f× the arc bytes it uses, want ≤ 1.25", passes, ratio)
	}
}
