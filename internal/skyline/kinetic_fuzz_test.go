package skyline

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// benignSetSwap reports whether a set divergence between the repaired
// skyline and the recompute oracle is a legitimate representative swap:
// both winners are exactly maximal (within a few RhoEps) at every probe
// angle, so the envelope cannot distinguish them. The canonical tie-break
// is index-dependent and the op stream renumbers disks (swap-compaction on
// removal), so a *latent* tie — duplicate disks neither surgery ever
// compares — can legally flip representatives without the tie flag firing.
// A real repair bug keeps a strictly dominated disk or drops a strictly
// contributing one, which this check rejects.
func benignSetSwap(disks []geom.Disk, got, want Skyline) bool {
	probes := make([]float64, 0, 1024+len(got)+len(want))
	for i := 0; i < 1024; i++ {
		probes = append(probes, float64(i)*geom.TwoPi/1024)
	}
	for _, a := range got {
		probes = append(probes, (a.Start+a.End)/2)
	}
	for _, a := range want {
		probes = append(probes, (a.Start+a.End)/2)
	}
	for _, theta := range probes {
		g := disks[got.diskAt(theta)].RayDist(theta)
		w := disks[want.diskAt(theta)].RayDist(theta)
		if math.Abs(g-w) > 4*geom.RhoEps*(1+math.Abs(w)) {
			return false
		}
	}
	return true
}

// FuzzKineticRepair drives a random insert/remove/move sequence through the
// kinetic repair primitives, checking after every operation that the
// maintained skyline is structurally valid (CheckInvariants), matches the
// brute-force envelope, and — whenever the surgery reported no degenerate
// decision — contributes exactly the disk set a from-scratch sort-oracle
// compute produces. This is the long-horizon drift check: one repaired
// skyline feeds the next operation, so an epsilon slip compounds instead of
// averaging out. Every operation also runs through the reference surgery
// (refSurgery), which must agree with it as in
// TestSurgeryBoundsBitIdentical.
//
// Each 7-byte chunk is one operation: the first byte selects insert (0, 1),
// remove (2), or move (3); the remaining six decode a disk via
// diskFromChunk (for remove, they select the victim index). Removal
// swap-compacts the disk slice and renumbers the skyline's arc indices the
// way the engine's Update path does.
func FuzzKineticRepair(f *testing.F) {
	// Handcrafted op streams: pure insertion growth, insert/remove churn,
	// a move storm on a fixed set, and an empty stream.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 0, 255, 255, 0, 0, 128, 64})
	f.Add([]byte{0, 10, 0, 200, 0, 30, 0, 2, 0, 0, 0, 0, 0, 0, 0, 10, 0, 200, 0, 90, 0})
	storm := make([]byte, 0, 7*24)
	for i := 0; i < 8; i++ {
		storm = append(storm, 0, byte(i*31), 1, byte(i*17), 2, byte(i*7), 3)
	}
	for i := 0; i < 16; i++ {
		storm = append(storm, 3, byte(i*13), 0, byte(i*29), 1, byte(i*5), 2)
	}
	f.Add(storm)
	// Re-seed from the curated boundary/ρ-tie corpora of the invariant
	// targets: their 6-byte payloads decode here as op streams whose first
	// bytes still land on the same degenerate geometry families
	// (cocircular centers, duplicates, near-tangent hubs).
	for _, target := range []string{"FuzzSkylineInvariants", "FuzzMergeAgainstNaive"} {
		for _, data := range loadFuzzCorpus(f, target) {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps, maxDisks = 64, 48
		if len(data) > 7*maxOps {
			data = data[:7*maxOps]
		}
		disks := []geom.Disk{geom.NewDisk(0, 0, 1)}
		sl, err := Compute(disks)
		if err != nil {
			t.Fatal(err)
		}
		var sc Scratch
		var rs refSurgery
		var alt, refAlt Skyline // ping-pong destinations: ops must not write over their input
		for op := 0; len(data) >= 7; op++ {
			chunk := data[:7]
			data = data[7:]
			var kind surgeryOp
			var k int
			switch chunk[0] % 4 {
			case 0, 1: // insert
				if len(disks) >= maxDisks {
					continue
				}
				disks = append(disks, diskFromChunk(chunk[1:7]))
				kind, k = opInsert, len(disks)-1
			case 2: // remove
				if len(disks) < 2 {
					continue
				}
				kind, k = opRemove, int(chunk[1])%len(disks)
			case 3: // move
				kind, k = opMove, int(chunk[1])%len(disks)
				disks[k] = diskFromChunk(chunk[1:7])
			}
			var tie, refTie bool
			alt, refAlt, tie, refTie = runSurgery(&sc, &rs, kind, alt, refAlt, disks, sl, k)
			if msg := surgeryDivergence(alt, refAlt, tie, refTie); msg != "" {
				t.Fatalf("op %d (%v of disk %d): the surgery %s\n got %v (tie %v)\nwant %v (tie %v)", op, kind, k, msg, alt, tie, refAlt, refTie)
			}
			if kind == opRemove { // swap-compact like the engine does
				rm := k
				last := len(disks) - 1
				if rm != last {
					disks[rm] = disks[last]
					for i := range alt {
						if alt[i].Disk == last {
							alt[i].Disk = rm
						}
					}
				}
				disks = disks[:last]
			}
			sl, alt = alt, sl

			if tie {
				// Mirror the engine: a degenerate surgery decision abandons
				// the repair and recomputes. The sequence then continues from
				// the recomputed skyline, so later no-tie ops are still held
				// to exact set identity.
				fresh, err := Compute(disks)
				if err != nil {
					t.Fatalf("op %d: fallback recompute: %v", op, err)
				}
				sl = fresh
			}
			if err := sl.CheckInvariants(len(disks)); err != nil {
				t.Fatalf("op %d: repaired skyline broke invariants: %v", op, err)
			}
			for _, a := range sl {
				if a.Span() < 1e-7 {
					continue // sliver tolerance, as in FuzzSkylineInvariants
				}
				mid := (a.Start + a.End) / 2
				got := disks[a.Disk].RayDist(mid)
				want, _ := rho(disks, mid)
				if math.Abs(got-want) > 1e-6*(1+want) {
					t.Fatalf("op %d: envelope mismatch at θ=%v: %v vs max %v", op, mid, got, want)
				}
			}
			if !tie {
				oracle, err := computeSortOracle(disks)
				if err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				gs := sl.Set()
				ws := oracle.Set()
				if !equalInts(gs, ws) && !benignSetSwap(disks, sl, oracle) {
					t.Fatalf("op %d: skyline set diverged without a tie: got %v want %v", op, gs, ws)
				}
			}
		}
	})
}
