package skyline

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geom"
)

// This file pins the linear two-pointer Merge to the sort-based merge it
// replaced: mergeSortOracle below is the pre-optimization implementation
// (concatenate breakpoints, sort.Float64s, dedupe, prepend 0) kept
// verbatim as a test oracle. The production path must stay byte-identical
// to it — not just envelope-equivalent — so the golden, instrumentation,
// and parallel-identity suites keep their exact expectations.

// mergeSortOracle is the old Step 1: collect both skylines' start angles,
// sort, dedupe, anchor at 0, then resolve spans exactly like the
// production code. Intentionally allocation-heavy.
func mergeSortOracle(disks []geom.Disk, s1, s2 Skyline) Skyline {
	bps := make([]float64, 0, len(s1)+len(s2)+2)
	for _, a := range s1 {
		bps = append(bps, a.Start)
	}
	for _, a := range s2 {
		bps = append(bps, a.Start)
	}
	bps = append(bps, geom.TwoPi)
	sort.Float64s(bps)
	bps = dedupeAngles(bps)
	if len(bps) == 0 || !geom.AngleSliver(0, bps[0]) {
		bps = append([]float64{0}, bps...)
	} else {
		bps[0] = 0
	}
	bps[len(bps)-1] = geom.TwoPi

	out := make(Skyline, 0, len(s1)+len(s2))
	i1, i2 := 0, 0
	for k := 0; k+1 < len(bps); k++ {
		a, b := bps[k], bps[k+1]
		if geom.AngleSliver(a, b) {
			continue
		}
		m := (a + b) / 2
		for i1 < len(s1)-1 && s1[i1].End <= m {
			i1++
		}
		for i2 < len(s2)-1 && s2[i2].End <= m {
			i2++
		}
		out = resolveSpan(disks, out, a, b, s1[i1].Disk, s2[i2].Disk, nil, nil)
	}
	if len(out) == 0 {
		win := winner(disks, s1[0].Disk, s2[0].Disk, 1.0)
		return single(win)
	}
	out[0].Start = 0
	out[len(out)-1].End = geom.TwoPi
	return out.Combine()
}

// computeSortOracle is the old recursive divide-and-conquer built on
// mergeSortOracle, with the same midpoint splits as the production code.
func computeSortOracle(disks []geom.Disk) (Skyline, error) {
	if err := checkLocal(disks); err != nil {
		return nil, err
	}
	var rec func(lo, hi int) Skyline
	rec = func(lo, hi int) Skyline {
		if hi-lo == 1 {
			return single(lo)
		}
		mid := lo + (hi-lo)/2
		return mergeSortOracle(disks, rec(lo, mid), rec(mid, hi))
	}
	return rec(0, len(disks)), nil
}

// requireSameSkyline asserts byte identity (not just envelope equality).
func requireSameSkyline(t *testing.T, label string, got, want Skyline) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: linear merge diverged from sort-based oracle\n got: %v\nwant: %v", label, got, want)
	}
}

// The linear merge must reproduce the sort-based merge bit for bit on
// random heterogeneous and homogeneous sets, power-of-two and odd sizes.
func TestLinearMergeMatchesSortOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for _, n := range []int{1, 2, 3, 5, 8, 17, 37, 64, 100, 127} {
		for trial := 0; trial < 6; trial++ {
			for _, mk := range []struct {
				name  string
				disks []geom.Disk
			}{
				{"hetero", randomLocalSet(rng, n)},
				{"homog", randomHomogeneousSet(rng, n)},
			} {
				got, err := Compute(mk.disks)
				if err != nil {
					t.Fatal(err)
				}
				want, err := computeSortOracle(mk.disks)
				if err != nil {
					t.Fatal(err)
				}
				requireSameSkyline(t, mk.name, got, want)
			}
		}
	}
}

// Same identity on the structured/adversarial configurations the golden
// tests use: symmetric disk rings, a dominating disk, and the §4.1
// worst-case family.
func TestLinearMergeMatchesSortOracleStructured(t *testing.T) {
	var cases []struct {
		name  string
		disks []geom.Disk
	}
	for _, a := range []float64{0.2, 0.5, 0.9} {
		cases = append(cases, struct {
			name  string
			disks []geom.Disk
		}{"two-symmetric", []geom.Disk{geom.NewDisk(a, 0, 1), geom.NewDisk(-a, 0, 1)}})
	}
	ring := func(k int, dist float64) []geom.Disk {
		disks := make([]geom.Disk, k)
		for i := range disks {
			th := float64(i) * geom.TwoPi / float64(k)
			disks[i] = geom.NewDisk(dist*math.Cos(th), dist*math.Sin(th), 1)
		}
		return disks
	}
	cases = append(cases,
		struct {
			name  string
			disks []geom.Disk
		}{"three-ring", ring(3, 0.5)},
		struct {
			name  string
			disks []geom.Disk
		}{"seven-ring", ring(7, 0.7)},
		struct {
			name  string
			disks []geom.Disk
		}{"dominating", append(ring(5, 0.3), geom.NewDisk(0, 0, 10))},
	)
	for _, k := range []int{4, 9, 16, 33} {
		cases = append(cases, struct {
			name  string
			disks []geom.Disk
		}{"section41", section41Disks(k)})
	}
	for _, tc := range cases {
		got, err := Compute(tc.disks)
		if err != nil {
			t.Fatal(err)
		}
		want, err := computeSortOracle(tc.disks)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSkyline(t, tc.name, got, want)
	}
}

// loadFuzzCorpus decodes every seed file under testdata/fuzz/<target> into
// its raw []byte payload. testing.TB so fuzz targets can re-seed from a
// sibling target's curated corpus.
func loadFuzzCorpus(t testing.TB, target string) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus %s: %v", dir, err)
	}
	out := make(map[string][]byte, len(entries))
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") {
				continue
			}
			quoted := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
			payload, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("%s: unquoting corpus payload: %v", ent.Name(), err)
			}
			out[ent.Name()] = []byte(payload)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no corpus payloads under %s", dir)
	}
	return out
}

// The curated boundary/degenerate fuzz seeds (cocircular centers,
// concentric disks, duplicates, ρ ties, near-tangent hubs) are exactly
// where an epsilon-handling difference between the two merges would hide.
func TestLinearMergeMatchesSortOracleFuzzSeeds(t *testing.T) {
	for _, target := range []string{"FuzzMergeAgainstNaive", "FuzzSkylineInvariants"} {
		for name, data := range loadFuzzCorpus(t, target) {
			disks := disksFromBytes(data)
			if len(disks) == 0 {
				continue
			}
			got, err := Compute(disks)
			if err != nil {
				t.Fatal(err)
			}
			want, err := computeSortOracle(disks)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSkyline(t, target+"/"+name, got, want)
		}
	}
}

// The public Merge must match the oracle merge on arbitrary skyline pairs.
func TestPublicMergeMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		disks := randomLocalSet(rng, n)
		half := 1 + rng.Intn(n-1)
		sa := computeRange(disks, 0, half)
		sb := computeRange(disks, half, n)
		requireSameSkyline(t, "merge", Merge(disks, sa, sb), mergeSortOracle(disks, sa, sb))
	}
}
