package experiments

import "testing"

func TestEngineScalingSmall(t *testing.T) {
	f, err := EngineScaling(Config{Replications: 2, Seed: 17, Workers: 2}, []int{100, 300})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "engine-scaling" || len(f.Series) != 3 {
		t.Fatalf("figure shape wrong: id=%q series=%d", f.ID, len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != 2 || len(s.Y) != 2 {
			t.Fatalf("series %q has %d/%d points, want 2/2", s.Label, len(s.X), len(s.Y))
		}
	}
	// EngineScaling fails internally if any replication's forwarding sets
	// diverge, so reaching this point means the differential check passed;
	// the timings just need to be populated.
	for _, s := range f.Series[:2] {
		for i, y := range s.Y {
			if y < 0 {
				t.Fatalf("series %q point %d negative: %v", s.Label, i, y)
			}
		}
	}
}
