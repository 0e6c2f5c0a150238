package mldcsd

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// Decoder table: the named payload classes from ISSUE 7 plus the shapes
// the chaos harness throws. Accept rows must round-trip through apply;
// reject rows must produce an error (and, per the fuzz target, never a
// panic).
func TestDecodeBatchTable(t *testing.T) {
	cases := []struct {
		name, body string
		ok         bool
	}{
		{"valid mixed batch", `{"deltas":[{"op":"join","node":3,"x":1,"y":2,"r":0.5},{"op":"move","node":3,"x":2,"y":2},{"op":"radius","node":3,"r":1},{"op":"leave","node":3}]}`, true},
		{"same node moved twice", `{"deltas":[{"op":"move","node":1,"x":0,"y":0},{"op":"move","node":1,"x":1,"y":1}]}`, true},
		{"truncated", `{"deltas":[{"op":"join","node":1,"x":0`, false},
		{"empty body", ``, false},
		{"empty batch", `{"deltas":[]}`, false},
		{"null deltas", `{"deltas":null}`, false},
		{"duplicate join", `{"deltas":[{"op":"join","node":9,"x":0,"y":0,"r":1},{"op":"join","node":9,"x":1,"y":1,"r":1}]}`, false},
		{"rejoin after leave still one batch", `{"deltas":[{"op":"join","node":9,"x":0,"y":0,"r":1},{"op":"leave","node":9},{"op":"join","node":9,"x":1,"y":1,"r":1}]}`, false},
		{"nan radius via 1e999", `{"deltas":[{"op":"join","node":1,"x":0,"y":0,"r":1e999}]}`, false},
		{"negative node", `{"deltas":[{"op":"leave","node":-4}]}`, false},
		{"zero radius", `{"deltas":[{"op":"radius","node":1,"r":0}]}`, false},
		{"move with radius", `{"deltas":[{"op":"move","node":1,"x":0,"y":0,"r":1}]}`, false},
		{"radius with coords", `{"deltas":[{"op":"radius","node":1,"x":0,"r":1}]}`, false},
		{"leave with coords", `{"deltas":[{"op":"leave","node":1,"x":0}]}`, false},
		{"missing op", `{"deltas":[{"node":1}]}`, false},
		{"unknown op", `{"deltas":[{"op":"warp","node":1}]}`, false},
		{"unknown field", `{"deltas":[{"op":"leave","node":1,"ghost":true}]}`, false},
		{"trailing object", `{"deltas":[{"op":"leave","node":1}]}{"deltas":[{"op":"leave","node":2}]}`, false},
		{"array not object", `[{"op":"leave","node":1}]`, false},
		{"string coordinates", `{"deltas":[{"op":"join","node":1,"x":"0","y":0,"r":1}]}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := DecodeBatch(strings.NewReader(tc.body), 4096)
			if tc.ok && err != nil {
				t.Fatalf("DecodeBatch: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("DecodeBatch accepted %q: %+v", tc.body, b)
			}
		})
	}

	// The per-batch delta cap is enforced.
	big := `{"deltas":[` + strings.Repeat(`{"op":"leave","node":1},`, 11)
	big = big[:len(big)-1] + `]}`
	if _, err := DecodeBatch(strings.NewReader(big), 10); err == nil {
		t.Fatal("11 deltas passed a 10-delta cap")
	}
}

// FuzzDeltaDecode holds the ingest edge to its contract: arbitrary bytes
// either decode into a batch every delta of which re-validates, or they
// error — never a panic, never a silently half-valid batch. Corpus seeds
// cover the ISSUE 7 payload classes: truncated JSON, duplicate-node
// joins, and NaN/Inf-shaped coordinates (1e999 overflows float64 parsing;
// a literal NaN token is not JSON at all).
func FuzzDeltaDecode(f *testing.F) {
	seeds := []string{
		// Valid shapes, so the fuzzer starts from structure.
		`{"deltas":[{"op":"join","node":1,"x":0.5,"y":-0.25,"r":1}]}`,
		`{"deltas":[{"op":"move","node":1,"x":2,"y":3},{"op":"radius","node":1,"r":0.75},{"op":"leave","node":1}]}`,
		// Truncated payloads.
		`{"deltas":[{"op":"join","node":1,"x":0.5`,
		`{"deltas":[{"op":"move","no`,
		`{"del`,
		// Duplicate-node payloads.
		`{"deltas":[{"op":"join","node":7,"x":0,"y":0,"r":1},{"op":"join","node":7,"x":9,"y":9,"r":2}]}`,
		`{"deltas":[{"op":"move","node":7,"x":0,"y":0},{"op":"move","node":7,"x":1,"y":1}]}`,
		// NaN / Inf coordinate payloads.
		`{"deltas":[{"op":"join","node":1,"x":NaN,"y":0,"r":1}]}`,
		`{"deltas":[{"op":"join","node":1,"x":1e999,"y":0,"r":1}]}`,
		`{"deltas":[{"op":"radius","node":1,"r":-1e999}]}`,
		// Misc hostile shapes.
		`{"deltas":[{"op":"leave","node":-1}]}`,
		`{"deltas":[{"op":"join","node":18446744073709551615,"x":0,"y":0,"r":1}]}`,
		`[]`,
		`{}`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		b, err := DecodeBatch(strings.NewReader(body), 64)
		if err != nil {
			return
		}
		// Whatever the decoder accepted must satisfy the documented
		// invariants — apply() relies on them without re-checking.
		if len(b.Deltas) == 0 || len(b.Deltas) > 64 {
			t.Fatalf("accepted batch with %d deltas", len(b.Deltas))
		}
		joined := map[int64]bool{}
		for i, d := range b.Deltas {
			if d.Node < 0 {
				t.Fatalf("delta %d: negative node %d accepted", i, d.Node)
			}
			switch d.Op {
			case OpJoin:
				if joined[d.Node] {
					t.Fatalf("delta %d: duplicate join accepted", i)
				}
				joined[d.Node] = true
				mustFinite(t, d.X, d.Y)
				mustPositive(t, d.R)
			case OpMove:
				mustFinite(t, d.X, d.Y)
				if d.R != nil {
					t.Fatalf("delta %d: move with r accepted", i)
				}
			case OpRadius:
				mustPositive(t, d.R)
				if d.X != nil || d.Y != nil {
					t.Fatalf("delta %d: radius with coords accepted", i)
				}
			case OpLeave:
				if d.X != nil || d.Y != nil || d.R != nil {
					t.Fatalf("delta %d: leave with coords accepted", i)
				}
			default:
				t.Fatalf("delta %d: op %q accepted", i, d.Op)
			}
		}
		// And applying it must not panic regardless of world state.
		w := newWorld()
		w.apply(b)
		w.commit()
		w.apply(b) // idempotence of apply against a populated world
		ds := w.commit()
		// The sorted index, the ID map and the slot table must agree.
		if len(w.ids) != len(w.index) || !slices.IsSorted(w.ids) {
			t.Fatalf("index %v does not list the %d live IDs in order", w.ids, len(w.index))
		}
		for i, id := range w.ids {
			if s := w.slots[i]; w.index[id] != s || w.state[s].Leave || w.state[s].Key != id || w.state[s].Slot != s {
				t.Fatalf("ID %d: index slot %d, map slot %d, state %+v", id, s, w.index[id], w.state[s])
			}
		}
		// The last recorded delta of each slot is its committed state.
		last := map[int]engine.Delta{}
		for _, d := range ds {
			last[d.Slot] = d
		}
		for s, d := range last {
			if s >= len(w.state) || d != w.state[s] {
				t.Fatalf("slot %d: last delta %+v, state %+v", s, d, w.state[s])
			}
		}
	})
}

func mustFinite(t *testing.T, vs ...*float64) {
	t.Helper()
	for _, v := range vs {
		if v == nil {
			t.Fatal("missing coordinate accepted")
		}
		if math.IsNaN(*v) || math.IsInf(*v, 0) {
			t.Fatalf("non-finite coordinate %v accepted", *v)
		}
	}
}

func mustPositive(t *testing.T, v *float64) {
	t.Helper()
	mustFinite(t, v)
	if !(*v > 0) {
		t.Fatalf("non-positive radius %v accepted", *v)
	}
}
