package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestEventSinkOrdering emits concurrently from many goroutines and
// verifies the JSONL output is complete, well-formed, and in strict Seq
// order with no gaps or torn lines.
func TestEventSinkOrdering(t *testing.T) {
	var buf bytes.Buffer
	s := NewEventSink(&buf)
	const workers, per = 8, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Emit("tick", map[string]any{"worker": w, "i": i})
			}
		}(w)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var seen uint64
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", seen+1, err)
		}
		seen++
		if ev.Seq != seen {
			t.Fatalf("line %d has seq %d: order violated or gap", seen, ev.Seq)
		}
		if ev.Type != "tick" {
			t.Fatalf("line %d type = %q", seen, ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != workers*per {
		t.Fatalf("trace has %d lines, want %d", seen, workers*per)
	}
}

func TestEventSinkNilNoop(t *testing.T) {
	var s *EventSink
	s.Emit("x", nil) // must not panic
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestEventSinkFieldsOmitted(t *testing.T) {
	var buf bytes.Buffer
	s := NewEventSink(&buf)
	s.Emit("bare", nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if strings.Contains(line, "fields") {
		t.Errorf("nil fields must be omitted, got %s", line)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestEventSinkErrorLatches(t *testing.T) {
	s := NewEventSink(&failWriter{n: 0})
	// Overflow the bufio buffer so the write error surfaces.
	big := strings.Repeat("x", 1<<16)
	s.Emit("a", map[string]any{"pad": big})
	s.Emit("b", nil)
	if err := s.Flush(); err == nil {
		t.Fatal("expected latched write error")
	}
	if err := s.Flush(); err == nil {
		t.Fatal("a later Flush must report the latched error")
	}
}
