package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Event is one structured trace record. Seq is assigned by the sink and is
// strictly increasing in emission order, so a JSONL trace can be verified
// for completeness and ordering without wall-clock timestamps (which would
// also make traces nondeterministic under fixed seeds).
type Event struct {
	Seq    uint64         `json:"seq"`
	Type   string         `json:"type"`
	Fields map[string]any `json:"fields,omitempty"`
}

// EventSink serializes events as JSON Lines to a writer. Emission is
// mutex-ordered: the Seq order in the output equals the order Emit calls
// acquired the lock, with no interleaved or torn lines. A nil *EventSink
// drops events for free, which is the disabled fast path.
//
// The first write or encode error latches: subsequent Emits become no-ops
// and the error is reported by Flush/Err.
type EventSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	seq uint64
	err error
}

// NewEventSink returns a sink writing JSONL to w. Call Flush before the
// underlying writer is closed.
func NewEventSink(w io.Writer) *EventSink {
	return &EventSink{w: bufio.NewWriter(w)}
}

// Emit writes one event. fields may be nil. Safe for concurrent use; no-op
// on a nil sink or after a previous error.
func (s *EventSink) Emit(typ string, fields map[string]any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.seq++
	data, err := json.Marshal(Event{Seq: s.seq, Type: typ, Fields: fields})
	if err != nil {
		s.err = err
		return
	}
	data = append(data, '\n')
	if _, err := s.w.Write(data); err != nil {
		s.err = err
	}
}

// Flush drains buffered output and returns the first error encountered by
// the sink (nil sink: nil).
func (s *EventSink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}
