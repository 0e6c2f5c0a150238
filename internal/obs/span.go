package obs

import "sync/atomic"

// Span event types emitted through the EventSink. Each carries a "span"
// field naming the kind and an "id" field; begin/end pairs of one span
// share the id, and ids of one kind are assigned 1, 2, 3, … so a trace
// can be checked for completeness per kind.
const (
	EventSpanBegin = "span_begin"
	EventSpanEnd   = "span_end"
)

// DefaultSpanLimit is the per-kind sample budget used when NewSpanTracer
// is given limit 0: the first DefaultSpanLimit spans of each kind are
// emitted, the rest are counted but not traced. Sampling by a fixed
// prefix (rather than probabilistically) keeps traces of seeded runs
// deterministic.
var DefaultSpanLimit uint64 = 1000

// SpanTracer turns begin/end pairs into seq-ordered span_begin/span_end
// events on an EventSink, with a bounded per-kind sample. A nil tracer
// (and every SpanKind it hands out) is a no-op — the disabled fast path.
type SpanTracer struct {
	sink  *EventSink
	limit uint64
}

// NewSpanTracer returns a tracer emitting to sink, sampling at most limit
// spans per kind (0 selects DefaultSpanLimit). A nil sink yields a nil
// tracer.
func NewSpanTracer(sink *EventSink, limit uint64) *SpanTracer {
	if sink == nil {
		return nil
	}
	if limit == 0 {
		limit = DefaultSpanLimit
	}
	return &SpanTracer{sink: sink, limit: limit}
}

// Kind registers a span kind (e.g. "engine_node"). Fetch kinds once at
// Instrument time and hold them; Begin is the per-operation call. Returns
// nil on a nil tracer.
func (t *SpanTracer) Kind(name string) *SpanKind {
	if t == nil {
		return nil
	}
	return &SpanKind{t: t, name: name, total: newCounter()}
}

// SpanKind is one span type's state: a sharded total (bumped on every
// Begin, sampled or not) and the sampling budget. Once the budget is
// exhausted the kind latches closed, and Begin costs one sharded add plus
// one read of a no-longer-written cache line — cheap enough for per-node
// hot paths.
type SpanKind struct {
	t      *SpanTracer
	name   string
	total  *Counter
	nextID atomic.Uint64
	closed atomic.Bool
}

// Begin opens a span: within the sample budget it emits a span_begin
// event and returns a sampled Span whose End emits the matching span_end;
// past the budget (or on a nil kind) it returns a no-op Span. Safe for
// concurrent use; allocation-free once the budget is exhausted.
func (k *SpanKind) Begin() Span {
	if k == nil {
		return Span{}
	}
	k.total.Add(1)
	if k.closed.Load() {
		return Span{}
	}
	id := k.nextID.Add(1)
	if id > k.t.limit {
		k.closed.Store(true)
		return Span{}
	}
	k.t.sink.Emit(EventSpanBegin, map[string]any{"span": k.name, "id": id})
	return Span{kind: k, id: id}
}

// Total returns how many spans of this kind were begun, sampled or not
// (0 on a nil kind).
//
// Test support: the engine's allocation tests drive a kind past its
// sampling limit with it.
func (k *SpanKind) Total() int64 {
	if k == nil {
		return 0
	}
	return k.total.Value()
}

// SampledCount returns how many spans of this kind were actually emitted.
//
// Test support: the engine's allocation tests check the limit held.
func (k *SpanKind) SampledCount() uint64 {
	if k == nil {
		return 0
	}
	n := k.nextID.Load()
	if n > k.t.limit {
		n = k.t.limit
	}
	return n
}

// Span is one in-flight span. The zero value (unsampled or disabled) is a
// no-op; spans are plain values and never allocate.
type Span struct {
	kind *SpanKind
	id   uint64
}

// Sampled reports whether this span will be emitted. Hot paths use it to
// skip building End's fields map when the span is a no-op.
func (s Span) Sampled() bool { return s.kind != nil }

// End closes the span, emitting a span_end event carrying fields (may be
// nil) plus the span's kind and id. No-op on an unsampled span — callers
// should guard expensive field construction with Sampled.
func (s Span) End(fields map[string]any) {
	if s.kind == nil {
		return
	}
	if fields == nil {
		fields = make(map[string]any, 2)
	}
	fields["span"] = s.kind.name
	fields["id"] = s.id
	s.kind.t.sink.Emit(EventSpanEnd, fields)
}
