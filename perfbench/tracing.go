package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/stats"
)

// maxSpans bounds the spans kept in memory; later spans are counted in
// Dropped but still feed every counter and histogram.
const maxSpans = 200_000

// span is one timed call: a benchmark-side call into a layer's public
// function, or one transport.Link.Send. Times are nanoseconds since the
// tracer started; Parent 0 means a root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// frame is an open span on the broker-holding thread. In the simulation
// every broker-bound call runs with the cluster's single attachment held
// (one goroutine, or the gateway's upstream mutex), and in-memory links
// deliver inline, so nested Sends form a strict stack.
type frame struct {
	id    int32
	start int64
	child int64 // time covered by child spans
}

type sendKey struct {
	typ   msg.Type
	topic string
}

// sendStat accumulates the Sends of one message type and topic.
type sendStat struct {
	Count  uint64 `json:"count"`
	Bytes  uint64 `json:"bytes"`
	SelfNs int64  `json:"self_ns"`
}

// tracer records spans and link counters for the traced run. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	on atomic.Bool // Sends are traced only while set
	t0 time.Time

	mu        sync.Mutex
	spans     []span
	dropped   uint64
	stack     []frame
	sends     map[sendKey]*sendStat
	msgs      [msg.TypeControl + 1]uint64
	bytes     uint64
	rootBytes uint64
	// queryRootBytes counts bytes of power-query messages on links
	// touching rank 0 (the reduce plane's root cost).
	queryRootBytes uint64
	queryReduces   uint64 // power-query.reduce requests sent by rank 0
	hopSelfUs      *stats.Histogram
	callLat        map[string][]float64 // ms per benchmark-side call name
}

func newTracer() *tracer {
	return &tracer{
		t0:        time.Now(),
		sends:     map[sendKey]*sendStat{},
		hopSelfUs: stats.NewHistogram(0.01, 1e7, 600),
		callLat:   map[string][]float64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// newSpanLocked appends a span if there is room and returns its id
// (0 when dropped).
func (t *tracer) newSpanLocked(name, detail string, parent int32, start int64) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Detail: detail, Start: start, End: -1})
	return id
}

func (t *tracer) parentLocked() int32 {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1].id
	}
	return 0
}

func (t *tracer) push(name, detail string) {
	t.mu.Lock()
	start := t.now()
	id := t.newSpanLocked(name, detail, t.parentLocked(), start)
	t.stack = append(t.stack, frame{id: id, start: start})
	t.mu.Unlock()
}

// pop closes the innermost open span and returns its duration and self
// time.
func (t *tracer) popLocked() (dur, self int64) {
	end := t.now()
	n := len(t.stack)
	f := t.stack[n-1]
	t.stack = t.stack[:n-1]
	dur = end - f.start
	if n > 1 {
		t.stack[n-2].child += dur
	}
	if f.id > 0 {
		t.spans[f.id-1].End = end
	}
	return dur, dur - f.child
}

// call runs fn inside a span on the broker-holding thread, so Sends it
// causes become child spans. name is the public function called.
func (t *tracer) call(name, detail string, fn func()) {
	if t == nil || !t.on.Load() {
		fn()
		return
	}
	t.push(name, detail)
	fn()
	t.mu.Lock()
	dur, _ := t.popLocked()
	t.callLat[name] = append(t.callLat[name], float64(dur)/1e6)
	t.mu.Unlock()
}

// root opens a span for a call made concurrently with the broker thread
// (an HTTP request on a load worker) and returns the function that
// closes it.
func (t *tracer) root(name, detail string) func() {
	if t == nil || !t.on.Load() {
		return func() {}
	}
	t.mu.Lock()
	start := t.now()
	id := t.newSpanLocked(name, detail, 0, start)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		end := t.now()
		if id > 0 {
			t.spans[id-1].End = end
		}
		t.callLat[name] = append(t.callLat[name], float64(end-start)/1e6)
		t.mu.Unlock()
	}
}

// encodedBytes estimates a message's wire size without encoding it:
// payload, topic and error string plus a fixed envelope for the JSON
// field names and integers. Encoding every message here would charge the
// msg layer for the tracer's own work in the CPU profile.
func encodedBytes(m *msg.Message) uint64 {
	return uint64(4 + 72 + len(m.Topic) + len(m.Payload) + len(m.Errstr))
}

// WrapLink is the cluster.Config.WrapLink hook: every TBON link is
// wrapped so its Sends are counted by type and topic and timed as spans.
func (t *tracer) WrapLink(from, to int32, l transport.Link) transport.Link {
	return &tracedLink{inner: l, t: t, root: from == 0 || to == 0, fromRoot: from == 0}
}

type tracedLink struct {
	inner    transport.Link
	t        *tracer
	root     bool
	fromRoot bool
}

func (l *tracedLink) Send(m *msg.Message) error {
	t := l.t
	if !t.on.Load() {
		return l.inner.Send(m)
	}
	n := encodedBytes(m)
	isQuery := strings.HasPrefix(m.Topic, "power-query.")
	t.mu.Lock()
	k := sendKey{m.Type, m.Topic}
	st := t.sends[k]
	if st == nil {
		st = &sendStat{}
		t.sends[k] = st
	}
	st.Count++
	st.Bytes += n
	if int(m.Type) < len(t.msgs) {
		t.msgs[m.Type]++
	}
	t.bytes += n
	if l.root {
		t.rootBytes += n
		if isQuery {
			t.queryRootBytes += n
		}
	}
	if l.fromRoot && m.Type == msg.TypeRequest && m.Topic == "power-query.reduce" {
		t.queryReduces++
	}
	start := t.now()
	var id int32
	if len(t.spans) < maxSpans {
		id = t.newSpanLocked("transport.Link.Send", m.Type.String()+" "+m.Topic, t.parentLocked(), start)
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, frame{id: id, start: start})
	t.mu.Unlock()

	err := l.inner.Send(m)

	t.mu.Lock()
	_, self := t.popLocked()
	st.SelfNs += self
	t.hopSelfUs.Observe(float64(self) / 1e3)
	t.mu.Unlock()
	return err
}

func (l *tracedLink) Close() error { return l.inner.Close() }

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Spans        []span             `json:"spans"`
	SpansDropped uint64             `json:"spans_dropped"`
	Sends        []sendRow          `json:"sends"`
	CPUSamples   int64              `json:"cpu_samples"`
	SelfFrac     map[string]float64 `json:"self_frac"`
	Metrics      map[string]metric  `json:"metrics"`
	CallP50Ms    map[string]float64 `json:"call_p50_ms"`
	CallCounts   map[string]int     `json:"call_counts"`
}

type sendRow struct {
	Type  string `json:"type"`
	Topic string `json:"topic"`
	sendStat
}

// write dumps the spans and counters to path.
func (t *tracer) write(path, workload string, seed int64, prof *cpuAttribution, metrics map[string]metric) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tf := traceFile{
		Workload:     workload,
		Seed:         seed,
		Spans:        t.spans,
		SpansDropped: t.dropped,
		Metrics:      metrics,
		CallP50Ms:    map[string]float64{},
		CallCounts:   map[string]int{},
	}
	for k, st := range t.sends {
		tf.Sends = append(tf.Sends, sendRow{Type: k.typ.String(), Topic: k.topic, sendStat: *st})
	}
	sort.Slice(tf.Sends, func(i, j int) bool { return tf.Sends[i].SelfNs > tf.Sends[j].SelfNs })
	for name, xs := range t.callLat {
		tf.CallP50Ms[name] = median(xs)
		tf.CallCounts[name] = len(xs)
	}
	if prof != nil {
		tf.CPUSamples = prof.Total
		tf.SelfFrac = prof.Frac()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(tf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
