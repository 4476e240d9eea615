package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans around the calls the workloads make into
// each layer's public functions, and per-call timing samples where a
// span per call would be too many (one per event). Everything stays in
// memory; the traced run writes the spans out when it ends.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the span log; later spans are not kept.
const maxSpans = 1 << 20

type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// self sums the self time of every leaf call recorded with a
	// self flag, in ns: the part of the CPU the layers account for.
	self atomic.Int64

	mu     sync.Mutex
	spans  []span
	series map[string]*series
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), series: make(map[string]*series)}
}

// now is the tracer clock: monotonic ns since the tracer started.
// A nil tracer reads 0, so untraced code paths can call it freely.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// accounted is the self time recorded so far.
func (t *tracer) accounted() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.self.Load())
}

// end closes a span that began at start (a value of now) and adds its
// duration to the series of the same name. self marks a leaf call
// whose whole duration is the layer's own work.
func (t *tracer) end(name string, id, parent, start int64, self bool) int64 {
	if t == nil {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	}
	t.mu.Unlock()
	t.observe(name, float64(end-start))
	if self {
		t.self.Add(end - start)
	}
	return end - start
}

// observe adds one sample to the named series.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.get(name).add(v)
}

// observeSelf adds a per-call duration in ns that counts as self time.
func (t *tracer) observeSelf(name string, ns int64) {
	t.timer(name).addSelf(ns)
}

// timer resolves a series once, for the per-event hot paths, so they
// do not take the tracer's lock. A nil tracer gives a timer that
// records nothing.
func (t *tracer) timer(name string) timer {
	if t == nil {
		return timer{}
	}
	return timer{t: t, s: t.get(name)}
}

type timer struct {
	t *tracer
	s *series
}

func (m timer) add(v float64) {
	if m.s != nil {
		m.s.add(v)
	}
}

// addSelf adds a per-call duration in ns that counts as self time.
func (m timer) addSelf(ns int64) {
	if m.s != nil {
		m.s.add(float64(ns))
		m.t.self.Add(ns)
	}
}

func (t *tracer) get(name string) *series {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.series[name]
	if s == nil {
		s = &series{stride: 1}
		t.series[name] = s
	}
	return s
}

// lookup returns the named series, nil if nothing was recorded.
func (t *tracer) lookup(name string) *series {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.series[name]
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close() //nolint:errcheck // the encode error is the one reported
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // the flush error is the one reported
		return err
	}
	return f.Close()
}

// maxSamples bounds a series' kept samples. Past it the series keeps
// every second sample and doubles its stride, so the kept samples stay
// an even subsample of everything observed.
const maxSamples = 1 << 16

type series struct {
	mu     sync.Mutex
	n      int64 // samples observed
	sum    float64
	max    float64
	stride int64
	v      []float64
}

func (s *series) add(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n%s.stride == 0 {
		if len(s.v) == maxSamples {
			for i := 0; i < maxSamples/2; i++ {
				s.v[i] = s.v[2*i]
			}
			s.v = s.v[:maxSamples/2]
			s.stride *= 2
		}
		if s.n%s.stride == 0 {
			s.v = append(s.v, v)
		}
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
}

// summary is a series reduced the way every per-layer timing is
// reported: the median, and the highest percentile with at least ten
// kept samples beyond it.
type summary struct {
	N       int64   `json:"n"`
	Kept    int     `json:"kept"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	Mean    float64 `json:"mean"`
	Max     float64 `json:"max"`
}

var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90}

func (s *series) summarize(scale float64) summary {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	out := summary{N: s.n, Kept: len(v), Mean: s.sum / float64(s.n) * scale, Max: s.max * scale}
	s.mu.Unlock()
	sort.Float64s(v)
	out.P50 = median50(v) * scale
	for _, p := range tailPercentiles {
		if float64(len(v))*(1-p/100) >= 10 {
			out.TailPct, out.Tail = p, quantile(v, p/100)*scale
			break
		}
	}
	return out
}

// median50 is the median of sorted values. Timings taken in whole
// nanoseconds tie at the median; there it is read as the median of
// data grouped into 1 ns classes, so a shift within the tied class
// still shows.
func median50(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	m := sorted[n/2]
	lo := sort.SearchFloat64s(sorted, m)
	hi := sort.SearchFloat64s(sorted, math.Nextafter(m, math.Inf(1)))
	if hi-lo < 2 || m != math.Trunc(m) {
		return quantile(sorted, 0.5)
	}
	return m - 0.5 + (float64(n)/2-float64(lo))/float64(hi-lo)
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
