package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"netprobe/internal/core"
	"netprobe/internal/otrace"
	"netprobe/internal/runner"
	"netprobe/internal/source"
)

// relay-ingest: an open loop at a fixed rate from one Sender into the
// relay shape. The input is a compact set of tagged INRIA-preset sim
// events built from the seed during set-up and cycled under rotating
// job tags. The wire codec, the Sender's flush, relay ingest, engine
// dispatch and the analyzers do all the work; the sim does none after
// set-up.
var relayIngest = workload{name: "relay-ingest", setup: setupIngest}

const (
	// ingestRate is the offered load: below saturation, which a
	// closed-loop sender found at 265–380k events/s on two vCPUs.
	ingestRate = 100_000
	// ingestMixJobs is how many sim runs make up the event mix.
	ingestMixJobs = 4
)

// ingestEvents is the fixed work of one rep.
func ingestEvents(tiny bool) int {
	if tiny {
		return 20_000
	}
	return 400_000
}

type ingestRun struct {
	e      *env
	n      int
	mix    []otrace.Event // one cycle: every mix job, bracketed
	jobOf  []int          // mix position → mix job
	tags   [][]string     // cycle → mix job → job tag
	mixCfg core.SimConfig // the first mix job, for the sim probe
	relay  *relay
	sender *source.Sender
	conn   *countingConn
	sink   otrace.Sink
	late   []float64 // generator lateness per batch, ms
}

func setupIngest(e *env) (instance, error) {
	s := &ingestRun{e: e, n: ingestEvents(e.tiny)}
	dur := 20 * time.Second
	if e.tiny {
		dur = 5 * time.Second
	}
	for k := 0; k < ingestMixJobs; k++ {
		delta := []time.Duration{20 * time.Millisecond, 50 * time.Millisecond}[k%2]
		cfg := core.INRIAPreset().Config(delta, dur, runner.DeriveSeed(e.seed, k))
		if k == 0 {
			s.mixCfg = cfg
		}
		id, t0 := e.tr.newID(), e.tr.now()
		_, evs, err := collectSim(cfg)
		e.tr.end("sim.run", id, 0, t0, false)
		if err != nil {
			return nil, err
		}
		s.mix = append(s.mix, otrace.Event{Ev: otrace.KindJobStart, Seq: -1, Seed: cfg.Seed})
		s.mix = append(s.mix, evs...)
		s.mix = append(s.mix, otrace.Event{Ev: otrace.KindJobFinish, Seq: -1})
		for len(s.jobOf) < len(s.mix) {
			s.jobOf = append(s.jobOf, k)
		}
	}
	cycles := (s.n + len(s.mix) - 1) / len(s.mix)
	s.tags = make([][]string, cycles)
	for c := range s.tags {
		s.tags[c] = make([]string, ingestMixJobs)
		for k := range s.tags[c] {
			s.tags[c][k] = fmt.Sprintf("c%03d-j%d", c, k)
		}
	}
	r, err := newRelay(e.tr, e.poolQueue)
	if err != nil {
		return nil, err
	}
	s.relay = r
	if s.sender, s.conn, err = dialSender(r.addr()); err != nil {
		r.close() //nolint:errcheck // the dial error is the one reported
		return nil, err
	}
	s.sink = s.sender
	if e.wrapSink != nil {
		s.sink = e.wrapSink(s.sink)
	}
	// Warm-up: the codec on the whole mix, outside the relay.
	var buf []byte
	for _, ev := range s.mix {
		buf = otrace.AppendEvent(buf[:0], ev)
	}
	return s, nil
}

// collectSim runs one simulation and keeps its probe-lifecycle events.
func collectSim(cfg core.SimConfig) (*core.Trace, []otrace.Event, error) {
	var c collector
	cfg.Trace = &c
	t, err := core.RunSim(cfg)
	return t, c.evs, err
}

type collector struct{ evs []otrace.Event }

func (c *collector) Emit(ev otrace.Event) { c.evs = append(c.evs, ev) }

// period is the gap between due times; event i is due at
// firstDue + i·period after the relay's origin.
const (
	period   = time.Second / ingestRate
	firstDue = time.Millisecond
	// genTick is how often the generator wakes: a fixed tick keeps the
	// events per wake-up, and so the CPU they cost, the same from run
	// to run.
	genTick = time.Millisecond
)

// event is the i-th event of the rep: the mix cycled under a fresh job
// tag per cycle, its Value the ns offset at which it is due.
func (s *ingestRun) event(i int) otrace.Event {
	c, pos := i/len(s.mix), i%len(s.mix)
	ev := s.mix[pos]
	k := s.jobOf[pos]
	ev.Job, ev.Index = s.tags[c][k], c*ingestMixJobs+k
	ev.Value = float64(firstDue + time.Duration(i)*period)
	return ev
}

func (s *ingestRun) run() (int64, time.Duration, error) {
	tr, r := s.e.tr, s.relay
	emit := tr.timer("source.emit")
	r.start(s.sender.Sent)
	origin := r.origin.Load()
	// Wake once per tick and emit every event that is due by then; a
	// generator that fell behind skips its sleeps until it catches up.
	for i, k := 0, 1; i < s.n; k++ {
		if d := time.Duration(k)*genTick - time.Duration(mono()-origin); d > 0 {
			time.Sleep(d)
		}
		now := time.Duration(mono() - origin)
		due := min(int((now-firstDue)/period)+1, s.n)
		if due <= i {
			continue
		}
		s.late = append(s.late, float64(now-firstDue-time.Duration(i)*period)/1e6)
		batch, t0 := tr.newID(), tr.now()
		for ; i < due; i++ {
			if tr == nil {
				s.sink.Emit(s.event(i))
				continue
			}
			ev := s.event(i)
			e0 := time.Now()
			s.sink.Emit(ev)
			emit.addSelf(int64(time.Since(e0)))
		}
		tr.end("source.emit_batch", batch, 0, t0, false)
	}
	if err := s.sender.Close(); err != nil {
		return 0, 0, err
	}
	return r.events(), r.drain(s.sender.Sent()) - firstDue, nil
}

func (s *ingestRun) check() []gate {
	r := s.relay
	delivered, queueDrops := r.srv.Totals()
	o := ingestObs{offered: int64(s.n), sent: s.sender.Sent(), delivered: delivered, applied: r.events(),
		drops: r.pool.Dropped() + queueDrops + s.sender.Dropped()}
	r.closePool()
	o.got = analyzerSnapshots(r.pool)
	o.want, o.refErr = refSnapshots(s.n, s.event)
	return ingestGates(o)
}

// ingestObs is what the relay-ingest gates look at.
type ingestObs struct {
	offered, sent, delivered, applied, drops int64
	// got and want are the relay's and the reference pool's merged
	// snapshots of the default analyzers.
	got, want map[string]any
	refErr    error
}

// ingestGates: every offered event was sent, delivered and applied,
// nothing dropped, and the relay's merged snapshots are bit-equal to an
// in-process reference pool fed the same events.
func ingestGates(o ingestObs) []gate {
	gates := []gate{
		gateIf("delivered", o.delivered != o.offered || o.sent != o.offered,
			"offered %d, sent %d, relay delivered %d", o.offered, o.sent, o.delivered),
		gateIf("dropped", o.drops > 0, "%d events dropped", o.drops),
		gateIf("applied", o.applied != o.offered, "analyzers applied %d of %d events", o.applied, o.offered),
	}
	if o.refErr != nil {
		return append(gates, failf("snapshot", "%v", o.refErr))
	}
	return append(gates, snapshotGate(o.got, o.want))
}

// snapshotGate requires the relay's merged snapshots to be bit-equal
// to the reference pool's.
func snapshotGate(got, want map[string]any) gate {
	for _, name := range []string{"loss", "phase", "workload"} {
		a, err1 := json.Marshal(got[name])
		b, err2 := json.Marshal(want[name])
		if err1 != nil || err2 != nil {
			return failf("snapshot", "%s: encoding: %v %v", name, err1, err2)
		}
		if string(a) != string(b) {
			return failf("snapshot", "%s snapshot differs from the in-process reference (%d vs %d bytes)",
				name, len(a), len(b))
		}
	}
	return pass("snapshot")
}

func (s *ingestRun) probe() {
	tr := s.e.tr
	tr.observe("source.writes_per_event", float64(s.conn.writes)/float64(s.n))
	tr.observe("source.bytes_per_event", float64(s.conn.bytes)/float64(s.n))
	s.relay.sampleAllocs()
	codecProbe(tr, s.mix)
	simProbe(tr, s.mixCfg)
}

func (s *ingestRun) notes() map[string]float64 {
	l := append([]float64(nil), s.late...)
	sort.Float64s(l)
	return map[string]float64{
		"generator_late_p50_ms": quantile(l, 0.5),
		"generator_late_p99_ms": quantile(l, 0.99),
		"generator_late_max_ms": l[len(l)-1],
		"offered_per_s":         ingestRate,
	}
}

func (s *ingestRun) close() error {
	s.sender.Close() //nolint:errcheck // closed in run; a second close only repeats its error
	return s.relay.close()
}

// codecProbe times the wire codec on a workload's own event mix:
// AppendEvent and DecodeEvent over the whole mix, several passes.
func codecProbe(tr *tracer, mix []otrace.Event) {
	if tr == nil || len(mix) == 0 {
		return
	}
	const passes = 5
	frames := make([][]byte, len(mix))
	var buf []byte
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		for _, ev := range mix {
			buf = otrace.AppendEvent(buf[:0], ev)
		}
		tr.observe("otrace.encode_ns_per_event", float64(time.Since(t0))/float64(len(mix)))
	}
	for i, ev := range mix {
		frames[i] = otrace.AppendEvent(nil, ev)
	}
	for p := 0; p < passes; p++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, f := range frames {
			if _, err := otrace.DecodeEvent(f); err != nil {
				return
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		tr.observe("otrace.decode_ns_per_event", float64(d)/float64(len(mix)))
		tr.observe("otrace.decode_allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(len(mix)))
	}
}
