package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"netprobe/internal/otrace"
)

// runOptions are the command-line settings of one benchmark run.
type runOptions struct {
	seed   int64
	tiny   bool
	budget time.Duration
	outDir string
}

// env is what a workload's setup receives for one repetition.
type env struct {
	seed int64
	tiny bool
	// tr records spans and per-layer timings; nil when untraced.
	tr *tracer
	// probed is set once the first traced rep has run its probes.
	probed bool
	// tmp is a scratch directory inside the working directory.
	tmp string
	// wrapSink, if non-nil, wraps the sink the workload's producer
	// emits into; the tests use it to lose an event on purpose.
	wrapSink func(otrace.Sink) otrace.Sink
	// poolQueue, if non-zero, sizes the relay's shard queues; the
	// tests make it tiny so the pool drops.
	poolQueue int
}

// A workload is one set of inputs and the plumbing that carries them.
type workload struct {
	name string
	// setup generates the rep's inputs from the seed, starts whatever
	// the rep needs and warms it up; the first unit of offered work is
	// the first thing run does.
	setup func(e *env) (instance, error)
	// stableAllocs makes the run check that every rep allocates the
	// same per event, within 0.1 %: the workload is closed-loop and
	// deterministic, so a drift means the harness is not.
	stableAllocs bool
}

// An instance is one repetition of a workload's fixed work.
type instance interface {
	// run does the fixed work. It returns the events that reached the
	// workload's final sink and the wall time the work took.
	run() (events int64, wall time.Duration, err error)
	// check runs the correctness gates on the finished work. It is
	// called after the measured phase, before close.
	check() []gate
	// probe measures the per-call costs that cannot be told apart
	// inside the concurrent work. It runs once per traced run, after
	// the first traced rep's check, on the quiet pipeline.
	probe()
	// notes returns values for the run record.
	notes() map[string]float64
	close() error
}

// A gate is one correctness check; a non-nil err is a failed operation.
type gate struct {
	name string
	err  error
}

func pass(name string) gate { return gate{name: name} }

func failf(name, format string, args ...any) gate {
	return gate{name: name, err: fmt.Errorf(format, args...)}
}

// gateIf fails the gate when bad is true.
func gateIf(name string, bad bool, format string, args ...any) gate {
	if bad {
		return failf(name, format, args...)
	}
	return pass(name)
}

// rep is the measurement of one repetition.
type rep struct {
	setup      time.Duration
	events     int64
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	heap       uint64
	// accounted is the per-layer self time the tracer recorded during
	// the measured phase (traced reps only).
	accounted time.Duration
	// steal and total are /proc/stat jiffies over the measured phase.
	steal, total uint64
	notes        map[string]float64
}

func (r rep) eventsPerSec() float64   { return float64(r.events) / r.wall.Seconds() }
func (r rep) cpuUsPerEvent() float64  { return float64(r.cpu.Nanoseconds()) / 1e3 / float64(r.events) }
func (r rep) allocsPerEvent() float64 { return float64(r.mallocs) / float64(r.events) }
func (r rep) bytesPerEvent() float64  { return float64(r.allocBytes) / float64(r.events) }

// measure sets up one repetition, runs its fixed work between
// resource snapshots, checks it, and tears it down. setupStart is when
// the set-up began (process start for the first rep).
func measure(w workload, e *env, setupStart time.Time) (rep, []gate, error) {
	inst, err := w.setup(e)
	if err != nil {
		return rep{}, nil, fmt.Errorf("setup: %w", err)
	}
	r := rep{setup: time.Since(setupStart)}
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	acc0 := e.tr.accounted()
	st0, tot0 := readSteal()
	cpu0 := cpuTime()
	events, wall, err := inst.run()
	cpu1 := cpuTime()
	st1, tot1 := readSteal()
	acc1 := e.tr.accounted()
	runtime.ReadMemStats(&m1)
	if err != nil {
		inst.close() //nolint:errcheck // the run error is the one reported
		return rep{}, nil, fmt.Errorf("run: %w", err)
	}
	// The live heap while the rep's traces, analyzer state and job
	// table are still reachable through inst.
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.events, r.wall, r.cpu = events, wall, cpu1-cpu0
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.heap = m2.HeapAlloc
	r.accounted = acc1 - acc0
	r.steal, r.total = st1-st0, tot1-tot0
	gates := inst.check()
	if e.tr != nil && !e.probed {
		inst.probe()
		e.probed = true
	}
	r.notes = inst.notes()
	if err := inst.close(); err != nil {
		gates = append(gates, failf("teardown", "%v", err))
	}
	if events <= 0 || wall <= 0 {
		return r, gates, errors.New("run did no work")
	}
	return r, gates, nil
}

// minReps is the fewest reps a measured run makes, whatever its budget.
const minReps = 3

// repeat runs reps of w until budget has passed (at least fewest, at
// most 40, and none after a rep that failed a gate), each with the same
// seed and so the same inputs. At test size it makes one or two.
func repeat(w workload, e *env, budget time.Duration, fewest int, first time.Time) ([]rep, []gate, error) {
	maxReps := 40
	if e.tiny {
		fewest, maxReps = 1, 2
	}
	var reps []rep
	var gates []gate
	begin := time.Now()
	setupStart := first
	for len(reps) < fewest || (len(reps) < maxReps && time.Since(begin) < budget) {
		r, g, err := measure(w, e, setupStart)
		gates = append(gates, g...)
		if err != nil {
			gates = append(gates, failf("run", "rep %d: %v", len(reps), err))
			break
		}
		reps = append(reps, r)
		if firstErr(g) != nil {
			// A failed rep ends the run, which still reports it: the
			// next rep could wait out the same timeouts again.
			break
		}
		setupStart = time.Now()
	}
	if len(reps) == 0 {
		return nil, gates, fmt.Errorf("no repetition completed: %v", firstErr(gates))
	}
	if w.stableAllocs && len(reps) > 1 {
		gates = append(gates, allocGate(reps))
	}
	return reps, gates, nil
}

// allocGate is the harness self-check: a deterministic closed-loop
// workload allocates the same per event on every rep.
func allocGate(reps []rep) gate {
	for _, f := range []func(rep) float64{rep.allocsPerEvent, rep.bytesPerEvent} {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range reps {
			lo, hi = math.Min(lo, f(r)), math.Max(hi, f(r))
		}
		if hi > lo*1.001 {
			return failf("alloc-repeat", "per-event allocation varies %.6g..%.6g across reps", lo, hi)
		}
	}
	return pass("alloc-repeat")
}

func firstErr(gates []gate) error {
	for _, g := range gates {
		if g.err != nil {
			return fmt.Errorf("%s: %w", g.name, g.err)
		}
	}
	return nil
}

// endToEnd reduces reps to the end-to-end metrics, each the median
// over the reps.
func endToEnd(reps []rep) map[string]metric {
	med := func(f func(rep) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	return map[string]metric{
		"setup_s":               {med(func(r rep) float64 { return r.setup.Seconds() }), "s"},
		"events_per_s":          {med(rep.eventsPerSec), "1/s"},
		"cpu_us_per_event":      {med(rep.cpuUsPerEvent), "us"},
		"allocs_per_event":      {med(rep.allocsPerEvent), "allocs/event"},
		"alloc_bytes_per_event": {med(rep.bytesPerEvent), "B/event"},
		"retained_heap_mb":      {med(func(r rep) float64 { return float64(r.heap) / (1 << 20) }), "MB"},
	}
}

// cpuTime is the process's user+system CPU time. Time the hypervisor
// stole is not in it, which makes it the steadiest timing on a shared
// machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readSteal returns the machine's stolen and total CPU jiffies from
// /proc/stat (zeros where the file is unreadable).
func readSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	var name string
	var f [8]uint64
	if _, err := fmt.Sscan(string(b), &name, &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]); err != nil {
		return 0, 0
	}
	for _, v := range f {
		total += v
	}
	return f[7], total
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// scratchDir makes a fresh directory for the run's journals under
// base; the caller removes it.
func scratchDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// spanPath names the traced run's span file.
func spanPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
