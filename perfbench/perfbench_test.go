package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netprobe/internal/coord"
	"netprobe/internal/loss"
	"netprobe/internal/otrace"
	"netprobe/internal/phase"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !strings.Contains(strings.Join(names, " "), w.name) {
			t.Errorf("workload %s is not declared in BENCHMARK.json", w.name)
		}
	}
	return endToEnd, perLayer
}

type output struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

// runTiny runs the command at test size and parses its last line.
func runTiny(t *testing.T, args ...string) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--tiny", "--seconds", "1", "--out", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "run_record ") {
		t.Fatalf("no run record before the result:\n%s", stdout.String())
	}
	var out output
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("last line: %v", err)
	}
	return out
}

func checkMetrics(t *testing.T, out output, want map[string]string) {
	t.Helper()
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("correct %v, failed %d of %d", out.Correct, out.Failed, out.Attempted)
	}
	for name, unit := range want {
		m, ok := out.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, %d declared", len(out.Metrics), len(want))
	}
}

// TestEveryMetricEmitted runs each workload at test size, untraced and
// traced, and requires every declared metric with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			checkMetrics(t, runTiny(t, "--workload", w.name, "--trace", "0"), e2e)
			checkMetrics(t, runTiny(t, "--workload", w.name, "--trace", "1"), layers)
		})
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-sweep", "--trace", "2"},
		{"--workload", "paper-sweep", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// loseOne is a sink that drops the n-th rtt event it sees: a lost
// measurement every analyzer would notice.
type loseOne struct {
	next otrace.Sink
	n    int64
	seen atomic.Int64
}

func (l *loseOne) Emit(ev otrace.Event) {
	if ev.Ev == otrace.KindRTT && l.seen.Add(1) == l.n {
		return
	}
	l.next.Emit(ev)
}

func failed(gates []gate) map[string]bool {
	out := map[string]bool{}
	for _, g := range gates {
		if g.err != nil {
			out[g.name] = true
		}
	}
	return out
}

// repGates runs one rep of w at test size with the producer's sink
// wrapped, and returns the gates that failed.
func repGates(t *testing.T, w workload, wrap func(otrace.Sink) otrace.Sink) map[string]bool {
	t.Helper()
	e := &env{seed: DefaultSeed, tiny: true, tmp: t.TempDir(), wrapSink: wrap}
	_, gates, err := measure(w, e, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return failed(gates)
}

func TestRelayGatesCatchALostEvent(t *testing.T) {
	if got := repGates(t, relayIngest, nil); len(got) > 0 {
		t.Fatalf("clean run failed gates %v", got)
	}
	got := repGates(t, relayIngest, func(s otrace.Sink) otrace.Sink { return &loseOne{next: s, n: 100} })
	for _, name := range []string{"delivered", "applied", "snapshot"} {
		if !got[name] {
			t.Errorf("gate %s did not fire on a lost event (failed: %v)", name, got)
		}
	}
}

func TestFleetGatesCatchALostEvent(t *testing.T) {
	if got := repGates(t, fleetCampaign, nil); len(got) > 0 {
		t.Fatalf("clean run failed gates %v", got)
	}
	got := repGates(t, fleetCampaign, func(s otrace.Sink) otrace.Sink { return &loseOne{next: s, n: 100} })
	if !got["relay-events"] {
		t.Errorf("relay-events did not fire on a lost event (failed: %v)", got)
	}
}

// TestPoolDropsAreReported gives the relay one-slot shard queues, so
// the pool drops, and requires the drop gates to fire and the command
// to still print its result with the failures counted.
func TestPoolDropsAreReported(t *testing.T) {
	for _, c := range []struct {
		w    workload
		gate string
	}{{relayIngest, "dropped"}, {fleetCampaign, "queue-drops"}} {
		t.Run(c.w.name, func(t *testing.T) {
			e := &env{seed: DefaultSeed, tiny: true, tmp: t.TempDir(), poolQueue: 1}
			r, gates, err := measure(c.w, e, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if got := failed(gates); !got[c.gate] {
				t.Fatalf("gate %s did not fire on pool drops (failed: %v)", c.gate, got)
			}
			if r.events <= 0 {
				t.Errorf("a rep with drops reported %d events", r.events)
			}
			w := c.w
			w.setup = func(e *env) (instance, error) {
				e.poolQueue = 1
				return c.w.setup(e)
			}
			res, err := plainRun(w, runOptions{seed: DefaultSeed, tiny: true, budget: time.Second, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 || len(res.metrics) == 0 {
				t.Errorf("result with pool drops: failed %d of %d, %d metrics",
					res.failed, res.attempted, len(res.metrics))
			}
		})
	}
}

func TestFleetGatesFire(t *testing.T) {
	good := fleetObs{jobs: 2, counts: coord.JobCounts{Completed: 2},
		execs: map[string]int{"a": 1, "b": 1}, want: 40, delivered: 40, applied: 40}
	if got := failed(fleetGates(good)); len(got) > 0 {
		t.Fatalf("good observations failed %v", got)
	}
	for name, broken := range map[string]func(*fleetObs){
		"exactly-once": func(o *fleetObs) { o.execs = map[string]int{"a": 2, "b": 1} },
		"relay-events": func(o *fleetObs) { o.applied-- },
		"queue-drops":  func(o *fleetObs) { o.queueDrops = 1 },
		"ledger":       func(o *fleetObs) { o.unaccounted = 1 },
	} {
		o := good
		broken(&o)
		if !failed(fleetGates(o))[name] {
			t.Errorf("gate %s did not fire", name)
		}
	}
	o := good
	o.counts.Failed, o.counts.Completed = 1, 1
	if !failed(fleetGates(o))["exactly-once"] {
		t.Error("exactly-once did not fire on a failed job")
	}
}

func TestIngestGatesFire(t *testing.T) {
	snap := map[string]any{"loss": []int{1}, "phase": []int{2}, "workload": []int{3}}
	good := ingestObs{offered: 10, sent: 10, delivered: 10, applied: 10, got: snap, want: snap}
	if got := failed(ingestGates(good)); len(got) > 0 {
		t.Fatalf("good observations failed %v", got)
	}
	for name, broken := range map[string]func(*ingestObs){
		"delivered": func(o *ingestObs) { o.delivered-- },
		"dropped":   func(o *ingestObs) { o.drops = 1 },
		"applied":   func(o *ingestObs) { o.applied-- },
		"snapshot": func(o *ingestObs) {
			o.want = map[string]any{"loss": []int{1}, "phase": []int{2}, "workload": []int{4}}
		},
	} {
		o := good
		broken(&o)
		if !failed(ingestGates(o))[name] {
			t.Errorf("gate %s did not fire", name)
		}
	}
}

// sweepOuts runs the sweep once and returns its outputs. It runs at
// full size, the size the gates are checked at: at test size the δ =
// 500 ms job sends 40 probes, too few for the loss-order gates to tell
// a swapped Table 3 row from sampling noise.
func sweepOuts(t *testing.T) []sweepOut {
	t.Helper()
	inst, err := setupSweep(&env{seed: DefaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*sweepRun)
	if _, _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	if got := failed(s.check()); len(got) > 0 {
		t.Fatalf("clean sweep failed gates %v", got)
	}
	return s.outs
}

func TestSweepGatesFire(t *testing.T) {
	outs := sweepOuts(t)
	find := func(o []sweepOut, preset string, d time.Duration) *sweepOut {
		for i := range o {
			if o[i].preset == preset && o[i].delta == d {
				return &o[i]
			}
		}
		t.Fatalf("no %s δ=%v job", preset, d)
		return nil
	}
	for name, broken := range map[string]func([]sweepOut){
		"mu-exact": func(o []sweepOut) { find(o, "inria-exact", 50*time.Millisecond).est.BottleneckBps *= 1.1 },
		"intercept-preset": func(o []sweepOut) {
			find(o, "inria", 50*time.Millisecond).est.InterceptMs += 3
		},
		"ulp-falls": func(o []sweepOut) {
			a, b := find(o, "inria", 8*time.Millisecond), find(o, "inria", 500*time.Millisecond)
			a.loss, b.loss = b.loss, a.loss
		},
		"clp-ge-ulp": func(o []sweepOut) {
			r := find(o, "inria", 8*time.Millisecond)
			r.loss.ULP, r.loss.CLP = r.loss.CLP, r.loss.ULP
		},
		"table3-ends": func(o []sweepOut) {
			r := find(o, "inria", 500*time.Millisecond)
			r.loss = loss.Stats{N: r.loss.N, ULP: 0.5, CLP: 0.9}
		},
	} {
		o := append([]sweepOut(nil), outs...)
		broken(o)
		if !failed(sweepGates(o))[name] {
			t.Errorf("gate %s did not fire", name)
		}
	}
	o := append([]sweepOut(nil), outs...)
	find(o, "inria", 50*time.Millisecond).estErr = phase.ErrNoCompression
	if !failed(sweepGates(o))["intercept-preset"] {
		t.Error("intercept-preset did not fire on a missing compression line")
	}
}

func TestAllocGate(t *testing.T) {
	reps := []rep{{events: 100, mallocs: 1000, allocBytes: 9000}, {events: 100, mallocs: 1000, allocBytes: 9000}}
	if allocGate(reps).err != nil {
		t.Fatal("equal reps failed the alloc gate")
	}
	reps[1].mallocs = 1002
	if allocGate(reps).err == nil {
		t.Fatal("a 0.2 % allocation drift passed the alloc gate")
	}
}

func TestSeriesKeepsAnEvenSubsample(t *testing.T) {
	s := &series{stride: 1}
	for i := 0; i < 5*maxSamples; i++ {
		s.add(float64(i))
	}
	sum := s.summarize(1)
	if sum.N != 5*maxSamples || sum.Kept > maxSamples || sum.Kept < maxSamples/2 {
		t.Fatalf("n %d kept %d", sum.N, sum.Kept)
	}
	if mid := float64(5*maxSamples) / 2; sum.P50 < mid*0.99 || sum.P50 > mid*1.01 {
		t.Fatalf("p50 %v, want ≈ %v", sum.P50, mid)
	}
	if sum.TailPct != 99.9 || sum.Max != float64(5*maxSamples-1) {
		t.Fatalf("tail p%v max %v", sum.TailPct, sum.Max)
	}
}

func TestMedianOfTiedNanoseconds(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{30, 30, 30, 30}, 30},
		{[]float64{29, 30, 30, 30}, 29.5 + 1.0/3},
		{[]float64{30, 30, 30, 31}, 29.5 + 2.0/3},
		{[]float64{1.5, 2.5}, 2},
	} {
		if got := median50(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("median50(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
