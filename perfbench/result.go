package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one benchmark run: its metrics, its correctness tally and
// the run record printed next to it.
type result struct {
	attempted int
	failed    int
	metrics   map[string]metric
	record    runRecord
}

// runRecord says where and how a result was measured.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Machine  machine `json:"machine"`
	// StealPct is the share of the machine's CPU time the hypervisor
	// stole during the measured phases, from /proc/stat.
	StealPct float64 `json:"steal_pct"`
	Reps     int     `json:"reps"`
	// PerRep lists each end-to-end metric per rep, for the spread.
	PerRep map[string][]float64 `json:"per_rep"`
	// Notes are workload-specific medians over the reps, such as the
	// relay generator's lateness.
	Notes    map[string]float64 `json:"notes,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	// Layers states every per-layer metric's sample count, tail and
	// the workload whose run produced it.
	Layers map[string]layerRecord `json:"layers,omitempty"`
}

type machine struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

type layerRecord struct {
	From string `json:"from"`
	summary
}

func newResult(w workload, o runOptions, traced bool) *result {
	return &result{
		metrics: make(map[string]metric),
		record: runRecord{
			Workload: w.name,
			Seed:     o.seed,
			Traced:   traced,
			Machine:  thisMachine(),
			PerRep:   make(map[string][]float64),
		},
	}
}

func (r *result) addGates(gates []gate) {
	for _, g := range gates {
		r.attempted++
		if g.err != nil {
			r.failed++
			r.record.Failures = append(r.record.Failures, g.name+": "+g.err.Error())
		}
	}
}

// addReps records the reps' spread, steal share and notes.
func (r *result) addReps(reps []rep) {
	var steal, total uint64
	notes := make(map[string][]float64)
	for _, p := range reps {
		for name, m := range endToEnd([]rep{p}) {
			r.record.PerRep[name] = append(r.record.PerRep[name], m.Value)
		}
		steal += p.steal
		total += p.total
		for k, v := range p.notes {
			notes[k] = append(notes[k], v)
		}
	}
	r.record.Reps += len(reps)
	if total > 0 {
		r.record.StealPct = 100 * float64(steal) / float64(total)
	}
	if len(notes) > 0 {
		r.record.Notes = make(map[string]float64)
		for k, v := range notes {
			r.record.Notes[k] = median(v)
		}
	}
}

// summary is the last line of the benchmark's output.
func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
}

func newEnv(o runOptions, tr *tracer, tmp string) *env {
	return &env{seed: o.seed, tiny: o.tiny, tr: tr, tmp: tmp}
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(w workload, o runOptions) (*result, error) {
	tmp, err := scratchDir(o.outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	res := newResult(w, o, false)
	reps, gates, err := repeat(w, newEnv(o, nil, tmp), o.budget, minReps, procStart)
	res.addGates(gates)
	if err != nil {
		return nil, err
	}
	res.addReps(reps)
	res.metrics = endToEnd(reps)
	return res, nil
}

// tracedRun measures the per-layer metrics: half the budget untraced,
// half traced (the difference is the tracing overhead), then one traced
// rep of each other workload for the layers this one does not exercise.
// That rep runs at the workload's own size, the size its gates are
// checked at: the sweep's estimators miss their targets on short
// traces.
func tracedRun(w workload, o runOptions) (*result, error) {
	tmp, err := scratchDir(o.outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	res := newResult(w, o, true)
	base, gates, err := repeat(w, newEnv(o, nil, tmp), o.budget/2, minReps, procStart)
	res.addGates(gates)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, gates, err := repeat(w, newEnv(o, tr, tmp), o.budget/2, minReps, time.Now())
	res.addGates(gates)
	if err != nil {
		return nil, err
	}
	res.addReps(traced)
	sources := []layerSource{{w.name, tr}}
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		lt := newTracer()
		_, gates, err := repeat(other, newEnv(o, lt, tmp), 0, 1, time.Now())
		res.addGates(gates)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", other.name, err)
		}
		sources = append(sources, layerSource{other.name + " (one rep)", lt})
	}
	res.metrics, res.record.Layers = perLayer(sources)

	b, t := endToEnd(base), endToEnd(traced)
	res.metrics["trace.overhead.events_per_s"] = metric{
		t["events_per_s"].Value - b["events_per_s"].Value, "1/s"}
	res.metrics["trace.overhead.cpu_us_per_event"] = metric{
		t["cpu_us_per_event"].Value - b["cpu_us_per_event"].Value, "us"}
	shares := make([]float64, len(traced))
	for i, r := range traced {
		shares[i] = 100 * r.accounted.Seconds() / r.cpu.Seconds()
	}
	res.metrics["trace.layer_share"] = metric{median(shares), "%"}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	for _, s := range sources {
		name := strings.ReplaceAll(strings.TrimSuffix(s.name, " (one rep)"), " ", "-")
		if s.tr != tr {
			name = w.name + "-ladder-" + name
		}
		if err := s.tr.writeSpans(spanPath(o.outDir, name, o.seed)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// layerSource is a traced run whose series feed the per-layer metrics.
type layerSource struct {
	name string
	tr   *tracer
}

// layerMetrics lists every per-layer metric: the tracer series it
// reads, the factor from the series' unit to the metric's, and
// whether it reports the series' maximum instead of its median.
var layerMetrics = []struct {
	name, unit, series string
	scale              float64
	max                bool
}{
	{"sim.ns_per_event", "ns", "sim.ns_per_event", 1, false},
	{"sim.allocs_per_event", "allocs/event", "sim.allocs_per_event", 1, false},
	{"runner.utilization", "ratio", "runner.utilization", 1, false},
	{"phase.estimate_us", "us", "phase.estimate", 1e-3, false},
	{"loss.analyze_us", "us", "loss.analyze", 1e-3, false},
	{"workload.analyze_us", "us", "workload.analyze", 1e-3, false},
	{"otrace.encode_ns_per_event", "ns", "otrace.encode_ns_per_event", 1, false},
	{"otrace.decode_ns_per_event", "ns", "otrace.decode_ns_per_event", 1, false},
	{"otrace.decode_allocs_per_event", "allocs/event", "otrace.decode_allocs_per_event", 1, false},
	{"source.emit_ns", "ns", "source.emit", 1, false},
	{"source.writes_per_event", "writes/event", "source.writes_per_event", 1, false},
	{"source.bytes_per_event", "B/event", "source.bytes_per_event", 1, false},
	{"source.backlog_max", "events", "source.backlog", 1, true},
	{"relay.lag_ms", "ms", "relay.lag", 1e-6, false},
	{"online.loss.ns_per_event", "ns", "online.loss", 1, false},
	{"online.phase.ns_per_event", "ns", "online.phase", 1, false},
	{"online.workload.ns_per_event", "ns", "online.workload", 1, false},
	{"online.queue_max", "events", "online.queue", 1, true},
	{"online.snapshot_ms", "ms", "online.snapshot", 1e-6, false},
	{"tshist.sample_us", "us", "tshist.sample", 1e-3, false},
	{"tshist.sample_allocs", "allocs", "tshist.sample_allocs", 1, false},
	{"coord.submit_us", "us", "coord.submit", 1e-3, false},
	{"coord.job_wait_ms", "ms", "coord.job_wait", 1e-6, false},
	{"coord.slot_gap_ms", "ms", "coord.slot_gap", 1e-6, false},
	{"coord.counts_us", "us", "coord.counts", 1e-3, false},
	{"coord.journal_appends_per_job", "appends/job", "coord.journal_appends_per_job", 1, false},
	{"coord.journal_bytes_per_job", "B/job", "coord.journal_bytes_per_job", 1, false},
	{"coord.journal_append_us", "us", "coord.journal_append", 1e-3, false},
}

// perLayer reads every per-layer metric from the first source that
// recorded it: the workload's own traced reps first, then the single
// reps of the others.
func perLayer(sources []layerSource) (map[string]metric, map[string]layerRecord) {
	metrics := make(map[string]metric)
	records := make(map[string]layerRecord)
	for _, lm := range layerMetrics {
		for _, src := range sources {
			s := src.tr.lookup(lm.series)
			if s == nil {
				continue
			}
			sum := s.summarize(lm.scale)
			v := sum.P50
			if lm.max {
				v = sum.Max
			}
			metrics[lm.name] = metric{v, lm.unit}
			records[lm.name] = layerRecord{From: src.name, summary: sum}
			break
		}
	}
	return metrics, records
}

func thisMachine() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// workloads is every workload in the order the ladder runs them.
var workloads = []workload{paperSweep, relayIngest, fleetCampaign}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
