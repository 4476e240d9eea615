package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"netprobe/internal/coord"
	"netprobe/internal/netdyn"
	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
	"netprobe/internal/runner"
	"netprobe/internal/source"
)

// fleet-campaign: a closed loop that runs a fixed number of short jobs
// through a journaled coordinator and one agent of capacity 2, wired
// like netdyn-probe's agent mode (pipestat chain → bounded queue →
// Sender) into the relay shape. Dispatch and ack round trips, journal
// appends and per-job analyzer state dominate. The executor is a
// seeded synthetic run shaped like coord.RunLoad's sessions: sims would
// bury the control plane under their 30 s cross-traffic horizon.
var fleetCampaign = workload{name: "fleet-campaign", setup: setupFleet}

const (
	// fleetPairs is the probe_sent/rtt pairs per job, RunLoad's default.
	fleetPairs    = 10
	agentCapacity = 2
	// agentQueue is the agent's bounded queue, as in netdyn-probe.
	agentQueue = 4096
	// warmJobs run through the whole path during set-up.
	warmJobs = 100
	// fleetTimeout bounds the wait for the job table to go idle; jobs
	// still open after it fail the exactly-once gate.
	fleetTimeout = 60 * time.Second
)

// fleetJobs is the fixed work of one rep. The count is fixed because
// the coordinator's cost per job grows with its table.
func fleetJobs(tiny bool) int {
	if tiny {
		return 100
	}
	return 8000
}

type fleetRun struct {
	e       *env
	n       int
	specs   []coord.Spec
	relay   *relay
	wire    *pipestat.Chain // the agent's data plane, up to the Sender
	journal *coord.Journal
	co      *coord.Coordinator
	sender  *source.Sender
	conn    *countingConn
	bounded *otrace.Bounded
	cancel  context.CancelFunc
	agent   chan error

	mu        sync.Mutex
	execs     map[string]int   // instance id → executions
	submitted map[string]int64 // instance id → submit time, mono ns (traced)
	free      []int64          // executor return times of idle slots (traced)

	want int64 // events the relay must apply, warm-up included
}

func setupFleet(e *env) (instance, error) {
	f := &fleetRun{e: e, n: fleetJobs(e.tiny), execs: make(map[string]int),
		submitted: make(map[string]int64), agent: make(chan error, 1)}
	for i := 0; i < f.n; i++ {
		f.specs = append(f.specs, coord.Spec{Name: fmt.Sprintf("job%05d", i), Mode: "synthetic",
			Delta: coord.Duration(20 * time.Millisecond), Count: fleetPairs,
			Seed: runner.DeriveSeed(e.seed, i)})
	}
	var err error
	if f.relay, err = newRelay(e.tr, e.poolQueue); err != nil {
		return nil, err
	}
	if err := f.start(); err != nil {
		f.close() //nolint:errcheck // the start error is the one reported
		return nil, err
	}
	return f, nil
}

// start opens the journal, the coordinator and the agent, and warms
// the whole path up with warmJobs jobs.
func (f *fleetRun) start() error {
	r := f.relay
	var err error
	path := filepath.Join(f.e.tmp, fmt.Sprintf("journal-%d", time.Now().UnixNano()))
	if f.journal, _, err = coord.OpenJournal(path, coord.JournalOptions{}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.co = coord.Serve(ln, coord.Config{Journal: f.journal})
	if f.sender, f.conn, err = dialSender(r.addr()); err != nil {
		return err
	}
	// The agent's data plane, as netdyn-probe -agent wires it.
	wire := r.ledger.Chain("wire")
	f.wire = wire
	wire.Applied("sender", f.sender.Sent)
	wire.Dropped("sender", f.sender.Dropped)
	var send otrace.Sink = f.sender
	if f.e.tr != nil {
		send = timedSink{next: f.sender, t: f.e.tr.timer("source.emit")}
	}
	f.bounded = otrace.NewBounded(wire.Stage(pipestat.StageWireSent, send), agentQueue)
	wire.Dropped("queue", f.bounded.Dropped)
	var sink otrace.Sink = wire.Produce(f.bounded)
	if f.e.wrapSink != nil {
		sink = f.e.wrapSink(sink)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go func() {
		f.agent <- coord.RunAgent(ctx, ln.Addr().String(), coord.AgentConfig{
			Name: "bench-agent", Capacity: agentCapacity, Run: f.execute, Sink: sink, Seed: f.e.seed})
	}()
	r.start(f.sender.Sent)
	for i := 0; i < warmJobs; i++ {
		warm := coord.Spec{Name: fmt.Sprintf("warmup%03d", i), Mode: "synthetic",
			Delta: coord.Duration(20 * time.Millisecond), Count: fleetPairs,
			Seed: runner.DeriveSeed(^f.e.seed, i)}
		f.co.Submit(warm)
		f.want += jobEvents(warm)
	}
	f.settle()
	return nil
}

// settle waits for the job table to go idle and the pipeline to drain:
// every event the agent produced has been sent or dropped, and every
// event sent has reached the relay and been applied or dropped there.
// It does not judge the outcome: jobs still open after fleetTimeout,
// drops, and events still missing after drainTimeout are for the gates
// to report.
func (f *fleetRun) settle() {
	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()
	f.co.WaitIdle(ctx) //nolint:errcheck // open jobs fail the exactly-once gate
	r := f.relay
	for deadline := time.Now().Add(drainTimeout); time.Now().Before(deadline); {
		delivered, queueDrops := r.srv.Totals()
		if f.wire.Unaccounted() == 0 && delivered+queueDrops == f.sender.Sent() && r.chain.Unaccounted() == 0 {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// jobEvents is how many events one job puts on the data plane: the
// agent's job_start and job_finish, run_start, and a probe_sent and an
// rtt per pair.
func jobEvents(s coord.Spec) int64 { return int64(3 + 2*s.Count) }

// execute is the agent's executor: the synthetic run of RunLoad's
// sessions, run_start and Count probe_sent/rtt pairs with no losses and
// an RTT of 20 ms scaled by netdyn.RetryJitter's seeded 0.5–1.5 factor.
func (f *fleetRun) execute(ctx context.Context, id string, spec coord.Spec, sink otrace.Sink) (coord.Result, error) {
	tr := f.e.tr
	enter := mono()
	f.mu.Lock()
	f.execs[id]++
	if tr != nil {
		if at, ok := f.submitted[id]; ok {
			tr.observe("coord.job_wait", float64(enter-at))
		}
		if len(f.free) > 0 {
			tr.observe("coord.slot_gap", float64(enter-f.free[0]))
			f.free = f.free[1:]
		}
	}
	f.mu.Unlock()
	// The loop is closed through the data plane too. A paced probe
	// never outruns the agent's Sender, but this executor emits a whole
	// job in microseconds, and left alone it overran the 4096-event
	// bounded queue on a host with CPU steal. So it waits while the
	// queue is more than half full; the queue still drops what a
	// stalled Sender cannot take, and the gates report it.
	for f.wire.Unaccounted() > agentQueue/2 && ctx.Err() == nil {
		time.Sleep(50 * time.Microsecond)
	}
	job, t0 := tr.newID(), tr.now()
	origin := f.relay.origin.Load()
	sink.Emit(otrace.Event{Ev: otrace.KindRunStart, Name: spec.Name, DeltaNs: int64(spec.Delta),
		PayloadBytes: 32, WireBytes: 72, BottleneckBps: 1_000_000, Count: spec.Count,
		Value: float64(mono() - origin)})
	for k := 0; k < spec.Count; k++ {
		t := int64(k) * int64(spec.Delta)
		sink.Emit(otrace.Event{Ev: otrace.KindProbeSent, Seq: k, T: t, Value: float64(mono() - origin)})
		rtt := int64(float64(20*time.Millisecond) * netdyn.RetryJitter(spec.Seed, k, 0))
		sink.Emit(otrace.Event{Ev: otrace.KindRTT, Seq: k, T: t + rtt, RTTNs: rtt, Value: float64(mono() - origin)})
	}
	tr.end("agent.execute", job, 0, t0, true)
	if tr != nil {
		f.mu.Lock()
		f.free = append(f.free, mono())
		f.mu.Unlock()
	}
	return coord.Result{Probes: spec.Count}, ctx.Err()
}

func (f *fleetRun) run() (int64, time.Duration, error) {
	tr := f.e.tr
	applied0 := f.relay.applied()
	root, t0 := tr.newID(), tr.now()
	start := time.Now()
	for _, s := range f.specs {
		if tr != nil {
			// The coordinator names a one-shot instance after its spec
			// when the name is unused, as every name here is.
			f.mu.Lock()
			f.submitted[s.Name] = mono()
			f.mu.Unlock()
		}
		id, c0 := tr.newID(), tr.now()
		f.co.Submit(s)
		tr.end("coord.submit", id, root, c0, true)
		f.want += jobEvents(s)
	}
	f.settle()
	wall := time.Since(start)
	f.relay.stopScrape()
	tr.end("fleet.campaign", root, 0, t0, false)
	return f.relay.applied() - applied0, wall, nil
}

func (f *fleetRun) check() []gate {
	r := f.relay
	counts := f.co.Counts()
	delivered, _ := r.srv.Totals()
	f.mu.Lock()
	execs := make(map[string]int, len(f.execs))
	for id, n := range f.execs {
		execs[id] = n
	}
	f.mu.Unlock()
	return fleetGates(fleetObs{
		jobs: f.n + warmJobs, counts: counts, execs: execs,
		want: f.want, delivered: delivered, applied: r.applied(),
		queueDrops: f.bounded.Dropped(), poolDrops: r.pool.Dropped(),
		unaccounted: r.ledger.Unaccounted(),
	})
}

// fleetObs is what the fleet-campaign gates look at.
type fleetObs struct {
	jobs        int
	counts      coord.JobCounts
	execs       map[string]int // instance id → executions
	want        int64          // events the jobs emitted
	delivered   int64
	applied     int64
	queueDrops  int64
	poolDrops   int64
	unaccounted int64
}

// fleetGates: every job completed exactly once and none failed; the
// relay delivered and applied every event the jobs emitted; no queue
// dropped; the pipeline ledger balances.
func fleetGates(o fleetObs) []gate {
	var once, extra int
	for _, n := range o.execs {
		if n == 1 {
			once++
		} else {
			extra += n - 1
		}
	}
	return []gate{
		gateIf("exactly-once", o.counts.Completed != o.jobs || o.counts.Failed != 0 || once != o.jobs || extra != 0,
			"completed %d, failed %d of %d jobs; %d executed once, %d extra executions",
			o.counts.Completed, o.counts.Failed, o.jobs, once, extra),
		gateIf("relay-events", o.delivered != o.want || o.applied != o.want,
			"relay delivered %d and applied %d events, jobs emitted %d", o.delivered, o.applied, o.want),
		gateIf("queue-drops", o.queueDrops+o.poolDrops > 0,
			"dropped: agent queue %d, pool %d", o.queueDrops, o.poolDrops),
		gateIf("ledger", o.unaccounted != 0, "pipeline ledger unaccounted %d", o.unaccounted),
	}
}

// probe times the coordinator calls that run inside it — Counts on the
// full table and the journal append of its own frame mix — and reads
// the journal's and the wire's per-job costs.
func (f *fleetRun) probe() {
	tr := f.e.tr
	jobs := float64(f.n + warmJobs)
	appends, compactions := f.journal.Stats()
	tr.observe("coord.journal_appends_per_job", float64(appends)/jobs)
	if compactions == 0 {
		tr.observe("coord.journal_bytes_per_job", float64(f.journal.Size())/jobs)
	}
	for i := 0; i < 20; i++ {
		id, t0 := tr.newID(), tr.now()
		f.co.Counts()
		tr.end("coord.counts", id, 0, t0, false)
	}
	f.sender.Close() //nolint:errcheck // read-only use of the counts below
	tr.observe("source.writes_per_event", float64(f.conn.writes)/float64(f.want))
	tr.observe("source.bytes_per_event", float64(f.conn.bytes)/float64(f.want))
	f.relay.sampleAllocs()
	var frames []otrace.Event
	if err := otrace.ReadFile(f.journal.Path(), func(ev otrace.Event) error {
		frames = append(frames, ev)
		return nil
	}); err != nil {
		return
	}
	codecProbe(tr, frames)
	j, _, err := coord.OpenJournal(f.journal.Path()+".probe", coord.JournalOptions{})
	if err != nil {
		return
	}
	for _, ev := range frames {
		id, t0 := tr.newID(), tr.now()
		j.Append(ev)
		tr.end("coord.journal_append", id, 0, t0, false)
	}
	j.Close() //nolint:errcheck // a probe journal, deleted with the scratch directory
}

func (f *fleetRun) notes() map[string]float64 {
	appends, _ := f.journal.Stats()
	return map[string]float64{
		"jobs":              float64(f.n),
		"journal_appends":   float64(appends),
		"journal_bytes":     float64(f.journal.Size()),
		"events_per_job":    float64(f.want) / float64(f.n+warmJobs),
		"agent_connections": 2,
	}
}

func (f *fleetRun) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if f.cancel != nil {
		f.cancel()
		<-f.agent
	}
	if f.co != nil {
		keep(f.co.Close())
	}
	if f.bounded != nil {
		keep(f.bounded.Close())
	}
	if f.sender != nil {
		f.sender.Close() //nolint:errcheck // the stream's state was checked by the gates
	}
	if f.journal != nil {
		keep(f.journal.Close())
	}
	keep(f.relay.close())
	return first
}
