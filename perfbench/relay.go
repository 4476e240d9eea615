package main

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"netprobe/internal/obs"
	"netprobe/internal/online"
	"netprobe/internal/otrace"
	"netprobe/internal/pipestat"
	"netprobe/internal/source"
	"netprobe/internal/tshist"
)

// The relay shape both streaming workloads feed, wired like
// cmd/netdyn-relay: a source.Serve listener into a sharded online.Pool
// running the default analyzers and a pipestat monitor per shard, with
// a conservation ledger over it, and a scraper that reads the pool's
// snapshots and samples a tshist store beside the writes.
//
// The scraper runs once per scrapeEvery applied events, not on a
// clock: on a closed loop a clocked scraper does less work per event
// the faster the rep runs, which feeds back into the timing. At the
// relay-ingest rate it is the same thing as a 100 ms interval.

const (
	relayShards  = 2
	scrapeEvery  = 10_000
	drainTimeout = 10 * time.Second
	// sampleInterval is the tshist store's nominal interval, which
	// sizes its rings.
	sampleInterval = 100 * time.Millisecond
)

type relay struct {
	tr       *tracer
	reg      *obs.Registry
	ledger   *pipestat.Ledger
	chain    *pipestat.Chain
	monitors []*pipestat.Monitor
	lags     []*lagAnalyzer
	pool     *online.Pool
	srv      *source.Server
	store    *tshist.Store
	// origin is the instant event Values count from, in mono ns: an
	// event's Value is the ns offset from origin at which it was due.
	origin atomic.Int64
	// sent reports how many events the producer has put on the wire,
	// for the backlog the scraper samples.
	sent func() int64

	stop chan struct{}
	done chan struct{}
	// tick wakes the scraper; the final sink sends on it, without
	// blocking, each time the applied count crosses a multiple of
	// scrapeEvery.
	tick       chan struct{}
	total      atomic.Int64 // events applied across shards, for the scraper
	backlogMax int64
	queueMax   int64
	poolClosed bool
}

// newRelay starts a relay whose shard queues hold queue events each
// (0: the pool's default).
func newRelay(tr *tracer, queue int) (*relay, error) {
	r := &relay{tr: tr, reg: obs.NewRegistry(), tick: make(chan struct{}, 1)}
	r.ledger = pipestat.NewLedger(r.reg)
	r.chain = r.ledger.Chain("relay")
	r.pool = online.NewPool(relayShards, queue, func(int) []online.Analyzer {
		set := online.DefaultAnalyzers(r.reg)
		if tr != nil {
			for i, a := range set {
				set[i] = timedAnalyzer{Analyzer: a, t: tr.timer("online." + a.Name())}
			}
		}
		mon := pipestat.NewMonitor(r.chain)
		lag := &lagAnalyzer{r: r, t: tr.timer("relay.lag")}
		r.monitors = append(r.monitors, mon)
		r.lags = append(r.lags, lag)
		// The monitor goes last, so an event it has counted has been
		// through every other analyzer of its shard.
		return append(set, lag, mon)
	})
	r.chain.Applied("analyzers", r.applied)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var sink otrace.Sink = r.pool
	if tr != nil {
		sink = timedSink{next: r.pool, t: tr.timer("relay.ingest")}
	}
	// No Metrics: the per-source gauges hang off a process-lifetime
	// scrape hook, which would keep every rep's server reachable.
	r.srv, err = source.Serve(ln, source.ServerConfig{Sink: sink})
	if err != nil {
		ln.Close() //nolint:errcheck // the serve error is the one reported
		return nil, err
	}
	r.chain.Produced("ingress", func() int64 { d, q := r.srv.Totals(); return d + q })
	r.chain.Dropped("queue", func() int64 { _, q := r.srv.Totals(); return q })
	r.chain.Dropped("bus", r.pool.Dropped)
	r.store, err = tshist.New(tshist.Config{Registry: r.reg, Interval: sampleInterval, Window: time.Minute})
	if err != nil {
		r.srv.Close() //nolint:errcheck // the store error is the one reported
		return nil, err
	}
	return r, nil
}

func (r *relay) addr() string { return r.srv.Addr().String() }

// applied is what the analyzers applied across shards.
func (r *relay) applied() int64 {
	var n int64
	for _, m := range r.monitors {
		n += m.Applied()
	}
	return n
}

// start sets the Value origin to now and starts the scraper; sent
// reports the producer's wire count.
func (r *relay) start(sent func() int64) {
	r.origin.Store(mono())
	r.sent = sent
	r.stop, r.done = make(chan struct{}), make(chan struct{})
	go r.scrape()
}

func (r *relay) scrape() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		case <-r.tick:
		}
		tr := r.tr
		id, t0 := tr.newID(), tr.now()
		r.pool.Snapshots()
		tr.end("online.snapshot", id, 0, t0, true)
		id, t0 = tr.newID(), tr.now()
		r.store.Sample()
		tr.end("tshist.sample", id, 0, t0, true)
		for _, q := range r.pool.Status().Queue {
			r.queueMax = max(r.queueMax, int64(q.QueueLen))
		}
		delivered, _ := r.srv.Totals()
		r.backlogMax = max(r.backlogMax, r.sent()-delivered)
	}
}

// stopScrape stops the scraper and records its maxima; it is a no-op
// when the scraper is not running.
func (r *relay) stopScrape() {
	if r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop = nil
	r.tr.observe("source.backlog", float64(r.backlogMax))
	r.tr.observe("online.queue", float64(r.queueMax))
}

// accounted is how many events the relay has received and either
// applied or dropped, at its server queue or a shard queue.
func (r *relay) accounted() int64 {
	_, queueDrops := r.srv.Totals()
	return r.applied() + r.pool.Dropped() + queueDrops
}

// drain waits until each of the want events sent to the relay has been
// applied or dropped, then stops the scraper. It returns when the last
// event was applied, as an offset from the origin. It does not judge
// the outcome: drops, and events still missing after drainTimeout, are
// for the gates to report.
func (r *relay) drain(want int64) time.Duration {
	deadline := time.Now().Add(drainTimeout)
	for r.accounted() < want && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	r.stopScrape()
	var last int64
	for _, l := range r.lags {
		last = max(last, l.last.Load())
	}
	return time.Duration(last)
}

// events is how many events reached the lag analyzers, the final sink.
func (r *relay) events() int64 {
	var n int64
	for _, l := range r.lags {
		n += l.n.Load()
	}
	return n
}

// sampleAllocs measures allocations per tshist sample while the relay
// is quiet.
func (r *relay) sampleAllocs() {
	if r.tr == nil {
		return
	}
	const n = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		r.store.Sample()
	}
	runtime.ReadMemStats(&m1)
	r.tr.observe("tshist.sample_allocs", float64(m1.Mallocs-m0.Mallocs)/n)
}

func (r *relay) close() error {
	r.stopScrape()
	err := r.srv.Close()
	if !r.poolClosed {
		r.pool.Close()
		r.pool.Wait()
	}
	r.store.Stop()
	return err
}

// closePool closes the pool once its input is drained; snapshots are
// final after it.
func (r *relay) closePool() {
	r.pool.Close()
	r.pool.Wait()
	r.poolClosed = true
}

// clockBase anchors mono, a monotonic clock in ns that goroutines can
// exchange as plain integers.
var clockBase = time.Now()

func mono() int64 { return int64(time.Since(clockBase)) }

// lagAnalyzer is the benchmark's own analyzer at the end of each
// shard: it counts the events that reached the final sink, keeps the
// time the last one did, and in traced runs records each event's lag
// behind the time it was due.
type lagAnalyzer struct {
	r    *relay
	t    timer
	n    atomic.Int64
	last atomic.Int64 // ns since origin
}

func (l *lagAnalyzer) Name() string { return "bench.lag" }

func (l *lagAnalyzer) HandleEvent(ev otrace.Event) {
	now := mono() - l.r.origin.Load()
	if l.r.total.Add(1)%scrapeEvery == 0 {
		select {
		case l.r.tick <- struct{}{}:
		default:
		}
	}
	l.n.Add(1)
	l.last.Store(now)
	if ev.Value > 0 {
		l.t.add(float64(now) - ev.Value)
	}
}

func (l *lagAnalyzer) Snapshot() any { return l.n.Load() }

// timedAnalyzer times each HandleEvent of the analyzer it wraps and
// keeps its snapshot merging, so the pool still merges shards.
type timedAnalyzer struct {
	online.Analyzer
	t timer
}

func (a timedAnalyzer) HandleEvent(ev otrace.Event) {
	t0 := time.Now()
	a.Analyzer.HandleEvent(ev)
	a.t.addSelf(int64(time.Since(t0)))
}

func (a timedAnalyzer) MergeSnapshots(parts []any) any {
	return a.Analyzer.(online.Merger).MergeSnapshots(parts)
}

// timedSink times each Emit into the sink it wraps.
type timedSink struct {
	next otrace.Sink
	t    timer
}

func (s timedSink) Emit(ev otrace.Event) {
	t0 := time.Now()
	s.next.Emit(ev)
	s.t.addSelf(int64(time.Since(t0)))
}

// countingConn counts the writes and bytes a Sender puts on its
// connection. The Sender serializes its writes, and the counts are
// read after it is closed.
type countingConn struct {
	net.Conn
	writes, bytes int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += int64(len(p))
	return c.Conn.Write(p)
}

// dialSender connects a counted Sender to the relay.
func dialSender(addr string) (*source.Sender, *countingConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	cc := &countingConn{Conn: conn}
	return source.NewSender(cc), cc, nil
}

// refSnapshots feeds events to an in-process reference pool of the
// same width and returns its merged snapshots of the default analyzers.
// The feed waits whenever a shard queue is half full, so nothing drops.
func refSnapshots(n int, event func(int) otrace.Event) (map[string]any, error) {
	pool := online.NewPool(relayShards, 0, func(int) []online.Analyzer {
		return online.DefaultAnalyzers(nil)
	})
	for i := 0; i < n; i++ {
		if i%1024 == 0 {
			for busy(pool) {
				time.Sleep(100 * time.Microsecond)
			}
		}
		pool.Emit(event(i))
	}
	pool.Close()
	pool.Wait()
	if pool.Dropped() > 0 {
		return nil, errors.New("reference pool dropped events")
	}
	return analyzerSnapshots(pool), nil
}

func busy(p *online.Pool) bool {
	for _, q := range p.Status().Queue {
		if q.QueueLen > q.QueueCap/2 {
			return true
		}
	}
	return false
}

// analyzerSnapshots is the merged snapshot of each default analyzer.
func analyzerSnapshots(p *online.Pool) map[string]any {
	out := make(map[string]any)
	for _, name := range []string{"loss", "phase", "workload"} {
		out[name], _ = p.SnapshotOf(name)
	}
	return out
}
