package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"bips/internal/locdb"
	"bips/internal/wire"
)

// metric is one reported number. n is the sample count behind a
// percentile, q the quantile actually reported and base the
// denominator of a ratio, for the readable report. A reportOnly metric
// is printed in the readable report but left out of the result line:
// the sub-millisecond latencies and every p99 move with the load on a
// shared 2-CPU host by more than any bound BENCHMARK.json may set (see
// README.md).
type metric struct {
	name, unit string
	value      float64
	n          int
	q          float64
	base       string
	reportOnly bool
}

type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
}

func (res *result) jsonLine() any {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]val, len(res.metrics))
	for _, x := range res.metrics {
		if !x.reportOnly {
			m[x.name] = val{x.value, x.unit}
		}
	}
	return struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.correct, res.attempted, res.failed, m}
}

// maxGenLag is the generator lateness (p99) beyond which a run is
// invalid: the offered load was not the schedule's.
const maxGenLag = 50 * time.Millisecond

// phaseOut is what execute measured around the fixed-rate phase.
type phaseOut struct {
	cpu, fixedDur   time.Duration
	cpuPerOp        time.Duration
	heapInuse       uint64
	satRate         float64
	checks          int64
	before, after   wire.StatsResult
	mem0, mem1      runtime.MemStats
	backlogMax      int64
	goroutinesMax   int64
	tr0, tr1        tracerCounts
	evTotal0, evTot int64
}

// tracerCounts snapshots the tracer's raw counters.
type tracerCounts struct {
	reads, writes, bytesOut, writeBusy, applyBusy, mutations, changed int64
}

func (tr *tracer) counts() tracerCounts {
	if tr == nil {
		return tracerCounts{}
	}
	return tracerCounts{tr.reads.Load(), tr.writes.Load(), tr.bytesOut.Load(), tr.writeBusy.Load(),
		tr.applyBusy.Load(), tr.mutations.Load(), tr.changed.Load()}
}

// benchmark runs one invocation and assembles its result.
func benchmark(cfg config) (*result, error) {
	header(cfg.out, cfg)
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return traced(cfg, dir, total/2)
	}
	return untraced(cfg, dir, total*3/4, total/4)
}

// untraced measures the end-to-end metrics: set-up (median of
// cfg.setupReps), the fixed-rate phase and the closed-loop phase.
func untraced(cfg config, dir string, fixed, sat time.Duration) (*result, error) {
	warm := fixed / 8
	r, err := newRunner(cfg, dir, warm, fixed-warm)
	if err != nil {
		return nil, err
	}
	var setups []int64
	for i := 0; i < cfg.setupReps; i++ {
		last := i == cfg.setupReps-1
		onEvent := r.onEvent
		if !last {
			onEvent = nil
		}
		sdir := filepath.Join(dir, fmt.Sprintf("stack%d", i))
		st, err := r.open(sdir, nil, onEvent)
		if err != nil {
			return nil, err
		}
		setups = append(setups, int64(st.setup))
		if last {
			r.st = st
			break
		}
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("close set-up %d: %w", i, err)
		}
		if err := os.RemoveAll(sdir); err != nil {
			return nil, err
		}
	}
	ph, err := r.execute(sat)
	if err != nil {
		return nil, err
	}
	setup := summarize(setups)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	res := &result{}
	durable, events, loc, hist := r.latencies()
	add := func(name, unit string, v float64, s summary, q float64, reportOnly bool) {
		res.metrics = append(res.metrics, metric{name: name, unit: unit, value: v, n: s.n, q: q, reportOnly: reportOnly})
	}
	add("setup_s", "s", setup.p50.Seconds(), setup, 0.5, false)
	add("durable_ack_p50_ms", "ms", ms(durable.p50), durable, 0.5, false)
	add("durable_ack_p99_ms", "ms", ms(durable.top), durable, durable.topQ, true)
	for _, l := range []struct {
		name string
		s    summary
	}{{"event_lag", events}, {"locate_rtt", loc}, {"history_rtt", hist}} {
		add(l.name+"_p50_ms", "ms", ms(l.s.p50), l.s, 0.5, true)
		add(l.name+"_p99_ms", "ms", ms(l.s.top), l.s, l.s.topQ, true)
	}
	units := r.fixedUnits.Load()
	res.metrics = append(res.metrics,
		metric{name: "saturated_ops_per_s", unit: "1/s", value: ph.satRate, base: fmt.Sprintf("over %v, %d in flight per connection", sat, r.wl.window)},
		metric{name: "cpu_us_per_op", unit: "us", value: float64(ph.cpuPerOp) / 1e3,
			base: fmt.Sprintf("median of %d windows; whole phase %v CPU / %d ops", measureWindows, ph.cpu.Round(time.Millisecond), units)},
		metric{name: "heap_mb", unit: "MB", value: float64(ph.heapInuse) / (1 << 20), base: "HeapInuse after two GCs"},
	)
	r.finish(res, ph)
	return res, nil
}

// traced runs the fixed-rate phase twice: once untraced, for the trace
// overhead's baseline, then with every layer decorated.
func traced(cfg config, dir string, fixed time.Duration) (*result, error) {
	warm := fixed / 8
	plain := cfg
	plain.trace = false
	r0, err := newRunner(plain, filepath.Join(dir, "plain"), warm, fixed-warm)
	if err != nil {
		return nil, err
	}
	if r0.st, err = r0.open(filepath.Join(dir, "plain", "stack"), nil, r0.onEvent); err != nil {
		return nil, err
	}
	ph0, err := r0.execute(0)
	if err != nil {
		return nil, err
	}
	res := &result{}
	fmt.Fprintln(cfg.out, "# untraced baseline pass:")
	r0.finish(res, ph0)
	fmt.Fprintln(cfg.out, "# traced pass:")

	r, err := newRunner(cfg, filepath.Join(dir, "traced"), warm, fixed-warm)
	if err != nil {
		return nil, err
	}
	if r.st, err = r.open(filepath.Join(dir, "traced", "stack"), r.tr, r.onEvent); err != nil {
		return nil, err
	}
	checkpoint := snapshotBytes(r.st.dir)
	ph, err := r.execute(0)
	if err != nil {
		return nil, err
	}
	r.layerMetrics(res, ph, checkpoint)
	res.metrics = append(res.metrics, metric{name: "bench.trace_overhead_pct", unit: "%", value: traceOverhead(r0, r),
		base: "mean of traced/untraced p50 - 1 over durable_ack, event_lag, locate_rtt, history_rtt"})

	spans := r.frameSpans()
	layers := selfTimes(spans)
	aggregate := map[string]any{}
	for name, rec := range map[string]*recorder{
		"locdb.locate": &r.tr.locate, "locdb.locate_at": &r.tr.locateAt, "locdb.trajectory": &r.tr.trajectory,
	} {
		s := rec.summary()
		aggregate[name] = map[string]any{"calls": s.n, "p50_us": float64(s.p50) / 1e3}
	}
	aggregate["server.conn"] = map[string]any{"writes": ph.tr1.writes - ph.tr0.writes, "reads": ph.tr1.reads - ph.tr0.reads,
		"write_busy_ms": float64(ph.tr1.writeBusy-ph.tr0.writeBusy) / 1e6}
	path, err := writeSpans(cfg.spanDir, fmt.Sprintf("%s-seed%d", cfg.wl.name, cfg.seed), spans, layers, aggregate)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(cfg.out, "# %d spans written to %s\n", len(spans), path)
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := layers[n]
		fmt.Fprintf(cfg.out, "# self time %-10s %8d spans %12.1f ms total %12.1f ms self\n", n, l.Spans, l.TotalMS, l.SelfMS)
	}
	r.finish(res, ph)
	return res, nil
}

// execute runs a pass on its open stack: placement, the fixed-rate
// phase, the closed-loop phase when sat > 0, the drain and the oracle,
// then closes the stack.
func (r *runner) execute(sat time.Duration) (ph phaseOut, err error) {
	defer func() {
		if cerr := r.st.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close stack: %w", cerr)
		}
	}()
	if err := r.place(); err != nil {
		return ph, fmt.Errorf("placement: %w", err)
	}
	tail, err := startTailer(r.st.dir, r.onWAL)
	if err != nil {
		return ph, err
	}
	stopSampler := func() {}
	if r.tr != nil {
		stopSampler = r.sample(&ph)
		r.tr.on.Store(true)
	}
	ph.before = r.st.srv.StatsResult()
	ph.tr0 = r.tr.counts()
	runtime.ReadMemStats(&ph.mem0)
	r.evMu.Lock()
	ph.evTotal0 = r.evTotal
	r.evMu.Unlock()
	t := time.Now()
	if ph.cpu, ph.cpuPerOp, ph.heapInuse, err = r.fixedPhase(); err != nil {
		return ph, err
	}
	ph.fixedDur = time.Since(t)
	runtime.ReadMemStats(&ph.mem1)
	ph.tr1 = r.tr.counts()
	ph.after = r.st.srv.StatsResult()
	r.evMu.Lock()
	ph.evTot = r.evTotal
	r.evMu.Unlock()
	stopSampler()
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	if sat > 0 {
		ph.satRate = r.saturate(sat)
	}
	e := r.expect()
	r.drain(e, 10*time.Second)
	ph.checks = r.check(e) + r.finalLocates(e)
	end := r.st.srv.StatsResult().Counters
	r.failures.add("slow_consumer", end["fanout.slow_kills"], "%d subscriber connections killed as slow consumers", end["fanout.slow_kills"])
	r.failures.add("events_dropped", end["fanout.events_dropped"], "%d events dropped", end["fanout.events_dropped"])
	if err := tail.close(); err != nil {
		return ph, fmt.Errorf("WAL tailer: %w", err)
	}
	if n := tail.corrupt.Load(); n > 0 {
		r.failures.add("wal", n, "%d WAL records failed their CRC", n)
	}
	if gl := r.genLag.windowed(); gl.top > maxGenLag {
		r.failures.add("generator", 1, "generator p%g lateness %v exceeds %v: the run is invalid", gl.topQ*100, gl.top, maxGenLag)
	}
	return ph, nil
}

// sample records the fan-out ring's peak depth and the goroutine peak
// every millisecond until the returned stop function is called.
func (r *runner) sample(ph *phaseOut) (stop func()) {
	var backlog, gor atomic.Int64
	done, quit := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
			}
			if b := int64(r.st.srv.Fanout().Stats().Backlog); b > backlog.Load() {
				backlog.Store(b)
			}
			if g := int64(runtime.NumGoroutine()); g > gor.Load() {
				gor.Store(g)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		ph.backlogMax, ph.goroutinesMax = backlog.Load(), gor.Load()
	}
}

// latencies summarizes the four end-to-end latencies over the measured
// part of the fixed-rate phase. A frame's durable ack is its time from
// due to both its ack and all its moves being in the WAL.
func (r *runner) latencies() (durable, events, locate, history summary) {
	var acks series
	acks.init(r.warm, r.fixedEnd)
	for _, f := range r.frames {
		if a, d := f.acked.Load(), f.durable.Load(); a != 0 && d != 0 {
			acks.add(f.due, time.Duration(max(a, d)-(r.phaseStart+f.due)))
		}
	}
	return acks.windowed(), r.evLag.windowed(), r.locateRTT.windowed(), r.historyRTT.windowed()
}

// finish adds the pass's attempts and failures to res and prints the
// readable report.
func (r *runner) finish(res *result, ph phaseOut) {
	attempted := r.attempted.Load() + ph.checks
	failed := r.failures.total()
	res.attempted += attempted
	res.failed += failed
	res.correct = res.failed == 0
	out := r.cfg.out
	for _, m := range res.metrics {
		extra := ""
		if m.n > 0 {
			extra = fmt.Sprintf("  (n=%d", m.n)
			if m.q != 0.5 {
				extra += fmt.Sprintf(", p%g", m.q*100)
			}
			extra += ")"
		}
		if m.base != "" {
			extra += "  [" + m.base + "]"
		}
		if m.reportOnly {
			extra += "  (report only)"
		}
		fmt.Fprintf(out, "%-34s %14.6g %-8s%s\n", m.name, m.value, m.unit, extra)
	}
	ack, gl := r.ackOnly.summary(), r.genLag.windowed()
	fmt.Fprintf(out, "%-34s %14.6g %-8s  (failed %d / attempted %d)\n", "error_ratio", float64(failed)/float64(max(1, attempted)), "ratio", failed, attempted)
	fmt.Fprintf(out, "# ack-only p50 %v p%g %v (n=%d); generator lateness p50 %v p%g %v (n=%d)\n",
		ack.p50, ack.topQ*100, ack.top, ack.n, gl.p50, gl.topQ*100, gl.top, gl.n)
	fmt.Fprintf(out, "# busiest device moved %d times; %d devices reached the %d-move history limit\n",
		r.maxMoves, r.fullDevices, locdb.DefaultHistoryLimit)
	for _, line := range r.failures.describe() {
		fmt.Fprintln(out, "#", line)
	}
}

// snapshotBytes is the size of the checkpoints in a data directory.
func snapshotBytes(dir string) int64 {
	paths, _ := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	var n int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}
