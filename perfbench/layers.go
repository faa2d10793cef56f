package main

import (
	"fmt"
	"strings"
	"time"
)

// layerMetrics computes the traced pass's per-layer metrics. Ratios are
// taken from raw counters over the fixed-rate phase and carry their
// base in the report.
func (r *runner) layerMetrics(res *result, ph phaseOut, checkpointBytes int64) {
	tr := r.tr
	st := r.st
	ops := r.fixedUnits.Load()
	d0, d1 := ph.tr0, ph.tr1
	c0, c1 := ph.before.Counters, ph.after.Counters
	changed := d1.changed - d0.changed
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	add := func(name, unit string, v float64, base string) {
		res.metrics = append(res.metrics, metric{name: name, unit: unit, value: v, base: base})
	}
	// pct adds a median and a p99: "x_ms" names x_p50_ms and x_p99_ms,
	// "x_us" names x_us_p50 and x_us_p99 (the unit then leads).
	pct := func(name string, s summary) {
		base, unit := name[:len(name)-3], name[len(name)-2:]
		scale := ms
		p50, p99 := base+"_p50_ms", base+"_p99_ms"
		if unit == "us" {
			scale = us
			p50, p99 = name+"_p50", name+"_p99"
		}
		res.metrics = append(res.metrics,
			metric{name: p50, unit: unit, value: scale(s.p50), n: s.n, q: 0.5},
			metric{name: p99, unit: unit, value: scale(s.top), n: s.n, q: s.topQ})
	}
	ratio := func(num, den int64) float64 { return float64(num) / float64(max(1, den)) }

	// server
	add("server.conn_writes_per_op", "count/op", ratio(d1.writes-d0.writes, ops), fmt.Sprintf("%d writes / %d ops", d1.writes-d0.writes, ops))
	add("server.conn_reads_per_op", "count/op", ratio(d1.reads-d0.reads, ops), fmt.Sprintf("%d reads / %d ops", d1.reads-d0.reads, ops))
	add("server.bytes_out_per_op", "B/op", ratio(d1.bytesOut-d0.bytesOut, ops), fmt.Sprintf("%d bytes / %d ops", d1.bytesOut-d0.bytesOut, ops))
	add("server.write_busy_ms", "ms", ms(time.Duration(d1.writeBusy-d0.writeBusy)), fmt.Sprintf("inside conn.Write over %v", ph.fixedDur.Round(time.Millisecond)))
	frames, flushes := c1["wire.frames"]-c0["wire.frames"], c1["wire.flushes"]-c0["wire.flushes"]
	add("server.frames_per_flush", "count", ratio(frames, flushes), fmt.Sprintf("%d wire.frames / %d wire.flushes", frames, flushes))
	add("server.new_s", "s", st.serverNew.Seconds(), "")
	for k := opFrame; k < numKinds; k++ {
		s := r.rtt[k].summary()
		res.metrics = append(res.metrics, metric{name: "server.rtt." + strings.ReplaceAll(kindNames[k], ".", "_") + "_p50_ms",
			unit: "ms", value: ms(s.p50), n: s.n, q: 0.5})
	}

	// ingest
	pct("ingest.ack_ms", r.ackOnly.summary())
	add("ingest.frames", "count", float64(c1["ingest.frames"]-c0["ingest.frames"]), "ingest.frames during the phase")
	add("ingest.gaps", "count", float64(c1["ingest.seq_gaps"]), "ingest.seq_gaps")

	// locdb
	pct("locdb.apply_batch_us", tr.apply.summary())
	add("locdb.apply_batch_busy_ms", "ms", ms(time.Duration(d1.applyBusy-d0.applyBusy)), fmt.Sprintf("inside ApplyBatch over %v", ph.fixedDur.Round(time.Millisecond)))
	add("locdb.changed_ratio", "ratio", ratio(changed, d1.mutations-d0.mutations), fmt.Sprintf("%d changed / %d mutations", changed, d1.mutations-d0.mutations))
	pct("locdb.locate_us", tr.locate.summary())
	pct("locdb.locate_at_us", tr.locateAt.summary())
	pct("locdb.trajectory_us", tr.trajectory.summary())
	add("locdb.dump_s", "s", time.Duration(tr.dump.Load()).Seconds(), "Dump inside server.New")

	// storage
	add("storage.open_s", "s", st.storageOpen.Seconds(), "")
	add("storage.checkpoint_bytes", "B", float64(checkpointBytes), "snap-*.json recovered at set-up")
	pct("storage.durable_lag_ms", r.durableLags())
	wal := c1["storage.wal_bytes"] - c0["storage.wal_bytes"]
	add("storage.wal_bytes_per_delta", "B", ratio(wal, changed), fmt.Sprintf("%d WAL bytes / %d moves", wal, changed))

	// fanout
	pct("fanout.publish_us", tr.publish.summary())
	pct("fanout.deliver_lag_ms", r.deliverLags())
	add("fanout.backlog_max", "count", float64(ph.backlogMax), "sampled every 1 ms")
	events := ph.evTot - ph.evTotal0
	add("fanout.events_per_delta", "ratio", ratio(events, changed), fmt.Sprintf("%d events received / %d moves", events, changed))
	add("fanout.events_dropped", "count", float64(c1["fanout.events_dropped"]), "")
	add("fanout.slow_kills", "count", float64(c1["fanout.slow_kills"]), "")

	// analytics
	pct("analytics.on_events_us", tr.onEvents.summary())
	add("analytics.open_s", "s", st.analyticOpen.Seconds(), "")
	add("analytics.hot_runs", "count", float64(c1["analytics.hot_runs"]), "")
	add("analytics.sealed_runs", "count", float64(c1["analytics.sealed_runs"]), "")
	add("analytics.segments", "count", float64(c1["analytics.segments"]), "")

	// go runtime
	m0, m1 := ph.mem0, ph.mem1
	add("go.alloc_bytes_per_op", "B/op", ratio(int64(m1.TotalAlloc-m0.TotalAlloc), ops), fmt.Sprintf("%d bytes / %d ops", m1.TotalAlloc-m0.TotalAlloc, ops))
	add("go.gc_cycles", "count", float64(m1.NumGC-m0.NumGC), "")
	add("go.gc_cpu_fraction", "ratio", m1.GCCPUFraction, "since process start")
	add("go.goroutines_max", "count", float64(ph.goroutinesMax), "sampled every 1 ms")

	// bench
	gl := r.genLag.windowed()
	res.metrics = append(res.metrics, metric{name: "bench.gen_lag_p99_ms", unit: "ms", value: ms(gl.top), n: gl.n, q: gl.topQ})
}

// durableLags is each measured frame's time from ApplyBatch returning
// until its last move was in the WAL (zero when the group commit wrote
// it before ApplyBatch returned).
func (r *runner) durableLags() summary {
	var s []int64
	for _, f := range r.frames {
		a, d := f.applyEnd.Load(), f.durable.Load()
		if f.due >= r.warm && a != 0 && d != 0 {
			s = append(s, max(0, d-a))
		}
	}
	return summarize(s)
}

// deliverLags is each measured event's time from the fan-out publish of
// its frame returning until the event arrived on the subscriber socket.
func (r *runner) deliverLags() summary {
	var s []int64
	r.evMu.Lock()
	defer r.evMu.Unlock()
	for i, evs := range r.delivered {
		p := r.frames[i].pubEnd.Load()
		if p == 0 {
			continue
		}
		for _, t := range evs {
			s = append(s, max(0, t-p))
		}
	}
	return summarize(s)
}

// traceOverhead compares the traced pass's medians with the untraced
// pass's, as a mean percentage over the four end-to-end latencies.
func traceOverhead(plain, traced *runner) float64 {
	pair := func(r *runner) [4]time.Duration {
		d, e, l, h := r.latencies()
		return [4]time.Duration{d.p50, e.p50, l.p50, h.p50}
	}
	a, b := pair(plain), pair(traced)
	sum, n := 0.0, 0
	for i := range a {
		if a[i] > 0 {
			sum += float64(b[i])/float64(a[i]) - 1
			n++
		}
	}
	return 100 * sum / float64(max(1, n))
}
