package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"bips/internal/analytics"
	"bips/internal/baseband"
	"bips/internal/fanout"
	"bips/internal/locdb"
	"bips/internal/sim"
	"bips/internal/storage"
)

// tracer holds the traced run's instruments: decorators around the
// calls the server makes into each layer, and counters on the server's
// sockets. Calls that carry a frame's ticks are stamped onto that
// frame, so a frame's spans link up by tick; the rest are aggregated
// per layer.
type tracer struct {
	r *runner
	// on gates the recorders to the measured phase; set-up calls (the
	// dump inside server.New) and frame stamps are recorded regardless.
	on atomic.Bool

	apply, publish, onEvents     recorder
	locate, locateAt, trajectory recorder
	applyBusy, dump              atomic.Int64
	mutations, changed           atomic.Int64
	reads, writes, bytesOut      atomic.Int64
	writeBusy                    atomic.Int64
}

// tracedStore decorates the store the server is built over.
type tracedStore struct {
	*storage.Durable
	tr *tracer
}

func (tr *tracer) wrapStore(d *storage.Durable) locdb.Store { return &tracedStore{Durable: d, tr: tr} }

func (s *tracedStore) ApplyBatch(muts []locdb.Mutation) int {
	r := s.tr.r
	start := r.now()
	n := s.Durable.ApplyBatch(muts)
	end := r.now()
	if s.tr.on.Load() {
		s.tr.apply.add(time.Duration(end - start))
		s.tr.applyBusy.Add(end - start)
		s.tr.mutations.Add(int64(len(muts)))
		s.tr.changed.Add(int64(n))
	}
	if len(muts) > 0 {
		if f := r.frameAt(muts[0].At); f != nil {
			f.applyStart.Store(start)
			f.applyEnd.Store(end)
		}
	}
	return n
}

func (s *tracedStore) Locate(dev baseband.BDAddr) (locdb.Fix, error) {
	start := time.Now()
	fix, err := s.Durable.Locate(dev)
	if s.tr.on.Load() {
		s.tr.locate.add(time.Since(start))
	}
	return fix, err
}

func (s *tracedStore) LocateAt(dev baseband.BDAddr, at sim.Tick) (locdb.Fix, error) {
	start := time.Now()
	fix, err := s.Durable.LocateAt(dev, at)
	if s.tr.on.Load() {
		s.tr.locateAt.add(time.Since(start))
	}
	return fix, err
}

func (s *tracedStore) Trajectory(dev baseband.BDAddr, from, to sim.Tick) []locdb.Fix {
	start := time.Now()
	fixes := s.Durable.Trajectory(dev, from, to)
	if s.tr.on.Load() {
		s.tr.trajectory.add(time.Since(start))
	}
	return fixes
}

func (s *tracedStore) Dump() []locdb.DeviceDump {
	start := time.Now()
	d := s.Durable.Dump()
	s.tr.dump.Add(int64(time.Since(start)))
	return d
}

// SubscribeSink times the sinks the server registers: the fan-out tree
// and the analytics engine. Any other sink is registered as it is.
func (s *tracedStore) SubscribeSink(sink locdb.Sink) func() {
	switch sink.(type) {
	case *fanout.Tree:
		return s.Durable.SubscribeSink(&tracedSink{Sink: sink, tr: s.tr, fanout: true})
	case *analytics.Engine:
		return s.Durable.SubscribeSink(&tracedSink{Sink: sink, tr: s.tr})
	}
	return s.Durable.SubscribeSink(sink)
}

type tracedSink struct {
	locdb.Sink
	tr     *tracer
	fanout bool // the fan-out tree; otherwise the analytics engine
}

func (s *tracedSink) OnEvents(evs []locdb.Event) {
	r := s.tr.r
	start := r.now()
	s.Sink.OnEvents(evs)
	end := r.now()
	f := (*frame)(nil)
	if len(evs) > 0 {
		f = r.frameAt(evs[0].At)
	}
	on := s.tr.on.Load()
	if s.fanout {
		if on {
			s.tr.publish.add(time.Duration(end - start))
		}
		if f != nil {
			f.pubStart.Store(start)
			f.pubEnd.Store(end)
		}
		return
	}
	if on {
		s.tr.onEvents.add(time.Duration(end - start))
	}
	if f != nil {
		f.anaStart.Store(start)
		f.anaEnd.Store(end)
	}
}

// countingListener counts the server side's socket calls.
type countingListener struct {
	net.Listener
	tr *tracer
}

func (tr *tracer) wrapListener(l net.Listener) net.Listener {
	return &countingListener{Listener: l, tr: tr}
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, tr: l.tr}, nil
}

type countingConn struct {
	net.Conn
	tr *tracer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tr.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.tr.writeBusy.Add(int64(time.Since(start)))
	c.tr.writes.Add(1)
	c.tr.bytesOut.Add(int64(n))
	return n, err
}

// span is one timed interval of a frame's trace. Times are nanoseconds
// since the run's epoch; Trace is the frame's index plus one. Events
// counts the pushes a fanout.deliver span covers.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Events int    `json:"events,omitempty"`
}

// layerTime is one layer's share of the traced frames.
type layerTime struct {
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// frameSpans rebuilds each measured frame's trace from the timestamps
// its boundaries recorded: the frame's wait for the generator, its
// round trip, the apply inside it with both sinks, the wait for the WAL,
// and the delivery of the events it caused, from the publish returning
// to the last event's arrival.
func (r *runner) frameSpans() []span {
	var out []span
	add := func(parent, trace int, name string, start, end int64) int {
		if start == 0 || end == 0 || end < start {
			return 0
		}
		out = append(out, span{ID: len(out) + 1, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
		return len(out)
	}
	phase := r.phaseStart
	for i, f := range r.frames {
		if f.due < r.warm {
			continue
		}
		trace := i + 1
		due := phase + f.due
		done := max(f.acked.Load(), f.durable.Load())
		root := add(0, trace, "bench.frame", due, done)
		if root == 0 {
			continue
		}
		add(root, trace, "bench.gen_wait", due, f.sent.Load())
		rtt := add(root, trace, "wire.presence_batch", f.sent.Load(), f.acked.Load())
		apply := add(rtt, trace, "locdb.apply_batch", f.applyStart.Load(), f.applyEnd.Load())
		add(apply, trace, "fanout.publish", f.pubStart.Load(), f.pubEnd.Load())
		add(apply, trace, "analytics.on_events", f.anaStart.Load(), f.anaEnd.Load())
		add(root, trace, "storage.durable", f.applyEnd.Load(), f.durable.Load())
		if evs := r.delivered[i]; len(evs) > 0 {
			if id := add(root, trace, "fanout.deliver", f.pubEnd.Load(), slices.Max(evs)); id != 0 {
				out[id-1].Events = len(evs)
			}
		}
	}
	return out
}

// selfTimes sums each layer's span time and self time: a span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, end := int64(0), int64(0)
		for _, iv := range ivs {
			if iv[0] > end {
				end = iv[0]
			}
			if iv[1] > end {
				covered += iv[1] - end
				end = iv[1]
			}
		}
		layer := s.Name
		for i := 0; i < len(layer); i++ {
			if layer[i] == '.' {
				layer = layer[:i]
				break
			}
		}
		lt := out[layer]
		if lt == nil {
			lt = &layerTime{}
			out[layer] = lt
		}
		lt.Spans++
		lt.TotalMS += float64(s.End-s.Start) / 1e6
		lt.SelfMS += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// writeSpans writes the spans as JSON lines and the per-layer summary
// beside them, returning the span file's path.
func writeSpans(dir, name string, spans []span, layers map[string]*layerTime, aggregate map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	sum, err := json.MarshalIndent(map[string]any{"self_time": layers, "aggregate": aggregate}, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(filepath.Join(dir, name+".summary.json"), append(sum, '\n'), 0o644)
}
