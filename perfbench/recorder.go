package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// recorder keeps every latency sample it is given, so percentiles are
// exact order statistics rather than histogram bucket bounds. It is safe
// for concurrent use.
type recorder struct {
	mu sync.Mutex
	ns []int64
}

func (r *recorder) add(d time.Duration) {
	r.mu.Lock()
	r.ns = append(r.ns, int64(d))
	r.mu.Unlock()
}

// summary is the exact distribution summary of one recorder.
type summary struct {
	n   int
	p50 time.Duration
	// top is the value at quantile topQ: 0.99 when at least ten samples
	// lie beyond the 99th percentile, otherwise the highest quantile
	// that still has ten samples beyond it (never below the median).
	top  time.Duration
	topQ float64
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

func (r *recorder) summary() summary {
	r.mu.Lock()
	s := append([]int64(nil), r.ns...)
	r.mu.Unlock()
	return summarize(s)
}

func summarize(s []int64) summary {
	if len(s) == 0 {
		return summary{}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	q := 0.99
	if beyond := 1 - float64(minBeyond)/float64(n); beyond < q {
		q = math.Max(0.5, math.Floor(beyond*1000)/1000)
	}
	return summary{n: n, p50: nearestRank(s, 0.5), top: nearestRank(s, q), topQ: q}
}

// nearestRank returns the q-quantile of sorted s by the nearest-rank
// definition: the smallest sample with at least q*n samples at or below.
func nearestRank(s []int64, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return time.Duration(s[i])
}

// series keeps each sample in the window of due time it fell in, as
// int32 nanoseconds (latencies beyond 2.1 s are clamped), so a long run
// stays small in the heap it shares with the server. It is safe for
// concurrent use once init has run.
type series struct {
	mu          sync.Mutex
	from, width int64
	parts       [measureWindows][]int32
}

// measureWindows is how many equal windows of due time the measured
// phase is cut into. A reported percentile is the median of its value
// in each window, so one stall moves one window, not the run's figure.
const measureWindows = 10

// init lays the windows over due times [from, to), ns after the phase
// start; samples due outside it are dropped.
func (s *series) init(from, to int64) {
	s.from, s.width = from, max(1, (to-from)/measureWindows)
}

func (s *series) add(at int64, d time.Duration) {
	if at < s.from {
		return
	}
	w := (at - s.from) / s.width
	if w >= measureWindows {
		return
	}
	v := int32(min(max(d, 0), math.MaxInt32))
	s.mu.Lock()
	s.parts[w] = append(s.parts[w], v)
	s.mu.Unlock()
}

// windowed summarizes the samples: n is their count, p50 and top are
// the medians over the windows of each window's p50 and top
// percentile, and topQ is the lowest top quantile a window supported.
func (s *series) windowed() summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := summary{topQ: 0.99}
	var p50s, tops []int64
	for _, p := range s.parts {
		if len(p) == 0 {
			continue
		}
		ns := make([]int64, len(p))
		for i, v := range p {
			ns[i] = int64(v)
		}
		w := summarize(ns)
		out.n += w.n
		out.topQ = math.Min(out.topQ, w.topQ)
		p50s = append(p50s, int64(w.p50))
		tops = append(tops, int64(w.top))
	}
	if out.n == 0 {
		return summary{}
	}
	out.p50 = summarize(p50s).p50
	out.top = summarize(tops).p50
	return out
}
