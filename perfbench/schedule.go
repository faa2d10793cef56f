package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"bips/internal/sim"
)

// opKind is a request type the benchmark sends.
type opKind uint8

const (
	opFrame opKind = iota
	opLocate
	opPath
	opLocateAt
	opTrajectory
	opContacts
	opOccupancy
	opDwell
	numKinds
)

// kindNames are the wire message types, which also name the per-type
// round-trip metrics.
var kindNames = [numKinds]string{"presence.batch", "locate", "path", "locate.at", "trajectory", "contacts", "occupancy", "dwell"}

// history reports whether the kind is one of the history queries timed
// as history_rtt; Locate and Path are timed as locate_rtt.
func (k opKind) history() bool { return k >= opLocateAt }

func (q queryRates) rate(k opKind) float64 {
	switch k {
	case opLocate:
		return q.locate
	case opPath:
		return q.path
	case opLocateAt:
		return q.locateAt
	case opTrajectory:
		return q.trajectory
	case opContacts:
		return q.contacts
	case opOccupancy:
		return q.occupancy
	case opDwell:
		return q.dwell
	}
	return 0
}

// query is one generated read. t is LocateAt's instant and the window's
// end for the others; the window is [t-span, t].
type query struct {
	kind            opKind
	querier, target int32
	t, span         sim.Tick
	room            int32
	byDevice        bool // dwell per device instead of per room
}

// frame is one presence.batch frame: n deltas with consecutive ticks
// from first. The timestamps are nanoseconds since the run's epoch,
// zero until the event happens; the traced run also fills the layer
// timestamps from its decorators.
type frame struct {
	station int32
	seq     uint64
	first   sim.Tick
	n       int32
	due     int64 // ns after the phase start

	sent, acked, durable atomic.Int64
	durRecs              atomic.Int32
	applyStart, applyEnd atomic.Int64
	pubStart, pubEnd     atomic.Int64
	anaStart, anaEnd     atomic.Int64
}

func (f *frame) last() sim.Tick { return f.first + sim.Tick(f.n) - 1 }

// op is one scheduled request of the fixed-rate phase: a frame (frame
// >= 0) or a query.
type op struct {
	due   int64 // ns after the phase start
	frame int32
	q     query
}

// settleLookback is how long before a history query's due time a frame
// must have been due for the query to read it: the queried instant is
// drawn from moves that the server has (normally) long acknowledged,
// so the expected answer is known exactly.
const settleLookback = 250 * time.Millisecond

// schedule generates the fixed-rate phase's station frames. Station s
// sends its j-th frame at a random instant of its j-th cycle, so frames
// keep their order without lining up on a grid that could alias with
// the WAL's flush ticker. Ticks are assigned in due order: a frame's
// moves are consecutive ticks and later frames carry later ticks.
func (r *runner) schedule(dur time.Duration) {
	wl := r.wl
	type slot struct {
		due     int64
		station int
	}
	var slots []slot
	period := float64(time.Second) / wl.stationHz
	for s := range r.pop.stations {
		g := newPRNG(mix(r.cfg.seed, 0xF7A, int64(s)))
		for j := 0; ; j++ {
			due := int64((float64(j) + g.float64()) * period)
			if due >= int64(dur) {
				break
			}
			slots = append(slots, slot{due, s})
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].due != slots[j].due {
			return slots[i].due < slots[j].due
		}
		return slots[i].station < slots[j].station
	})
	r.frames = make([]*frame, 0, len(slots))
	for _, sl := range slots {
		st := r.pop.stations[sl.station]
		st.seq++
		f := &frame{station: int32(sl.station), seq: st.seq, first: r.log.last() + 1, due: sl.due}
		r.walk.frameDeltas(st, wl.frameSize, func(dev, room int32) {
			r.log.add(dev, room)
			f.n++
		})
		r.frames = append(r.frames, f)
		r.aOps = append(r.aOps, op{due: sl.due, frame: int32(len(r.frames) - 1)})
	}
	r.fixedLast = r.log.last()
	r.frameOf = make([]int32, r.fixedLast-r.base)
	for i, f := range r.frames {
		for t := f.first; t <= f.last(); t++ {
			r.frameOf[t-r.base-1] = int32(i)
		}
	}
}

// queryStream returns the fixed-rate phase's queries in due order. Each
// query type has its own seeded stream: its i-th query is due at a
// random instant of [i, i+1) / rate, and its parameters are drawn from
// the same stream, so the queries are a function of the seed alone.
// History queries read instants of frames due settleLookback earlier.
func (r *runner) queryStream() func() (op, bool) {
	type stream struct {
		kind opKind
		rate float64
		i    int
		due  int64
		g    *prng
	}
	var ss []*stream
	for k := opLocate; k < numKinds; k++ {
		if rate := r.wl.queries.rate(k); rate > 0 {
			st := &stream{kind: k, rate: rate, g: newPRNG(mix(r.cfg.seed, 0x9E7, int64(k)))}
			st.due = int64(st.g.float64() / rate * float64(time.Second))
			ss = append(ss, st)
		}
	}
	return func() (op, bool) {
		var st *stream
		for _, c := range ss {
			if st == nil || c.due < st.due {
				st = c
			}
		}
		if st == nil || st.due >= r.fixedEnd {
			return op{}, false
		}
		due := st.due
		settled := r.base
		if j := sort.Search(len(r.frames), func(j int) bool {
			return r.frames[j].due > due-int64(settleLookback)
		}); j > 0 {
			settled = r.frames[j-1].last()
		}
		o := op{due: due, frame: -1, q: r.drawQuery(st.kind, st.g, settled)}
		st.i++
		st.due = int64((float64(st.i) + st.g.float64()) / st.rate * float64(time.Second))
		return o, true
	}
}

// drawQuery draws one query of kind k whose instant lies between the
// end of the placement (ticks 1..devices, so every device has a
// position by then) and upTo.
func (r *runner) drawQuery(k opKind, g *prng, upTo sim.Tick) query {
	n := len(r.pop.users)
	q := query{
		kind:    k,
		querier: int32(g.intn(n)),
		target:  int32(g.intn(n)),
		t:       sim.Tick(n) + sim.Tick(g.intn(int(upTo)-n+1)),
		span:    sim.Tick(2 * n),
		room:    int32(g.intn(len(r.fl.rooms))),
	}
	q.byDevice = g.intn(2) == 0
	return q
}

// satKind draws the closed-loop phase's i-th request type with the
// fixed-rate phase's proportions of requests.
func (r *runner) satKind(g *prng) opKind {
	wl := r.wl
	frames := float64(wl.stations) * wl.stationHz
	x := g.float64() * (frames + wl.queries.total())
	if x < frames {
		return opFrame
	}
	x -= frames
	for k := opLocate; k < numKinds; k++ {
		if x < wl.queries.rate(k) {
			return k
		}
		x -= wl.queries.rate(k)
	}
	return opLocate
}

// prng is a splitmix64 stream: cheap to seed per request, so closed-loop
// requests are a function of the seed and their index alone.
type prng struct{ s uint64 }

func newPRNG(seed int64) *prng { return &prng{s: uint64(seed)} }

func (p *prng) next() uint64 {
	p.s += 0x9E3779B97F4A7C15
	z := p.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (p *prng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(p.next() % uint64(n))
}

func (p *prng) float64() float64 { return float64(p.next()>>11) / math.Exp2(53) }
