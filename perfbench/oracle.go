package main

import (
	"fmt"
	"sort"
	"time"

	"bips/internal/locdb"
	"bips/internal/sim"
	"bips/internal/wire"
)

// expectations derives what the server must have reported from every
// move the benchmark generated. live is the tick after which moves
// happened with the subscriptions in place.
type expectations struct {
	visits     [][]delta            // per device, tick order
	sat        map[sim.Tick]delta   // closed-loop moves by tick
	roomEvents int64                // pushes to the room subscriptions
	devEvents  map[int32][]devEvent // pushes to each device subscription
}

func (r *runner) expect() *expectations {
	e := &expectations{
		visits:    visitsByDevice(len(r.pop.users), r.log, r.pop),
		sat:       make(map[sim.Tick]delta),
		devEvents: make(map[int32][]devEvent),
	}
	for _, st := range r.pop.stations {
		for _, m := range st.sat {
			e.sat[m.tick] = m
		}
	}
	live := r.base
	if r.placed {
		live = 0
	}
	subscribed := make(map[int32]bool)
	for _, d := range r.devSubs {
		subscribed[d] = true
	}
	for d, vs := range e.visits {
		for i, m := range vs {
			if m.tick <= live {
				continue
			}
			var evs []devEvent
			if i > 0 {
				evs = append(evs, devEvent{kind: wire.EventLeave, room: r.fl.rooms[vs[i-1].room], at: m.tick})
			}
			evs = append(evs, devEvent{kind: wire.EventEnter, room: r.fl.rooms[m.room], at: m.tick})
			if r.wl.subs.allRooms {
				e.roomEvents += int64(len(evs))
			}
			if subscribed[int32(d)] {
				e.devEvents[int32(d)] = append(e.devEvents[int32(d)], evs...)
			}
		}
	}
	if r.cfg.corrupt == "device-sub" {
		for d, evs := range e.devEvents {
			evs[len(evs)-1].room++
			e.devEvents[d] = evs
			break
		}
	}
	return e
}

// drain waits until the tailer has seen every fixed-rate frame's moves
// in the WAL and every expected event has arrived, or until timeout.
func (r *runner) drain(e *expectations, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if r.undurable() == 0 && r.eventsMissing(e) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *runner) undurable() (n int) {
	for _, f := range r.frames {
		if f.acked.Load() != 0 && f.durable.Load() == 0 {
			n++
		}
	}
	return n
}

func (r *runner) eventsMissing(e *expectations) int64 {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	missing := max(0, e.roomEvents-r.evRoom)
	for d, evs := range e.devEvents {
		missing += max(0, int64(len(evs)-len(r.devEvents[d])))
	}
	return missing
}

// check runs the correctness oracle after a pass: every answer and push
// the server gave is compared with the generated moves. Each mismatch
// is one failed operation; the return value is the number of checks
// made.
func (r *runner) check(e *expectations) int64 {
	var checks int64
	fail := func(cause string, format string, args ...any) { r.failures.add(cause, 1, format, args...) }

	// The history checks below assume no device outgrew the store's
	// history bound; a workload sized past it is itself a failure.
	busiest := 0
	for d, vs := range e.visits {
		if len(vs) > len(e.visits[busiest]) {
			busiest = d
		}
		if len(vs) >= locdb.DefaultHistoryLimit {
			r.fullDevices++
		}
	}
	r.maxMoves = len(e.visits[busiest])
	if r.maxMoves > locdb.DefaultHistoryLimit {
		fail("sizing", "%s moved %d times, past the %d-run history limit", r.pop.users[busiest], r.maxMoves, locdb.DefaultHistoryLimit)
	}

	// Every acknowledged fixed-rate frame reached the WAL.
	if n := r.undurable(); n > 0 {
		r.failures.add("durable", int64(n), "%d acknowledged frames never reached the WAL", n)
	}
	checks += int64(len(r.frames))

	// Pushes: the room subscriptions saw each enter and leave once, and
	// each device subscription saw its device's moves exactly once, in
	// order.
	r.evMu.Lock()
	if r.wl.subs.allRooms {
		checks += e.roomEvents
		if d := r.evRoom - e.roomEvents; d != 0 {
			r.failures.add("events", abs(d), "room subscriptions received %d events, want %d", r.evRoom, e.roomEvents)
		}
	}
	for d, want := range e.devEvents {
		got := r.devEvents[d]
		checks += int64(len(want))
		if len(got) != len(want) {
			fail("device_sub", "device %d: %d events, want %d", d, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				fail("device_sub", "device %d event %d: got %+v, want %+v", d, i, got[i], want[i])
				break
			}
		}
	}
	r.evMu.Unlock()

	// Every Locate answer during the run was a move of its target (those
	// over earlier moves were checked as they arrived).
	checks += r.locChecks.Load()
	r.ansMu.Lock()
	defer r.ansMu.Unlock()
	for _, a := range r.locAns {
		checks++
		m, ok := e.sat[a.at]
		if ok && r.cfg.corrupt == "locate" {
			m.dev++
		}
		if !ok || m.dev != a.target || r.fl.rooms[m.room] != a.room {
			fail("locate", "locate %s answered room %d at %d, which is not one of its moves", r.pop.users[a.target], a.room, a.at)
		}
	}
	// LocateAt and Trajectory answers over settled history are exact.
	for _, a := range r.atAns {
		if !a.checkable {
			continue
		}
		checks++
		vs := e.visits[a.q.target]
		i := sort.Search(len(vs), func(i int) bool { return vs[i].tick > a.q.t }) - 1
		if i < 0 {
			fail("locate_at", "locate.at %s@%d answered, but no move precedes it", r.pop.users[a.q.target], a.q.t)
			continue
		}
		want := vs[i]
		if r.cfg.corrupt == "locate-at" {
			want.tick++
		}
		if a.room != r.fl.rooms[want.room] || a.at != want.tick {
			fail("locate_at", "locate.at %s@%d: got room %d at %d, want room %d at %d",
				r.pop.users[a.q.target], a.q.t, a.room, a.at, r.fl.rooms[want.room], want.tick)
		}
	}
	for _, a := range r.trajAns {
		if !a.checkable {
			continue
		}
		checks++
		want := trajectory(e.visits[a.q.target], max(0, a.q.t-a.q.span), a.q.t)
		if r.cfg.corrupt == "trajectory" && len(want) > 0 {
			want = want[1:]
		}
		ok := len(want) == len(a.steps)
		for i := 0; ok && i < len(want); i++ {
			ok = a.steps[i].At == want[i].tick && a.steps[i].Room == r.fl.rooms[want[i].room]
		}
		if !ok {
			fail("trajectory", "trajectory %s [%d,%d]: got %d steps, want %d", r.pop.users[a.q.target], a.q.t-a.q.span, a.q.t, len(a.steps), len(want))
		}
	}
	return checks
}

// finalLocates asks for every device's position after the run; each
// must be its last generated move.
func (r *runner) finalLocates(e *expectations) int64 {
	n := len(r.pop.users)
	_ = parallel(n, 32, func(d int) error {
		var res wire.LocateResult
		err := r.st.query.Call(wire.MsgLocate, &wire.Locate{Querier: r.querier(), Target: r.pop.users[d]}, &res)
		if err != nil {
			r.callErr(opLocate, err)
			return nil
		}
		vs := e.visits[d]
		want := vs[len(vs)-1]
		if r.cfg.corrupt == "final-locate" && d == 0 {
			want.tick--
		}
		if res.At != want.tick || res.Room != r.fl.rooms[want.room] {
			r.failures.add("final_locate", 1, "%s ends at room %d tick %d, want room %d tick %d",
				r.pop.users[d], res.Room, res.At, r.fl.rooms[want.room], want.tick)
		}
		return nil
	})
	return int64(n)
}

// trajectory is histdb's Range over one device's moves: the run
// covering from, then every run starting in (from, to].
func trajectory(vs []delta, from, to sim.Tick) []delta {
	lo := sort.Search(len(vs), func(i int) bool { return vs[i].tick > from })
	if lo > 0 {
		lo--
	}
	hi := sort.Search(len(vs), func(i int) bool { return vs[i].tick > to })
	if lo >= hi {
		return nil
	}
	return vs[lo:hi]
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// describe formats the failure summary for the report.
func (l *failureLog) describe() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	causes := make([]string, 0, len(l.counts))
	for c := range l.counts {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		out = append(out, fmt.Sprintf("failed %s: %d", c, l.counts[c]))
	}
	for _, m := range l.first {
		out = append(out, "  "+m)
	}
	return out
}
