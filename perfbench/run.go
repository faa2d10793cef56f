package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"bips/internal/analytics"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/storage"
	"bips/internal/wire"
)

// runner is one pass of a workload: its generated inputs, the stack it
// drives and everything it measured.
type runner struct {
	cfg  config
	wl   workload
	fl   *floor
	pop  *population
	walk *walk
	log  *tickLog

	base      sim.Tick // last tick before the fixed-rate phase
	fixedLast sim.Tick // last tick of the fixed-rate phase
	satBase   sim.Tick // closed-loop ticks start after this
	frames    []*frame
	frameOf   []int32 // tick-base-1 -> frame index, fixed-rate ticks only
	aOps      []op    // station frames in due order
	warm      int64   // ops due before this (ns after phase start) are not sampled
	fixedEnd  int64   // end of the schedule, ns after phase start
	placed    bool    // placement frames go out after set-up

	subs    []subscription
	devSubs []int32 // device subscription d<i> -> device
	prepDir string

	epoch      time.Time
	phaseStart int64
	st         *stack
	tr         *tracer

	wmMu      sync.Mutex
	wmAcked   []bool
	wmNext    int
	watermark atomic.Int64 // every move up to this tick has been acknowledged

	evMu      sync.Mutex
	evTotal   int64
	evRoom    int64
	evLag     series
	devEvents map[int32][]devEvent
	waits     map[sim.Tick]*waiter // frames waiting for their room events
	delivered [][]int64            // traced: receive times of each frame's events

	ackOnly               recorder
	locateRTT, historyRTT series
	rtt                   [numKinds]recorder
	genLag                series

	ansMu      sync.Mutex
	locChecks  atomic.Int64
	locAns     []locAnswer // answers from closed-loop moves, checked after the run
	atAns      []atAnswer
	trajAns    []trajAnswer
	attempted  atomic.Int64
	fixedUnits atomic.Int64 // deltas + queries completed in the fixed-rate phase
	failures   failureLog

	// The oracle sets the busiest device's moves and how many devices
	// made as many as the history keeps.
	maxMoves, fullDevices int
}

type devEvent struct {
	kind string
	room graph.NodeID
	at   sim.Tick
}

type locAnswer struct {
	target int32
	room   graph.NodeID
	at     sim.Tick
}

type atAnswer struct {
	q         query
	checkable bool
	room      graph.NodeID
	at        sim.Tick
}

type trajAnswer struct {
	q         query
	checkable bool
	steps     []wire.TrajectoryStep
}

// failureLog counts failed operations by cause and keeps the first few
// messages for the report.
type failureLog struct {
	mu     sync.Mutex
	counts map[string]int64
	first  []string
}

func (l *failureLog) add(cause string, n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counts == nil {
		l.counts = make(map[string]int64)
	}
	l.counts[cause] += n
	if len(l.first) < 8 {
		l.first = append(l.first, cause+": "+fmt.Sprintf(format, args...))
	}
}

func (l *failureLog) total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, c := range l.counts {
		n += c
	}
	return n
}

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

// frameAt returns the fixed-rate frame carrying tick t, or nil.
func (r *runner) frameAt(t sim.Tick) *frame {
	if t <= r.base || t > r.fixedLast {
		return nil
	}
	return r.frames[r.frameOf[t-r.base-1]]
}

// newRunner generates a pass's inputs from the seed: the floor, the
// population, the placement or recovered history, the subscriptions and
// the fixed-rate schedule (warm-up plus measured time).
func newRunner(cfg config, dir string, warm, measured time.Duration) (*runner, error) {
	wl := cfg.wl
	fl, err := newFloor(wl.cols, wl.rows)
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg: cfg, wl: wl, fl: fl,
		pop:       newPopulation(wl, cfg.seed),
		walk:      &walk{fl: fl, cur: make([]int32, wl.devices)},
		log:       &tickLog{},
		warm:      int64(warm),
		devEvents: make(map[int32][]devEvent),
		waits:     make(map[sim.Tick]*waiter),
		epoch:     time.Now(),
	}
	g := newPRNG(mix(cfg.seed, 0x5EED))
	rng := newRand(mix(cfg.seed, 0x91ACE))
	r.walk.place(r.log, rng)
	if wl.prepVisits > 0 {
		r.walk.prepRounds(r.log, wl.prepVisits, rng)
		r.prepDir = filepath.Join(dir, "prep")
		if err := r.prepare(); err != nil {
			return nil, fmt.Errorf("prepare history: %w", err)
		}
	} else {
		// Placement frames are each station's first sequence numbers.
		r.placed = true
		for _, st := range r.pop.stations {
			st.seq = uint64((len(st.devs) + placeChunk - 1) / placeChunk)
		}
	}
	r.base = r.log.last()
	r.watermark.Store(int64(r.base))
	r.subscriptions(g)
	r.fixedEnd = int64(warm + measured)
	for _, s := range []*series{&r.evLag, &r.locateRTT, &r.historyRTT, &r.genLag} {
		s.init(r.warm, r.fixedEnd)
	}
	r.schedule(warm + measured)
	r.satBase = r.fixedLast
	r.wmAcked = make([]bool, len(r.frames))
	if cfg.trace {
		r.tr = &tracer{r: r}
		r.delivered = make([][]int64, len(r.frames))
	}
	return r, nil
}

// subscriptions draws the workload's subscription set. Device
// subscriptions are the ones the oracle checks event by event.
func (r *runner) subscriptions(g *prng) {
	sh := r.wl.subs
	if sh.allRooms {
		for i, id := range r.fl.rooms {
			r.subs = append(r.subs, subscription{id: fmt.Sprintf("r%d", i), filter: wire.SubFilter{Kind: wire.FilterRoom, Room: id}})
		}
	}
	n := len(r.pop.users)
	for i := 0; i < sh.devices; i++ {
		d := int32(i * n / sh.devices)
		r.devSubs = append(r.devSubs, d)
		r.subs = append(r.subs, subscription{id: fmt.Sprintf("d%d", i), filter: wire.SubFilter{Kind: wire.FilterDevice, Target: r.pop.users[d]}})
	}
	for i := 0; i < sh.zones; i++ {
		room := g.intn(len(r.fl.rooms))
		zone := []graph.NodeID{r.fl.rooms[room]}
		for _, nb := range r.fl.adj[room] {
			zone = append(zone, r.fl.rooms[nb])
		}
		r.subs = append(r.subs, subscription{id: fmt.Sprintf("z%d", i), filter: wire.SubFilter{
			Kind: wire.FilterZone, Target: r.pop.users[g.intn(n)], Rooms: zone}})
	}
	occ := n / len(r.fl.rooms)
	for i := 0; i < sh.occupancy; i++ {
		r.subs = append(r.subs, subscription{id: fmt.Sprintf("o%d", i), filter: wire.SubFilter{
			Kind: wire.FilterOccupancy, Room: r.fl.rooms[g.intn(len(r.fl.rooms))], Threshold: max(1, occ)}})
	}
}

// querier is the user every subscription runs on behalf of.
func (r *runner) querier() string { return r.pop.users[0] }

// prepare writes the recovered history through the serving stack's own
// constructors: a durable store, a durable analytics engine and the
// server's ingest pipeline, then shuts them down as the server does, so
// the directory holds a checkpoint and sealed analytics segments.
func (r *runner) prepare() error {
	store, err := storage.Open(storage.Options{Dir: r.prepDir})
	if err != nil {
		return err
	}
	eng, err := analytics.Open(analytics.Options{Dir: filepath.Join(r.prepDir, "analytics"), HistoryLimit: store.HistoryLimit()})
	if err != nil {
		store.Close()
		return err
	}
	reg := registry.New()
	for i, u := range r.pop.users {
		dev, err := wire.ParseAddr(r.pop.addrs[i])
		if err == nil {
			err = reg.Register(registry.UserID(u), u, userPassword, registry.RightTrackable)
		}
		if err == nil {
			err = reg.Login(registry.UserID(u), userPassword, dev)
		}
		if err != nil {
			store.Close()
			eng.Close()
			return err
		}
	}
	srv := server.New(reg, store, r.fl.bld, server.WithAnalytics(eng))
	pl := srv.Ingest()
	_, err = pl.Hello(wire.IngestHello{Session: "prep", Station: "prep", Room: r.fl.rooms[0]})
	const chunk = 512
	seq := uint64(0)
	for lo := 0; err == nil && lo < len(r.log.dev); lo += chunk {
		hi := min(lo+chunk, len(r.log.dev))
		b := wire.PresenceBatch{Session: "prep", Seq: seq + 1, Deltas: make([]wire.Presence, 0, hi-lo)}
		for i := lo; i < hi; i++ {
			b.Deltas = append(b.Deltas, presence(r.pop, r.fl, sim.Tick(i+1), r.log.dev[i], r.log.room[i]))
		}
		seq++
		var ack wire.IngestAck
		if ack, err = pl.Apply(b); err == nil && ack.Applied != len(b.Deltas) {
			err = fmt.Errorf("prep frame %d applied %d of %d moves", seq, ack.Applied, len(b.Deltas))
		}
	}
	err = errors.Join(err, srv.Close(), store.Close(), eng.Close())
	return err
}

// open builds a stack in dir, from a copy of the prepared history when
// the workload recovers one.
func (r *runner) open(dir string, tr *tracer, onEvent func(wire.Envelope)) (*stack, error) {
	if r.prepDir != "" {
		if err := copyDir(r.prepDir, dir); err != nil {
			return nil, fmt.Errorf("copy history: %w", err)
		}
	}
	return openStack(stackConfig{
		dir: dir, fl: r.fl, pop: r.pop, subs: r.subs, querier: r.querier(),
		tr: tr, onEvent: onEvent,
	})
}

// placeChunk bounds a placement frame, so its burst of pushed events
// fits the subscriber connection's event buffer.
const placeChunk = 64

// place sends each station's placement frames (its first sequence
// numbers), one frame at a time, each after the previous one's events
// have arrived. It is untimed.
func (r *runner) place() error {
	if !r.placed {
		return nil
	}
	for _, st := range r.pop.stations {
		ticks := make([]sim.Tick, 0, len(st.devs))
		for _, d := range st.devs {
			ticks = append(ticks, sim.Tick(d)+1)
		}
		sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
		for seq := uint64(1); len(ticks) > 0; seq++ {
			chunk := ticks[:min(placeChunk, len(ticks))]
			ticks = ticks[len(chunk):]
			b := wire.PresenceBatch{Session: st.session, Seq: seq}
			for _, t := range chunk {
				b.Deltas = append(b.Deltas, presence(r.pop, r.fl, t, r.log.dev[t-1], r.log.room[t-1]))
			}
			w := r.await(chunk, 1)
			var ack wire.IngestAck
			if err := r.st.ingest.Call(wire.MsgPresenceBatch, &b, &ack); err != nil {
				return err
			}
			r.attempted.Add(int64(len(chunk)))
			if ack.Applied != len(b.Deltas) {
				return fmt.Errorf("placement %s/%d applied %d of %d", st.session, seq, ack.Applied, len(b.Deltas))
			}
			if !r.wait(w) {
				return fmt.Errorf("placement %s/%d: room events missing after %v", st.session, seq, eventWait)
			}
		}
	}
	return nil
}

// waiter counts the room-subscription events still due for a frame.
type waiter struct {
	ticks []sim.Tick
	left  int
	done  chan struct{}
}

// eventWait bounds how long a frame waits for its events.
const eventWait = 10 * time.Second

// await registers a frame whose moves each push per events to the room
// subscriptions; wait blocks until they have all arrived. Without room
// subscriptions there is nothing to wait for.
func (r *runner) await(ticks []sim.Tick, per int) *waiter {
	w := &waiter{ticks: ticks, left: len(ticks) * per, done: make(chan struct{})}
	if !r.wl.subs.allRooms || w.left == 0 {
		close(w.done)
		return w
	}
	r.evMu.Lock()
	for _, t := range ticks {
		r.waits[t] = w
	}
	r.evMu.Unlock()
	return w
}

func (r *runner) wait(w *waiter) bool {
	select {
	case <-w.done:
		return true
	case <-time.After(eventWait):
		r.evMu.Lock()
		for _, t := range w.ticks {
			delete(r.waits, t)
		}
		r.evMu.Unlock()
		return false
	}
}

// onEvent is the query connection's push handler: it runs on the
// client's receive goroutine, one event at a time.
func (r *runner) onEvent(env wire.Envelope) {
	recv := r.now()
	ev, ok := decodeEvent(env.Body)
	if !ok {
		r.failures.add("event", 1, "undecodable event %q", env.Body)
		return
	}
	f := r.frameAt(ev.at)
	r.evMu.Lock()
	defer r.evMu.Unlock()
	r.evTotal++
	switch ev.class {
	case 'r':
		r.evRoom++
		if w := r.waits[ev.at]; w != nil {
			if w.left--; w.left == 0 {
				for _, t := range w.ticks {
					delete(r.waits, t)
				}
				close(w.done)
			}
		}
	case 'd':
		if ev.idx < len(r.devSubs) {
			d := r.devSubs[ev.idx]
			r.devEvents[d] = append(r.devEvents[d], devEvent{kind: ev.kind, room: ev.room, at: ev.at})
		}
	}
	if f == nil || f.due < r.warm {
		return
	}
	r.evLag.add(f.due, time.Duration(recv-(r.phaseStart+f.due)))
	if r.delivered != nil {
		i := r.frameOf[ev.at-r.base-1]
		r.delivered[i] = append(r.delivered[i], recv)
	}
}

// onWAL counts a WAL record toward its frame's durability.
func (r *runner) onWAL(t sim.Tick) {
	if f := r.frameAt(t); f != nil && f.durRecs.Add(1) == f.n {
		f.durable.Store(r.now())
	}
}

// callErr records a failed call.
func (r *runner) callErr(k opKind, err error) {
	var werr *wire.Error
	if errors.As(err, &werr) {
		r.failures.add("error_reply", 1, "%s: %v", kindNames[k], err)
		return
	}
	r.failures.add("transport", 1, "%s: %v", kindNames[k], err)
}

// execFrame sends one fixed-rate frame and records its ack.
func (r *runner) execFrame(i int) {
	f := r.frames[i]
	st := r.pop.stations[f.station]
	b := wire.PresenceBatch{Session: st.session, Seq: f.seq, Deltas: make([]wire.Presence, f.n)}
	for j := range b.Deltas {
		t := f.first + sim.Tick(j)
		b.Deltas[j] = presence(r.pop, r.fl, t, r.log.dev[t-1], r.log.room[t-1])
	}
	sent := r.now()
	f.sent.Store(sent)
	var ack wire.IngestAck
	err := r.st.ingest.Call(wire.MsgPresenceBatch, &b, &ack)
	done := r.now()
	r.attempted.Add(int64(f.n))
	if err != nil {
		r.callErr(opFrame, err)
		return
	}
	f.acked.Store(done)
	if ack.Applied != int(f.n) || ack.Rejected != 0 || ack.Duplicate {
		r.failures.add("ack", int64(f.n), "frame %s/%d: applied %d rejected %d duplicate %v of %d moves",
			st.session, f.seq, ack.Applied, ack.Rejected, ack.Duplicate, f.n)
	}
	r.fixedUnits.Add(int64(f.n))
	r.frameAcked(i)
	if f.due >= r.warm {
		r.ackOnly.add(time.Duration(done - (r.phaseStart + f.due)))
	}
	if r.tr != nil && f.due >= r.warm {
		r.rtt[opFrame].add(time.Duration(done - sent))
	}
}

// checkLocate checks that a Locate answer is one of the target's moves.
// Moves made before the closed-loop phase are in the immutable tick log
// and are checked at once; the rest are kept for the oracle.
func (r *runner) checkLocate(a locAnswer) {
	if a.at < 1 || a.at > r.satBase {
		r.ansMu.Lock()
		r.locAns = append(r.locAns, a)
		r.ansMu.Unlock()
		return
	}
	r.locChecks.Add(1)
	dev, room := r.log.dev[a.at-1], r.fl.rooms[r.log.room[a.at-1]]
	if r.cfg.corrupt == "locate" {
		dev++
	}
	if dev != a.target || room != a.room {
		r.failures.add("locate", 1, "locate %s answered room %d at %d, which is not one of its moves", r.pop.users[a.target], a.room, a.at)
	}
}

// frameAcked advances the acknowledged-prefix watermark.
func (r *runner) frameAcked(i int) {
	r.wmMu.Lock()
	defer r.wmMu.Unlock()
	r.wmAcked[i] = true
	for r.wmNext < len(r.frames) && r.wmAcked[r.wmNext] {
		r.wmNext++
	}
	if r.wmNext > 0 {
		r.watermark.Store(int64(r.frames[r.wmNext-1].last()))
	}
}

// execQuery sends one query; due is its due time on the run's clock and
// sample says whether it counts toward the latency metrics. It reports
// whether the query succeeded.
func (r *runner) execQuery(q query, due int64, sample bool) bool {
	users := r.pop.users
	querier, target := users[q.querier], users[q.target]
	from := max(0, q.t-q.span)
	wm := sim.Tick(r.watermark.Load())
	c := r.st.query
	if r.wl.queriesOnIngest {
		c = r.st.ingest
	}
	sent := r.now()
	var err error
	switch q.kind {
	case opLocate:
		var res wire.LocateResult
		if err = c.Call(wire.MsgLocate, &wire.Locate{Querier: querier, Target: target}, &res); err == nil {
			r.checkLocate(locAnswer{target: q.target, room: res.Room, at: res.At})
		}
	case opPath:
		var res wire.PathResult
		if err = c.Call(wire.MsgPath, wire.PathQuery{Querier: querier, Target: target}, &res); err == nil && len(res.Rooms) == 0 {
			r.failures.add("check", 1, "path %s->%s: no rooms", querier, target)
		}
	case opLocateAt:
		var res wire.LocateResult
		if err = c.Call(wire.MsgLocateAt, &wire.LocateAt{Querier: querier, Target: target, At: q.t}, &res); err == nil {
			r.ansMu.Lock()
			r.atAns = append(r.atAns, atAnswer{q: q, checkable: q.t <= wm, room: res.Room, at: res.At})
			r.ansMu.Unlock()
		}
	case opTrajectory:
		var res wire.TrajectoryResult
		if err = c.Call(wire.MsgTrajectory, wire.TrajectoryQuery{Querier: querier, Target: target, From: from, To: q.t}, &res); err == nil {
			r.ansMu.Lock()
			r.trajAns = append(r.trajAns, trajAnswer{q: q, checkable: q.t <= wm, steps: res.Steps})
			r.ansMu.Unlock()
		}
	case opContacts:
		var res wire.ContactsResult
		err = c.Call(wire.MsgContacts, wire.ContactsQuery{Querier: querier, Target: target, From: from, To: q.t}, &res)
	case opOccupancy:
		rooms := []graph.NodeID{r.fl.rooms[q.room]}
		for _, nb := range r.fl.adj[q.room] {
			rooms = append(rooms, r.fl.rooms[nb])
		}
		var res wire.OccupancyResult
		err = c.Call(wire.MsgOccupancy, wire.OccupancyQuery{Querier: querier, Rooms: rooms, From: from, To: q.t, Bucket: max(1, (q.t-from)/16)}, &res)
	case opDwell:
		dq := wire.DwellQuery{Querier: querier, Kind: wire.DwellRoom, Room: r.fl.rooms[q.room], From: from, To: q.t}
		if q.byDevice {
			dq = wire.DwellQuery{Querier: querier, Kind: wire.DwellDevice, Target: target, From: from, To: q.t}
		}
		var res wire.DwellResult
		err = c.Call(wire.MsgDwell, dq, &res)
	}
	done := r.now()
	r.attempted.Add(1)
	if err != nil {
		r.callErr(q.kind, err)
		return false
	}
	if sample {
		if q.kind.history() {
			r.historyRTT.add(due-r.phaseStart, time.Duration(done-due))
		} else {
			r.locateRTT.add(due-r.phaseStart, time.Duration(done-due))
		}
	}
	if r.tr != nil && sample {
		r.rtt[q.kind].add(time.Duration(done - sent))
	}
	return true
}

// openLoop sends ops at their due times, each on its own goroutine, and
// returns once every one has completed. Lateness is how long after its
// due time the generator handed an op off.
func (r *runner) openLoop(next func() (op, bool)) error {
	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		o, ok := next()
		if !ok {
			return nil
		}
		due := r.phaseStart + o.due
		if err := sl.until(r.epoch, due); err != nil {
			return err
		}
		r.genLag.add(o.due, time.Duration(r.now()-due))
		wg.Add(1)
		if o.frame >= 0 {
			go func() { defer wg.Done(); r.execFrame(int(o.frame)) }()
		} else {
			go func() {
				defer wg.Done()
				if r.execQuery(o.q, due, o.due >= r.warm) {
					r.fixedUnits.Add(1)
				}
			}()
		}
	}
}

// sleeper waits until a due time with both of the runtime's wake-up
// paths precise. time.Sleep is precise while any P is running (timers
// are checked at every scheduling point), but on an idle process the
// runtime waits in epoll with a millisecond timeout and oversleeps by
// up to a millisecond. So each wait also arms a timerfd registered
// with the runtime's poller: when every P is idle, its expiry ends that
// epoll wait on time (within the kernel's ~50 µs timer slack).
type sleeper struct {
	fd int
	f  *os.File // registers fd with the runtime's poller
}

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

const clockMonotonic = 1

// until blocks until the run clock (epoch-relative ns) reads due.
func (s *sleeper) until(epoch time.Time, due int64) error {
	d := due - int64(time.Since(epoch))
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval, then it_value; a relative one-shot.
	spec := [4]int64{0, 0, d / int64(time.Second), d % int64(time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	time.Sleep(time.Duration(d))
	// Consume the expiry, so the next arming is a fresh poller event; a
	// wait that ended before it gets EAGAIN.
	var expirations [8]byte
	_, _ = syscall.Read(s.fd, expirations[:])
	return nil
}

func (s *sleeper) close() error { return s.f.Close() }

// fixedPhase runs both connections' schedules open-loop and measures the
// process's CPU time and heap around them. perOp is the CPU time per
// completed op, the median over the measured windows.
func (r *runner) fixedPhase() (cpu, perOp time.Duration, heapInuse uint64, err error) {
	cpu0 := cpuNow()
	r.phaseStart = r.now() + int64(time.Millisecond)
	windows := make(chan time.Duration, 1)
	go func() { windows <- r.cpuPerOp() }()
	frames := 0
	streams := []func() (op, bool){
		func() (op, bool) {
			if frames == len(r.aOps) {
				return op{}, false
			}
			frames++
			return r.aOps[frames-1], true
		},
		r.queryStream(),
	}
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	for i, next := range streams {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = r.openLoop(next) }()
	}
	wg.Wait()
	perOp = <-windows
	if err := errors.Join(errs...); err != nil {
		return 0, 0, 0, fmt.Errorf("generator: %w", err)
	}
	cpu = cpuNow() - cpu0
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled buffers sized by one large
	// response do not count as heap.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cpu, perOp, ms.HeapInuse, nil
}

// cpuPerOp samples the process's CPU time and the completed ops at each
// boundary of the measured windows of the fixed-rate phase and returns
// the median over the windows of CPU time per op, so a slow stretch of a
// shared host moves one window, not the figure. It returns once the
// last window has ended.
func (r *runner) cpuPerOp() time.Duration {
	width := (r.fixedEnd - r.warm) / measureWindows
	var perOp []int64
	var cpu0 time.Duration
	var ops0 int64
	for i := 0; i <= measureWindows; i++ {
		if d := r.phaseStart + r.warm + int64(i)*width - r.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		cpu, ops := cpuNow(), r.fixedUnits.Load()
		if i > 0 && ops > ops0 {
			perOp = append(perOp, int64(cpu-cpu0)/(ops-ops0))
		}
		cpu0, ops0 = cpu, ops
	}
	return summarize(perOp).p50
}

// cpuNow is the process's user plus system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// saturate runs the closed-loop phase: window requests in flight per
// connection, each slot issuing its next request as soon as the last
// one completes, with the fixed-rate phase's mix of request types. It
// returns the ops (moves plus queries) completed per second: the median
// over equal windows of the phase.
func (r *runner) saturate(dur time.Duration) float64 {
	var (
		next atomic.Int64
		done [measureWindows]atomic.Int64
		wg   sync.WaitGroup
	)
	r.walk.capMoves(r.pop.stations, r.log, locdb.DefaultHistoryLimit)
	start := time.Now()
	width := dur / measureWindows
	for s := 0; s < 2*r.wl.window; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w := int(time.Since(start) / width)
				if w >= measureWindows {
					return
				}
				g := newPRNG(mix(r.cfg.seed, 0x5A7, next.Add(1)))
				n := int64(1)
				if k := r.satKind(g); k == opFrame {
					n = r.satFrame(g)
				} else if !r.execQuery(r.drawQuery(k, g, r.fixedLast), r.now(), false) {
					n = 0
				}
				if w := int(time.Since(start) / width); w < measureWindows {
					done[w].Add(n)
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]int64, measureWindows)
	for i := range done {
		rates[i] = done[i].Load()
	}
	return float64(summarize(rates).p50) / width.Seconds()
}

// satFrame generates and sends one closed-loop frame of a random
// station. Its ticks are a function of the station and its frame count,
// so they are unique and rise with the station's sequence numbers. A
// station whose devices have all reached the history limit sends
// nothing.
func (r *runner) satFrame(g *prng) int64 {
	st := r.pop.stations[g.intn(len(r.pop.stations))]
	k := r.wl.frameSize
	st.mu.Lock()
	if st.open == 0 {
		st.mu.Unlock()
		return 0
	}
	j := st.satFrames
	st.satFrames++
	st.seq++
	b := wire.PresenceBatch{Session: st.session, Seq: st.seq}
	var ticks []sim.Tick
	r.walk.frameDeltas(st, k, func(dev, room int32) {
		t := r.satBase + sim.Tick((j*len(r.pop.stations)+st.id)*k+len(ticks)) + 1
		ticks = append(ticks, t)
		st.sat = append(st.sat, delta{tick: t, dev: dev, room: room})
		b.Deltas = append(b.Deltas, presence(r.pop, r.fl, t, dev, room))
	})
	st.mu.Unlock()
	w := r.await(ticks, 2)
	var ack wire.IngestAck
	err := r.st.ingest.Call(wire.MsgPresenceBatch, &b, &ack)
	r.attempted.Add(int64(len(b.Deltas)))
	if err != nil {
		r.callErr(opFrame, err)
		return 0
	}
	if ack.Applied != len(b.Deltas) {
		r.failures.add("ack", int64(len(b.Deltas)), "frame %s/%d: applied %d of %d moves", st.session, b.Seq, ack.Applied, len(b.Deltas))
	}
	if !r.wait(w) {
		r.failures.add("events", 1, "frame %s/%d: room events missing after %v", st.session, b.Seq, eventWait)
	}
	return int64(len(b.Deltas))
}
