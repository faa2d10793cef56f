package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"bips"
	"bips/internal/building"
	"bips/internal/graph"
	"bips/internal/sim"
	"bips/internal/wire"
)

// gridSpacing is the floor's room spacing in meters; the grid position
// of a room is recovered from its center.
const gridSpacing = 10

// floor is the compiled bips.GridPlan with its rooms indexed densely and
// each room's grid neighbours, which bound a device's next move.
type floor struct {
	bld   *building.Building
	rooms []graph.NodeID // room index -> room id
	adj   [][]int32      // room index -> adjacent room indices
}

func newFloor(cols, rows int) (*floor, error) {
	bld, err := bips.GridPlan(cols, rows, gridSpacing).Compile()
	if err != nil {
		return nil, fmt.Errorf("compile grid plan: %w", err)
	}
	rs := bld.Rooms()
	f := &floor{bld: bld, rooms: make([]graph.NodeID, len(rs)), adj: make([][]int32, len(rs))}
	at := make(map[[2]int]int32, len(rs))
	pos := make([][2]int, len(rs))
	for i, r := range rs {
		f.rooms[i] = r.ID
		p := [2]int{int(math.Round(r.Center.X / gridSpacing)), int(math.Round(r.Center.Y / gridSpacing))}
		pos[i] = p
		at[p] = int32(i)
	}
	for i, p := range pos {
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			if j, ok := at[[2]int{p[0] + d[0], p[1] + d[1]}]; ok {
				f.adj[i] = append(f.adj[i], j)
			}
		}
		if len(f.adj[i]) == 0 {
			return nil, fmt.Errorf("room %d has no neighbour", f.rooms[i])
		}
	}
	return f, nil
}

// population is the set of users, their devices and the stations whose
// sessions report them. Device i always reports through station
// i % stations, so one session carries each device's moves in order.
type population struct {
	users    []string
	addrs    []string
	stations []*station
}

const userPassword = "pw"

// deviceAddr is user i's device; the high bytes keep it clear of the
// addresses other tools use.
func deviceAddr(i int) string {
	v := uint64(0xB1B5_0000_0000) + uint64(i) + 1
	return fmt.Sprintf("%02X:%02X:%02X:%02X:%02X:%02X",
		byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func newPopulation(wl workload, seed int64) *population {
	p := &population{users: make([]string, wl.devices), addrs: make([]string, wl.devices)}
	for i := range p.users {
		p.users[i] = fmt.Sprintf("u%05d", i)
		p.addrs[i] = deviceAddr(i)
	}
	for s := 0; s < wl.stations; s++ {
		st := &station{
			id:      s,
			session: fmt.Sprintf("st%03d", s),
			rng:     newRand(mix(seed, 0x57A7, int64(s))),
		}
		for d := s; d < wl.devices; d += wl.stations {
			st.devs = append(st.devs, int32(d))
		}
		st.open = len(st.devs)
		p.stations = append(p.stations, st)
	}
	return p
}

// station is one ingest session. Its lock guards its devices' walk
// state, its frame sequence and the deltas it generated in the
// closed-loop phase.
type station struct {
	mu      sync.Mutex
	id      int
	session string
	devs    []int32
	rng     *rand.Rand
	seq     uint64
	// open is how many of devs, from the front, may still move.
	open int
	// satFrames counts closed-loop frames; sat holds their deltas.
	satFrames int
	sat       []delta
}

// delta is one generated move: the device entered room at tick.
type delta struct {
	tick sim.Tick
	dev  int32
	room int32
}

// tickLog records every move generated before the closed-loop phase,
// indexed by tick-1. It is written only before the run starts, so the
// run's goroutines read it without locks.
type tickLog struct {
	dev  []int32
	room []int32
}

func (l *tickLog) add(dev, room int32) {
	l.dev = append(l.dev, dev)
	l.room = append(l.room, room)
}

func (l *tickLog) last() sim.Tick { return sim.Tick(len(l.dev)) }

// walk is the devices' random walk: cur[d] is device d's room index and,
// once the closed-loop phase has capped them, left[d] how many more moves
// it may make. A device's entries are only touched under its station's
// lock (or before the run starts).
type walk struct {
	fl   *floor
	cur  []int32
	left []int32
}

// move sends dev to a random neighbour of its room, so every delta
// changes the device's room.
func (w *walk) move(dev int32, rng *rand.Rand) int32 {
	nb := w.fl.adj[w.cur[dev]]
	next := nb[rng.Intn(len(nb))]
	w.cur[dev] = next
	return next
}

// place puts every device in a random room; the placement moves are
// ticks 1..devices, in device order.
func (w *walk) place(log *tickLog, rng *rand.Rand) {
	for d := range w.cur {
		w.cur[d] = int32(rng.Intn(len(w.fl.rooms)))
		log.add(int32(d), w.cur[d])
	}
}

// prepRounds moves every device once per round, in a fresh random order
// each round: the recovered history of history-recover.
func (w *walk) prepRounds(log *tickLog, rounds int, rng *rand.Rand) {
	order := make([]int32, len(w.cur))
	for i := range order {
		order[i] = int32(i)
	}
	for r := 0; r < rounds; r++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, d := range order {
			log.add(d, w.move(d, rng))
		}
	}
}

// frameDeltas draws up to n distinct devices among the station's open
// ones and moves each. A capped device that has used its last move is
// closed: swapped behind the open ones. Caller holds st.mu (or runs
// before the run starts).
func (w *walk) frameDeltas(st *station, n int, emit func(dev, room int32)) {
	for i := 0; i < n && i < st.open; i++ {
		j := i + st.rng.Intn(st.open-i)
		st.devs[i], st.devs[j] = st.devs[j], st.devs[i]
		d := st.devs[i]
		emit(d, w.move(d, st.rng))
		if w.left != nil {
			if w.left[d]--; w.left[d] <= 0 {
				st.open--
				st.devs[i], st.devs[st.open] = st.devs[st.open], st.devs[i]
			}
		}
	}
}

// capMoves bounds every device's moves from here on by what the store's
// history keeps, limit runs in all. The oracle's history checks need
// every move a device made to still be in its history; without the cap
// a host fast enough in the closed-loop phase would evict some.
func (w *walk) capMoves(stations []*station, log *tickLog, limit int) {
	w.left = make([]int32, len(w.cur))
	for d := range w.left {
		w.left[d] = int32(limit)
	}
	for _, d := range log.dev {
		w.left[d]--
	}
	for _, st := range stations {
		st.mu.Lock()
		for i := 0; i < st.open; {
			if w.left[st.devs[i]] > 0 {
				i++
				continue
			}
			st.open--
			st.devs[i], st.devs[st.open] = st.devs[st.open], st.devs[i]
		}
		st.mu.Unlock()
	}
}

// presence renders one generated move as the wire delta a station sends.
func presence(pop *population, fl *floor, tick sim.Tick, dev, room int32) wire.Presence {
	return wire.Presence{Device: pop.addrs[dev], Room: fl.rooms[room], At: tick, Present: true}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mix derives an independent 63-bit seed from a base seed and a stream
// identity (splitmix64 finalizer).
func mix(seed int64, parts ...int64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9E3779B97F4A7C15 + uint64(p)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// visitsByDevice groups every generated move by device, in tick order.
func visitsByDevice(devices int, log *tickLog, pop *population) [][]delta {
	out := make([][]delta, devices)
	for i := range log.dev {
		d := log.dev[i]
		out[d] = append(out[d], delta{tick: sim.Tick(i + 1), dev: d, room: log.room[i]})
	}
	for _, st := range pop.stations {
		for _, m := range st.sat {
			out[m.dev] = append(out[m.dev], m)
		}
	}
	for _, v := range out {
		sort.Slice(v, func(i, j int) bool { return v[i].tick < v[j].tick })
	}
	return out
}
