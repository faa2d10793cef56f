package main

import (
	"fmt"
	"math"
)

// subShape is the subscription set a workload holds on the query
// connection during its whole run.
type subShape struct {
	allRooms  bool // one room subscription per room
	zones     int  // zone (geofence) subscriptions, each on its own target
	devices   int  // device subscriptions, checked event by event
	occupancy int  // occupancy-threshold subscriptions
}

// queryRates are offered query rates in requests per second.
type queryRates struct {
	locate, path                                     float64
	locateAt, trajectory, contacts, occupancy, dwell float64
}

func (q queryRates) total() float64 {
	return q.locate + q.path + q.locateAt + q.trajectory + q.contacts + q.occupancy + q.dwell
}

// workload is one traffic mix. The fixed-rate phase offers exactly these
// rates; the closed-loop phase keeps the same mix of request types.
type workload struct {
	name string
	why  string

	cols, rows int // bips.GridPlan floor
	devices    int // users, each with one walking device
	stations   int // ingest sessions on the station connection
	stationHz  float64
	frameSize  int // deltas per presence.batch frame
	queries    queryRates
	subs       subShape

	// prepVisits > 0 makes the untimed preparation write that many
	// moves per device into a data directory that set-up then recovers.
	prepVisits int
	// window is the closed-loop phase's requests in flight per
	// connection.
	window int
	// queriesOnIngest sends the queries on the station connection, so
	// the subscriber connection carries only pushed events.
	queriesOnIngest bool
}

func (w workload) deltaRate() float64 {
	return float64(w.stations) * w.stationHz * float64(w.frameSize)
}

// workloads are the benchmark's traffic mixes. Every workload carries a
// low-rate background of each traffic class, so every end-to-end metric
// has at least a thousand samples on every workload. The offered load is
// a tenth to a fifth of the closed-loop throughput of a 2-CPU host:
// at half, the medians did not repeat from run to run there.
var workloads = []workload{
	{
		name: "ingest-fanout",
		why:  "station frames into a durable store with room, zone, device and occupancy subscribers: ingest, locdb writes, WAL, analytics writes, fan-out and pushes",
		cols: 16, rows: 16, devices: 16384,
		stations: 40, stationHz: 10, frameSize: 48,
		queries: queryRates{locate: 500, path: 100, locateAt: 200, trajectory: 200, contacts: 20, occupancy: 20, dwell: 40},
		subs:    subShape{allRooms: true, zones: 8, devices: 32, occupancy: 16},
		window:  8,

		queriesOnIngest: true,
	},
	{
		name: "locate-serve",
		why:  "small reads at a fixed rate, Locate and Path, over a trickle of ingest: wire decode, dispatch, registry, inline reads and writer flushes",
		cols: 16, rows: 16, devices: 4096,
		stations: 40, stationHz: 10, frameSize: 2,
		queries: queryRates{locate: 15000, path: 1500, locateAt: 150, trajectory: 150, contacts: 50, occupancy: 50, dwell: 100},
		subs:    subShape{allRooms: true, devices: 8},
		window:  16,
	},
	{
		name: "history-recover",
		why:  "recovers a seeded history larger than the analytics hot tier, then serves LocateAt, Trajectory, Contacts, Occupancy and Dwell over a trickle of ingest",
		cols: 16, rows: 16, devices: 4096,
		stations: 40, stationHz: 10, frameSize: 2,
		queries:    queryRates{locate: 500, path: 100, locateAt: 300, trajectory: 300, contacts: 40, occupancy: 40, dwell: 40},
		subs:       subShape{allRooms: true, devices: 8},
		prepVisits: 32,
		window:     16,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a workload for smoke tests: populations and rates are
// multiplied by f, keeping at least one of everything.
func (w workload) scaled(f float64) workload {
	if f == 1 {
		return w
	}
	atLeast := func(n int, min int) int {
		v := int(math.Round(float64(n) * f))
		if v < min {
			return min
		}
		return v
	}
	w.devices = atLeast(w.devices, 64)
	w.stations = atLeast(w.stations, 4)
	w.cols, w.rows = atLeast(w.cols, 4), atLeast(w.rows, 4)
	r := &w.queries
	for _, p := range []*float64{&r.locate, &r.path, &r.locateAt, &r.trajectory, &r.contacts, &r.occupancy, &r.dwell} {
		*p = math.Max(*p*f, 5)
	}
	if w.subs.zones > 0 {
		w.subs.zones = atLeast(w.subs.zones, 1)
	}
	w.subs.devices = atLeast(w.subs.devices, 2)
	if w.subs.occupancy > 0 {
		w.subs.occupancy = atLeast(w.subs.occupancy, 1)
	}
	if w.prepVisits > 0 {
		w.prepVisits = atLeast(w.prepVisits, 8)
	}
	w.window = atLeast(w.window, 4)
	return w
}
