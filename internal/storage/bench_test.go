package storage

import (
	"testing"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// BenchmarkLocdbDelta measures the workstation delta hot path — the
// operation every cell performs for every moving device every cycle —
// against the two storage backends: the in-memory-only store and the
// durable store (history + group-committed WAL).
//
// ns/op here is the single-writer saturation cost: one goroutine
// issues real moves as fast as the store absorbs them, so no two
// mutations ever share a group commit and every delta pays its own
// commit (record encode plus one write syscall). That is the worst
// case for the durable backend; concurrent writers share commits, and
// batched ingest commits a whole frame at once. The numbers are
// recorded by .github/bench.sh into BENCH_PR4.json and discussed in
// docs/OPERATIONS.md.
func BenchmarkLocdbDelta(b *testing.B) {
	const devices = 1024
	const rooms = 32

	run := func(b *testing.B, s locdb.Store) {
		// Pre-populate so every delta is a real move over warm state.
		for i := 0; i < devices; i++ {
			s.SetPresence(baseband.BDAddr(0xB000_0000_0001+uint64(i)), graph.NodeID(i%rooms), 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i*2654435761)%devices)
			// Advance the room on every revisit so the delta is a real
			// move (map + history mutation), never the unchanged no-op.
			room := graph.NodeID((i + i/devices) % rooms)
			s.SetPresence(dev, room, sim.Tick(i+1))
		}
		b.StopTimer()
	}

	b.Run("mem", func(b *testing.B) {
		db, err := locdb.NewSharded(locdb.DefaultShards, locdb.DefaultHistoryLimit)
		if err != nil {
			b.Fatal(err)
		}
		run(b, db)
	})

	b.Run("durable", func(b *testing.B) {
		d, err := Open(Options{
			Dir:              b.TempDir(),
			Shards:           locdb.DefaultShards,
			HistoryLimit:     locdb.DefaultHistoryLimit,
			SnapshotInterval: -1, // measure the WAL path, not checkpoint stalls
		})
		if err != nil {
			b.Fatal(err)
		}
		run(b, d)
		d.crash() // skip the final checkpoint; the tempdir is discarded
	})
}

// BenchmarkLocdbHistoryQueries measures the read side of the history
// surface on a populated store.
func BenchmarkLocdbHistoryQueries(b *testing.B) {
	db := locdb.New()
	const devices = 256
	for i := 0; i < devices; i++ {
		dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i))
		for m := 0; m < locdb.DefaultHistoryLimit; m++ {
			db.SetPresence(dev, graph.NodeID(m%32), sim.Tick(10*m))
		}
	}
	b.Run("locateAt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i%devices))
			if _, err := db.LocateAt(dev, sim.Tick(i%1280)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trajectory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := baseband.BDAddr(0xB000_0000_0001 + uint64(i%devices))
			from := sim.Tick(i % 640)
			if got := db.Trajectory(dev, from, from+320); len(got) == 0 {
				b.Fatal("empty trajectory")
			}
		}
	})
}

// BenchmarkRecordEncode isolates the marginal CPU cost one delta adds
// on the hot path: encoding a 29-byte CRC-protected record into the
// stripe's group-commit buffer.
func BenchmarkRecordEncode(b *testing.B) {
	buf := make([]byte, 0, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(buf) >= 1<<20-recSize {
			buf = buf[:0]
		}
		buf = record{op: opPresence, dev: baseband.BDAddr(i), room: graph.NodeID(i % 32), at: sim.Tick(i)}.encode(buf)
	}
}
