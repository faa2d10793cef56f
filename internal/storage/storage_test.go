package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// testOpts returns options with automatic snapshots disabled, so tests
// control exactly when checkpoints happen.
func testOpts(dir string) Options {
	return Options{
		Dir:              dir,
		Shards:           4,
		HistoryLimit:     8,
		SnapshotInterval: -1,
	}
}

func mustOpen(t *testing.T, opts Options) *Durable {
	t.Helper()
	d, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameState fails the test unless the two stores hold identical device
// state (current fixes, occupancy counts, and full histories).
func sameState(t *testing.T, want, got locdb.Store) {
	t.Helper()
	type dumper interface{ Dump() []locdb.DeviceDump }
	wd := want.(interface{ Dump() []locdb.DeviceDump })
	var gdumps []locdb.DeviceDump
	if g, ok := got.(dumper); ok {
		gdumps = g.Dump()
	} else {
		t.Fatalf("got store %T has no Dump", got)
	}
	wdumps := wd.Dump()
	if !reflect.DeepEqual(wdumps, gdumps) {
		t.Fatalf("state mismatch:\n want %+v\n  got %+v", wdumps, gdumps)
	}
	if w, g := want.Present(), got.Present(); w != g {
		t.Fatalf("Present: want %d, got %d", w, g)
	}
}

// applyScript walks devices through a deterministic move/absence/drop
// sequence and returns the store for chaining.
func applyScript(s locdb.Store, steps int) {
	for i := 0; i < steps; i++ {
		dev := baseband.BDAddr(0xD000 + uint64(i%23))
		room := graph.NodeID(i * 3 % 11)
		at := sim.Tick(i)
		switch i % 9 {
		case 7:
			s.SetAbsence(dev, room, at)
		case 8:
			if i%27 == 8 {
				s.Drop(dev)
			}
		default:
			s.SetPresence(dev, room, at)
		}
	}
}

// TestRecoverFromWALOnly: a synced store that dies without any
// checkpoint recovers its full state from WAL replay alone.
func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	applyScript(d, 500)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Dump()
	d.crash()

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if got := re.Dump(); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state differs:\n want %+v\n  got %+v", want, got)
	}
	if re.StorageStats()["replayed_records"] == 0 {
		t.Fatal("recovery claims zero replayed records after WAL-only crash")
	}
}

// TestRecoverFromSnapshotPlusWAL: state checkpointed mid-stream plus the
// WAL written after it recovers exactly, and compaction removed the
// segments the checkpoint covers.
func TestRecoverFromSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	applyScript(d, 300)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	applyScript(d, 700) // overlaps and extends the pre-checkpoint script
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Dump()
	d.crash()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0] != 2 {
		t.Fatalf("compaction left segments %v, want first segment to be 2", segs)
	}

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if got := re.Dump(); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state differs:\n want %+v\n  got %+v", want, got)
	}
	st := re.StorageStats()
	if st["restored_devices"] == 0 {
		t.Fatal("recovery did not use the checkpoint")
	}
}

// TestCleanCloseRecovery: Close writes a final checkpoint, so reopening
// replays nothing and still sees everything.
func TestCleanCloseRecovery(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	applyScript(d, 400)
	want := d.Dump()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if got := re.Dump(); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state differs after clean close")
	}
	st := re.StorageStats()
	if st["replayed_records"] != 0 {
		t.Fatalf("clean close still replayed %d records", st["replayed_records"])
	}
	if st["restored_devices"] == 0 {
		t.Fatal("clean close recovery did not use the final checkpoint")
	}
}

// TestTornTailTolerated: garbage appended to the live segment (a crash
// mid-write) is detected by the per-record CRC and replay stops at the
// last intact record.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	applyScript(d, 200)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Dump()
	d.crash()

	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	last := filepath.Join(dir, segmentName(segs[len(segs)-1]))
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A half-record of plausible-looking garbage.
	if _, err := f.Write([]byte{opPresence, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if got := re.Dump(); !reflect.DeepEqual(want, got) {
		t.Fatal("torn tail changed recovered state")
	}
}

// TestMutationDurableWithoutSync: every mutation commits on its own
// goroutine before it returns, so a crash directly after it, with no
// Sync, still recovers it.
func TestMutationDurableWithoutSync(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(d *Durable) bool
	}{
		{"SetPresence", func(d *Durable) bool { return d.SetPresence(2, 3, 20) }},
		{"SetAbsence", func(d *Durable) bool { return d.SetAbsence(1, 1, 20) }},
		{"Drop", func(d *Durable) bool { return d.Drop(1) }},
		{"ApplyBatch", func(d *Durable) bool {
			return d.ApplyBatch([]locdb.Mutation{
				{Op: locdb.MutPresence, Dev: 1, Piconet: 4, At: 20},
				{Op: locdb.MutPresence, Dev: 2, Piconet: 5, At: 21},
			}) == 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, testOpts(dir))
			d.SetPresence(1, 1, 10)
			if !tc.mutate(d) {
				t.Fatal("mutation changed no state")
			}
			want := d.Dump()
			d.crash()

			re := mustOpen(t, testOpts(dir))
			defer re.Close()
			if got := re.Dump(); !reflect.DeepEqual(want, got) {
				t.Fatalf("unsynced %s lost on crash:\n want %+v\n  got %+v", tc.name, want, got)
			}
		})
	}
}

// TestCrashLosesOnlyTheCommitInFlight: what Sync confirmed survives a
// crash, and the loss window still exists — a mutation made while a
// commit is in flight is handed to that commit's holder, and is lost if
// the process dies before the holder writes it.
func TestCrashLosesOnlyTheCommitInFlight(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	d.SetPresence(1, 1, 10)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.walMu.Lock() // a commit in flight
	d.SetPresence(2, 2, 20)
	if !d.pending.Load() {
		t.Fatal("mutation behind a held commit was not flagged for its holder")
	}
	// The process dies before the holder commits the flagged record.
	d.wal.crash()
	d.walMu.Unlock()
	d.crash()

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if _, err := re.Locate(1); err != nil {
		t.Fatal("synced write lost")
	}
	if _, err := re.Locate(2); err == nil {
		t.Fatal("a write behind the commit in flight survived the crash")
	}
}

// TestWALCommitsCountWrites: wal_commits counts write syscalls. A lone
// writer commits each mutation by itself; mutations that arrive while a
// commit is in flight share the next one.
func TestWALCommitsCountWrites(t *testing.T) {
	d := mustOpen(t, testOpts(t.TempDir()))
	defer d.Close()
	commits := func() int64 { return d.StorageStats()["wal_commits"] }

	const n = 10
	for i := 0; i < n; i++ {
		d.SetPresence(1, graph.NodeID(i), sim.Tick(i))
	}
	d.SetPresence(1, n-1, n) // a no-op: nothing journaled, nothing written
	if got := commits(); got != n {
		t.Fatalf("%d sequential mutations made %d commits, want %d", n, got, n)
	}

	const writers, each = 8, 25
	d.walMu.Lock() // a commit in flight while the burst arrives
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				d.SetPresence(baseband.BDAddr(0x100+w), graph.NodeID(i), sim.Tick(i))
			}
		}(w)
	}
	wg.Wait()
	d.unlockWAL()
	st := d.StorageStats()
	if got := st["wal_commits"] - n; got >= writers*each {
		t.Fatalf("a burst of %d mutations made %d commits, want fewer", writers*each, got)
	}
	if got := st["wal_records"]; got != n+writers*each {
		t.Fatalf("wal_records = %d, want %d", got, n+writers*each)
	}
}

// TestNoRecordStrandedUnderContention: writers commit while checkpoints,
// syncs and stats calls hold the WAL lock against them; every record a
// writer handed to a holder must reach the WAL without a final Sync.
// The checkpoint and sync callers stop halfway, because their drains
// would rescue a stranded record; the stats callers keep contending to
// the end, so a record flagged while one of them (or another writer)
// holds the lock is stranded unless the holder commits it.
func TestNoRecordStrandedUnderContention(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			batches := 200
			if fsync {
				batches = 40
			}
			for round := 0; round < 20; round++ {
				dir := t.TempDir()
				opts := testOpts(dir)
				opts.Fsync = fsync
				d := mustOpen(t, opts)
				strandedRound(t, d, batches)
				want := d.Dump()
				d.crash()

				re := mustOpen(t, testOpts(dir))
				got := re.Dump()
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("round %d: records stranded without a commit:\n want %+v\n  got %+v", round, want, got)
				}
			}
		})
	}
}

// strandedRound runs one contention round of
// TestNoRecordStrandedUnderContention and returns once every writer
// and caller has.
func strandedRound(t *testing.T, d *Durable, batches int) {
	const writers = 8
	var (
		half, last, writing, callers sync.WaitGroup
		stopDrains, stopStats        atomic.Bool
	)
	call := func(stop *atomic.Bool, fn func() error) {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for !stop.Load() {
				if err := fn(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	call(&stopDrains, d.Snapshot)
	call(&stopDrains, d.Sync)
	for i := 0; i < 2; i++ {
		call(&stopStats, func() error { d.StorageStats(); return nil })
	}
	half.Add(writers)
	last.Add(writers)
	writing.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writing.Done()
			muts := make([]locdb.Mutation, 8)
			for i := 0; i < batches; i++ {
				switch i {
				case batches / 2:
					half.Done()
				case batches - 1:
					// The writers' last batches land together: no later
					// commit can rescue a record one of them strands.
					last.Done()
					last.Wait()
				}
				for k := range muts {
					muts[k] = locdb.Mutation{
						Op:      locdb.MutPresence,
						Dev:     baseband.BDAddr(0xE000 + uint64(w+i*8+k)%97), // shared across writers
						Piconet: graph.NodeID((w + i + k) % 9),
						At:      sim.Tick(i),
					}
				}
				d.ApplyBatch(muts)
			}
		}(w)
	}
	half.Wait()
	stopDrains.Store(true)
	writing.Wait()
	stopStats.Store(true)
	callers.Wait()
}

// TestConcurrentLoadCrashRecovery: many goroutines hammer the store
// (same devices from competing writers), then the synced state must
// recover exactly. This is the per-device WAL/memory ordering property.
func TestConcurrentLoadCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				dev := baseband.BDAddr(0xE000 + uint64(i%17)) // shared across workers
				room := graph.NodeID((i + w) % 9)
				switch i % 11 {
				case 10:
					d.SetAbsence(dev, room, sim.Tick(i))
				default:
					d.SetPresence(dev, room, sim.Tick(i))
				}
				if i%13 == 0 {
					d.Locate(dev)
					d.LocateAt(dev, sim.Tick(i/2))
					d.Trajectory(dev, 0, sim.Tick(i))
				}
			}
		}()
	}
	wg.Wait()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Dump()
	d.crash()

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if got := re.Dump(); !reflect.DeepEqual(want, got) {
		t.Fatalf("concurrent-load recovery differs:\n want %+v\n  got %+v", want, got)
	}
}

// TestCloseRacesSnapshotTick: Close must never deadlock with a periodic
// snapshot tick (regression: Close used to hold snapMu while joining
// the loop that was itself blocked on snapMu). An aggressive interval
// plus many iterations makes the race land reliably.
func TestCloseRacesSnapshotTick(t *testing.T) {
	for i := 0; i < 30; i++ {
		opts := testOpts(t.TempDir())
		opts.SnapshotInterval = time.Millisecond
		d := mustOpen(t, opts)
		applyScript(d, 50)
		time.Sleep(time.Millisecond) // let a tick be in flight
		done := make(chan error, 1)
		go func() { done <- d.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("iteration %d: Close: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Close deadlocked against a snapshot tick", i)
		}
	}
}

// TestPeriodicSnapshots: the background loop checkpoints on its own and
// compacts the covered segments.
func TestPeriodicSnapshots(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SnapshotInterval = 20 * time.Millisecond
	d := mustOpen(t, opts)
	applyScript(d, 300)
	deadline := time.Now().Add(5 * time.Second)
	for d.StorageStats()["snapshots"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic snapshot within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableIsAStore: the durable backend answers the whole query
// surface like the memory backend fed the same deltas.
func TestDurableIsAStore(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	defer d.Close()
	mem, err := locdb.NewSharded(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(d, 500)
	applyScript(mem, 500)
	sameState(t, mem, d)

	for i := 0; i < 23; i++ {
		dev := baseband.BDAddr(0xD000 + uint64(i))
		f1, e1 := mem.Locate(dev)
		f2, e2 := d.Locate(dev)
		if (e1 == nil) != (e2 == nil) || f1 != f2 {
			t.Fatalf("Locate(%v) differs", dev)
		}
		for _, at := range []sim.Tick{0, 100, 499} {
			f1, e1 := mem.LocateAt(dev, at)
			f2, e2 := d.LocateAt(dev, at)
			if (e1 == nil) != (e2 == nil) || f1 != f2 {
				t.Fatalf("LocateAt(%v, %d) differs", dev, at)
			}
		}
		if !reflect.DeepEqual(mem.Trajectory(dev, 50, 450), d.Trajectory(dev, 50, 450)) {
			t.Fatalf("Trajectory(%v) differs", dev)
		}
		if !reflect.DeepEqual(mem.History(dev), d.History(dev)) {
			t.Fatalf("History(%v) differs", dev)
		}
	}
	if !reflect.DeepEqual(mem.All(), d.All()) {
		t.Fatal("All differs")
	}
	for r := graph.NodeID(0); r < 11; r++ {
		if !reflect.DeepEqual(mem.Occupants(r), d.Occupants(r)) {
			t.Fatalf("Occupants(%d) differs", r)
		}
	}

	// Events flow through the durable wrapper too.
	got := 0
	cancel := d.Subscribe(func(locdb.Event) { got++ })
	defer cancel()
	d.SetPresence(0xF0F0, 1, 1)
	if got != 1 {
		t.Fatalf("subscriber saw %d events, want 1", got)
	}
}

// TestOpenRejectsMissingDir: an empty Dir is a configuration error.
func TestOpenRejectsMissingDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open with no dir accepted")
	}
}

// TestSecondOpenerRejected: one data directory, one process — a second
// concurrent Open must fail loudly instead of interleaving WAL records,
// and the lock must be released by both Close and crash.
func TestSecondOpenerRejected(t *testing.T) {
	dir := t.TempDir()
	d1 := mustOpen(t, testOpts(dir))
	if _, err := Open(testOpts(dir)); err == nil {
		t.Fatal("second opener on a live data directory accepted")
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, testOpts(dir)) // lock released by Close
	d2.crash()
	d3 := mustOpen(t, testOpts(dir)) // and by crash (in-process simulation)
	defer d3.Close()
}

// TestFailedWALIsReported: after the WAL breaks, the store keeps
// serving but StorageStats flags the failure and counts the lost
// records instead of pretending they were flushed.
func TestFailedWALIsReported(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	defer d.crash()
	d.Logf = t.Logf
	d.SetPresence(1, 1, 10)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Break the WAL under it: close the segment file directly.
	d.walMu.Lock()
	d.wal.f.Close()
	d.walMu.Unlock()
	d.SetPresence(2, 2, 20)
	if err := d.Sync(); err == nil {
		t.Fatal("Sync on a broken WAL reported success")
	}
	st := d.StorageStats()
	if st["wal_failed"] != 1 {
		t.Errorf("wal_failed = %d, want 1", st["wal_failed"])
	}
	if st["wal_lost_records"] == 0 {
		t.Error("lost records not counted")
	}
	// Serving continues from memory.
	if _, err := d.Locate(2); err != nil {
		t.Errorf("Locate after WAL failure: %v", err)
	}
}
