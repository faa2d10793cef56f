package locdb

import (
	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/sim"
)

// JournalOp tags one journaled mutation.
type JournalOp uint8

// Journal operations, in the order a write-ahead log records them.
const (
	JournalPresence JournalOp = iota + 1
	JournalAbsence
	JournalDrop
)

// Journal observes every state-changing mutation of a DB from inside
// the owning shard's write lock — the hook a durable backend uses to
// keep a write-ahead log in exact per-device order with the memory
// state, without adding any locking of its own to the delta hot path.
//
// Record must be fast and must not call back into the DB (the shard
// lock is held). Implementations typically append to a per-shard buffer
// that a later commit drains through WithShard/CheckpointShard.
type Journal interface {
	Record(shard int, op JournalOp, dev baseband.BDAddr, piconet graph.NodeID, at sim.Tick)
}

// SetJournal installs the journal hook. It must be called before the
// database sees concurrent use (a backend wires it at construction);
// passing nil detaches the hook.
func (db *DB) SetJournal(j Journal) { db.journal = j }

// WithShard runs fn while holding shard i's write lock. A journal's
// commit uses it to drain the per-shard record buffer in a critical
// section ordered against every mutation of that shard.
func (db *DB) WithShard(i int, fn func()) {
	sh := db.shards[i]
	sh.mu.Lock()
	fn()
	sh.mu.Unlock()
}

// CheckpointShard atomically drains and dumps one shard: it runs drain
// under the shard's write lock and builds the shard's device dump in
// the same critical section, so the returned dump reflects exactly the
// mutations whose journal records drain collected (and every earlier
// one). Checkpointing shard by shard keeps the rest of the database
// fully available while a snapshot is taken.
func (db *DB) CheckpointShard(i int, drain func()) []DeviceDump {
	sh := db.shards[i]
	sh.mu.Lock()
	if drain != nil {
		drain()
	}
	dump := dumpShardLocked(sh)
	sh.mu.Unlock()
	return dump
}
