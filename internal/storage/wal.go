package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/sim"
)

// WAL segment format. A segment is an 8-byte magic header followed by
// fixed-size records. Every record carries its own CRC so a torn tail
// (the process died mid-write) is detected and replay stops cleanly at
// the last intact record instead of loading garbage.
const (
	segMagic = "BIPSWAL1"
	// recSize is op(1) + device(8) + room(8) + at(8) + crc32(4).
	recSize = 29
)

// Record operations.
const (
	opPresence = byte(1)
	opAbsence  = byte(2)
	opDrop     = byte(3)
)

// record is one decoded WAL entry.
type record struct {
	op   byte
	dev  baseband.BDAddr
	room graph.NodeID
	at   sim.Tick
}

// crcTable is the Castagnoli polynomial: hardware-accelerated on every
// deployment target, and the record CRC sits on the delta hot path.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zeroRec reserves record space in a buffer without a heap-escaping
// stack array.
var zeroRec [recSize]byte

// encode appends the record's wire form (including CRC) to buf. It
// encodes in place so encoding allocates nothing once the buffer has
// warmed up to its steady-state capacity.
func (r record) encode(buf []byte) []byte {
	n := len(buf)
	buf = append(buf, zeroRec[:]...)
	r.encodeAt(buf[n:])
	return buf
}

// encodeAt writes the record's wire form into b, which must hold at
// least recSize bytes.
func (r record) encodeAt(b []byte) {
	b[0] = r.op
	binary.BigEndian.PutUint64(b[1:], uint64(r.dev))
	binary.BigEndian.PutUint64(b[9:], uint64(int64(r.room)))
	binary.BigEndian.PutUint64(b[17:], uint64(int64(r.at)))
	binary.BigEndian.PutUint32(b[25:], crc32.Checksum(b[:25], crcTable))
}

// decodeRecord parses one record, reporting ok=false for a CRC mismatch
// or an unknown op (a torn or corrupt tail).
func decodeRecord(b []byte) (record, bool) {
	if len(b) < recSize {
		return record{}, false
	}
	if crc32.Checksum(b[:25], crcTable) != binary.BigEndian.Uint32(b[25:29]) {
		return record{}, false
	}
	r := record{
		op:   b[0],
		dev:  baseband.BDAddr(binary.BigEndian.Uint64(b[1:9])),
		room: graph.NodeID(int64(binary.BigEndian.Uint64(b[9:17]))),
		at:   sim.Tick(int64(binary.BigEndian.Uint64(b[17:25]))),
	}
	if r.op != opPresence && r.op != opAbsence && r.op != opDrop {
		return record{}, false
	}
	return r, true
}

// segmentName renders the on-disk name of WAL segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// parseSegmentName extracts the sequence number from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the WAL segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// replaySegment streams the intact records of one segment into apply. A
// missing or short header, a torn tail, or a CRC mismatch ends the
// replay of this segment without error — that is exactly the crash
// tolerance the WAL is for. Only real I/O failures are returned.
func replaySegment(path string, apply func(record)) (replayed int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return 0, nil // empty or torn header: nothing recorded
	}
	if string(magic[:]) != segMagic {
		return 0, fmt.Errorf("storage: %s: bad WAL magic %q", filepath.Base(path), magic)
	}
	var b [recSize]byte
	for {
		if _, err := io.ReadFull(f, b[:]); err != nil {
			return replayed, nil // clean EOF or torn tail
		}
		rec, ok := decodeRecord(b[:])
		if !ok {
			return replayed, nil // corrupt tail
		}
		apply(rec)
		replayed++
	}
}

// wal is the file side of the log: one open segment that group commits
// are written to. It has no locking of its own — the Durable store's
// walMu serializes every caller, which is what guarantees a drained
// batch can never cross a segment rotation.
type wal struct {
	dir   string
	fsync bool

	f      *os.File
	seq    uint64
	err    error // sticky write failure
	closed bool
	// commits counts group commits written: one per write syscall.
	commits int64
	// scratch holds one group commit's encoded records so a commit
	// costs a single write syscall; reused across commits.
	scratch []byte
}

// openWAL starts a fresh segment with the given sequence number.
func openWAL(dir string, seq uint64, fsync bool) (*wal, error) {
	w := &wal{dir: dir, fsync: fsync}
	if err := w.openSegment(seq); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment creates segment seq and writes its header.
func (w *wal) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.seq = seq
	return nil
}

// writeRecords encodes the drained shard batches and appends them to
// the segment as one group commit (a single write syscall). sync forces
// an fsync on top — the durability barrier; the demand-driven commit
// passes false and the configured policy decides.
func (w *wal) writeRecords(batches [][]record, sync bool) error {
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return errors.New("storage: wal closed")
	}
	// Size the commit buffer once, then index-fill: no per-record
	// bounds bookkeeping inside the encode loop.
	total := 0
	for _, batch := range batches {
		total += len(batch)
	}
	if cap(w.scratch) < total*recSize {
		w.scratch = make([]byte, 0, total*recSize)
	}
	w.scratch = w.scratch[:total*recSize]
	off := 0
	for _, batch := range batches {
		for i := range batch {
			batch[i].encodeAt(w.scratch[off : off+recSize])
			off += recSize
		}
	}
	if len(w.scratch) > 0 {
		if _, err := w.f.Write(w.scratch); err != nil {
			w.err = fmt.Errorf("storage: wal write: %w", err)
			return w.err
		}
		w.commits++
	}
	if sync || w.fsync {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("storage: wal fsync: %w", err)
			return w.err
		}
	}
	return nil
}

// rotate closes the current (already flushed and fsynced) segment and
// starts the next one. It returns the sequence number of the closed
// segment — the coverage point a snapshot taken after the rotation can
// claim.
func (w *wal) rotate() (closedSeq uint64, err error) {
	if w.closed {
		return w.seq, errors.New("storage: wal closed")
	}
	if err := w.f.Close(); err != nil {
		return w.seq, fmt.Errorf("storage: wal close segment: %w", err)
	}
	closedSeq = w.seq
	if err := w.openSegment(closedSeq + 1); err != nil {
		w.err = err
		w.f = nil
		return closedSeq, err
	}
	return closedSeq, nil
}

// close closes the segment cleanly (the caller has already flushed).
func (w *wal) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.f != nil {
		err = w.f.Close()
		w.f = nil
	}
	return err
}

// crash abandons the WAL the way SIGKILL would: the segment is closed
// without flushing anything more. Only what earlier group commits wrote
// survives on disk. Tests use it to simulate a dead process.
func (w *wal) crash() {
	w.closed = true
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
}
