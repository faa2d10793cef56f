package main

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
	"sync/atomic"
	"syscall"
	"time"

	"bips/internal/sim"
)

// The WAL segment format of internal/storage: an 8-byte magic, then
// fixed 29-byte records of op(1) device(8) room(8) tick(8) crc32c(4),
// integers big-endian.
const (
	walMagic   = "BIPSWAL1"
	walRecSize = 29
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walTailer follows the store's WAL segments as the group commit writes
// them and reports every record's tick the moment its bytes are in the
// file. It wakes on inotify writes to the data directory, and at least
// every tailPoll in case a notification is coalesced away. With the
// store's default policy (no fsync per commit) "in the file" is what
// the store calls durable.
type walTailer struct {
	dir   string
	onRec func(tick sim.Tick)

	corrupt atomic.Int64 // bad segment magics and records that failed their CRC

	stop chan struct{}
	done chan struct{}
	err  error
}

const tailPoll = 2 * time.Millisecond

// startTailer starts following the newest segment in dir from its first
// record. Records already in it are reported too; callers ignore ticks
// they do not track.
func startTailer(dir string, onRec func(tick sim.Tick)) (*walTailer, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("inotify: %w", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_MODIFY|syscall.IN_CREATE); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("inotify watch %s: %w", dir, err)
	}
	notes := os.NewFile(uintptr(fd), "inotify")
	seqs, err := walSegments(dir)
	if err != nil || len(seqs) == 0 {
		notes.Close()
		return nil, fmt.Errorf("no WAL segment in %s: %v", dir, err)
	}
	t := &walTailer{dir: dir, onRec: onRec, stop: make(chan struct{}), done: make(chan struct{})}
	go t.loop(notes, seqs[len(seqs)-1])
	return t, nil
}

// close stops the tailer after one last read to the end of the files.
func (t *walTailer) close() error {
	close(t.stop)
	<-t.done
	return t.err
}

func (t *walTailer) loop(notes *os.File, seq uint64) {
	defer close(t.done)
	defer notes.Close()
	buf := make([]byte, 64<<10)
	var (
		f     *os.File
		off   int64
		tail  []byte
		magic bool // the open segment's magic has been read
	)
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for {
		if f == nil {
			var err error
			if f, err = os.Open(filepath.Join(t.dir, walSegmentName(seq))); err != nil {
				t.err = err
				return
			}
			off, tail, magic = 0, tail[:0], false
		}
		// Read everything new in the open segment. The open descriptor
		// keeps a segment readable even after compaction deletes it.
		for {
			n, err := f.ReadAt(buf, off)
			if n > 0 {
				off += int64(n)
				tail = t.consume(append(tail, buf[:n]...), &magic)
			}
			if err == io.EOF || n == 0 {
				break
			}
			if err != nil {
				t.err = err
				return
			}
		}
		// Move on once a newer segment exists: rotation writes the final
		// records before the new segment's magic.
		if seqs, err := walSegments(t.dir); err == nil && len(seqs) > 0 && seqs[len(seqs)-1] > seq {
			for _, s := range seqs {
				if s > seq {
					seq = s
					break
				}
			}
			f.Close()
			f = nil
			continue
		}
		select {
		case <-t.stop:
			return
		default:
		}
		notes.SetReadDeadline(time.Now().Add(tailPoll))
		if _, err := notes.Read(buf[:4096]); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			t.err = err
			return
		}
	}
}

// consume decodes every whole record in b, after the segment's magic
// when *magic is still false, and returns the undecoded remainder.
func (t *walTailer) consume(b []byte, magic *bool) []byte {
	if !*magic {
		if len(b) < len(walMagic) {
			return b
		}
		if string(b[:len(walMagic)]) != walMagic {
			t.corrupt.Add(1)
		}
		b = b[len(walMagic):]
		*magic = true
	}
	for len(b) >= walRecSize {
		r := b[:walRecSize]
		b = b[walRecSize:]
		if crc32.Checksum(r[:25], walCRC) != binary.BigEndian.Uint32(r[25:29]) {
			t.corrupt.Add(1)
			continue
		}
		t.onRec(sim.Tick(int64(binary.BigEndian.Uint64(r[17:25]))))
	}
	return append([]byte(nil), b...)
}

func walSegmentName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

func walSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		if s, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64); err == nil {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}
