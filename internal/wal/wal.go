// Package wal implements the durability subsystem: a write-ahead log of
// applied event batches plus snapshot checkpoints, so a TINTIN instance
// survives process death. The paper's design funnels every update through
// the event tables before ApplyEvents, which makes the applied batch the
// natural redo-log unit: one sequence-numbered record per committed batch,
// appended (and fsynced, per policy) before the in-memory apply. The log
// header, every record and the checkpoint file are frames of package frame.
// Recovery loads the latest valid snapshot and replays the log tail; a
// torn final record — the signature of a crash mid-append — is truncated
// away, while corruption anywhere else in the log is a hard error.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tintin/internal/frame"
	"tintin/internal/obs"
)

// SyncPolicy controls when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record acknowledged to the
	// committer is on disk. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs an append only when SyncInterval has elapsed
	// since the last fsync, bounding the window of acknowledged-but-lost
	// batches to that interval.
	SyncInterval
	// SyncOff never fsyncs on append (the OS flushes at its leisure);
	// only checkpoints and Close force data down.
	SyncOff
)

// ParseSyncPolicy parses the CLI spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off", "never", "none":
		return SyncOff, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Metrics holds the direct metric pointers the store publishes into. All
// fields may be nil (obs primitives are nil-receiver-safe), so an
// unmetered store costs one predictable branch per site.
type Metrics struct {
	Appends     *obs.Counter
	AppendBytes *obs.Counter
	Fsyncs      *obs.Counter
	FsyncNS     *obs.Histogram
	Checkpoints *obs.Counter
	Replayed    *obs.Counter
	// TornTruncations counts torn log tails dropped at open — the
	// signature of a crash mid-append, surfaced so operators can tell a
	// clean restart from one that discarded an unacknowledged batch.
	TornTruncations *obs.Counter
}

// Options configures a Store.
type Options struct {
	Sync SyncPolicy
	// SyncInterval is the fsync period under SyncInterval (default 100ms).
	SyncInterval time.Duration
	Metrics      Metrics
	// Logger receives recovery and checkpoint lifecycle events (torn-tail
	// truncations, checkpoints written). Never called on the append path —
	// the obsdirect analyzer holds logging off commit-reachable code.
	Logger *obs.Logger
	// Injector, when set, simulates crashes and write errors at named
	// points (tests only).
	Injector *Injector
}

const (
	logMagic = "TWAL"
	recMagic = "TREC"

	// The log header frame's body is startSeq(8).
	logHeaderSize = frame.Overhead + 8
	// A record frame's body is seq(8) type(1) payload; recHeaderSize is
	// the record's byte count before its payload.
	recHeaderSize      = frame.HeaderSize + 9
	recTypeEvents      = 1
	defaultFsyncPeriod = 100 * time.Millisecond
)

// ErrCorrupt reports unrecoverable log damage: a bad header, a checksum
// mismatch before the final record, or a sequence-number gap. Torn final
// records are NOT this error — they are silently truncated.
var ErrCorrupt = errors.New("wal: log corrupt")

// record is one replayable log entry found at open.
type record struct {
	seq     uint64
	payload []byte
}

// openLog opens (creating if absent) the log file. A fresh or torn-empty
// log is started right after the snapshot's lastSeq; an existing valid log
// keeps its own start. The valid records found are held for Replay.
func (s *Store) openLog() error {
	path := filepath.Join(s.dir, logName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	end := 0 // length of the valid prefix; 0 starts a fresh log
	switch {
	case len(data) == 0:
	case len(data) < logHeaderSize:
		// Torn header (crash while initializing the log): treat as fresh.
		s.o.Metrics.TornTruncations.Inc()
		s.o.Logger.Warn("wal: dropping torn log header", "path", path, "bytes", len(data))
	default:
		body, n, err := frame.Parse(data, logMagic)
		if err != nil || len(body) != 8 {
			return fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
		}
		s.nextSeq = binary.LittleEndian.Uint64(body)
		if end, err = s.scan(data, n, path); err != nil {
			return err
		}
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	s.f = f
	if s.o.Injector != nil {
		s.f = newFaultFile(f, s.o.Injector)
	}
	if end == 0 {
		err = s.resetLog(s.snapSeq + 1)
	} else {
		err = s.dropTornTail(data, end, path)
	}
	if err != nil {
		f.Close()
		return err
	}
	s.lastSync = time.Now()
	return nil
}

// scan validates the record frames in data from off on, collecting the
// valid ones, and returns the offset just past the last valid record. The
// torn-tail rule: an incomplete frame at EOF, or a complete one whose
// checksum fails exactly at EOF, is a torn write — drop it. A checksum
// failure with more bytes after the frame is mid-log corruption — hard
// error.
func (s *Store) scan(data []byte, off int, path string) (int, error) {
	for off < len(data) {
		body, n, err := frame.Parse(data[off:], recMagic)
		if err != nil {
			if errors.Is(err, frame.ErrTruncated) || off+n == len(data) {
				break // torn: the final record's bytes were only partially persisted
			}
			return 0, fmt.Errorf("%w: record at offset %d in %s: %v", ErrCorrupt, off, path, err)
		}
		if len(body) < 9 {
			return 0, fmt.Errorf("%w: short record at offset %d in %s", ErrCorrupt, off, path)
		}
		if seq := binary.LittleEndian.Uint64(body); seq != s.nextSeq {
			return 0, fmt.Errorf("%w: sequence gap at offset %d in %s: got %d, want %d", ErrCorrupt, off, path, seq, s.nextSeq)
		}
		if typ := body[8]; typ != recTypeEvents {
			return 0, fmt.Errorf("%w: unknown record type %d at offset %d in %s", ErrCorrupt, typ, off, path)
		}
		s.tail = append(s.tail, record{seq: s.nextSeq, payload: body[9:len(body):len(body)]})
		s.nextSeq++
		off += n
	}
	return off, nil
}

// dropTornTail truncates the log to its valid prefix end, so appends
// extend a clean prefix, and positions the file there.
func (s *Store) dropTornTail(data []byte, end int, path string) error {
	if end < len(data) {
		s.o.Metrics.TornTruncations.Inc()
		s.o.Logger.Warn("wal: truncating torn tail", "path", path,
			"dropped_bytes", len(data)-end, "valid_records", len(s.tail))
		if err := s.f.Truncate(int64(end)); err != nil {
			return err
		}
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.size = int64(end)
	_, err := s.f.Seek(s.size, io.SeekStart)
	return err
}

// resetLog truncates the log and starts a new record stream at startSeq:
// a fresh log, or the post-checkpoint compaction step.
func (s *Store) resetLog(startSeq uint64) error {
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], startSeq)
	s.buf.Reset()
	frame.Write(&s.buf, logMagic, seq[:]) // a bytes.Buffer write cannot fail
	if err := s.f.Truncate(0); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := s.f.Write(s.buf.Bytes()); err != nil {
		return err
	}
	if err := s.syncFile(); err != nil {
		return err
	}
	s.size = int64(s.buf.Len())
	s.nextSeq = startSeq
	return nil
}

// Append writes one event-batch record, applies the fsync policy and
// returns the record's sequence number. On any error before the record is
// durable the log file is rewound to its pre-append size, so a failed
// append never leaves bytes a later append would build on. The
// post-fsync-pre-apply fault point fires last, after the record is durable
// per policy.
func (s *Store) Append(payload []byte) (uint64, error) {
	inj := s.o.Injector
	if err := inj.enter(PointPreAppend); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(s.recHdr[:8], s.nextSeq)
	s.recHdr[8] = recTypeEvents
	s.buf.Reset()
	frame.Write(&s.buf, recMagic, s.recHdr[:], payload) // a bytes.Buffer write cannot fail
	rec := s.buf.Bytes()

	rewind := func(err error) (uint64, error) {
		if terr := s.f.Truncate(s.size); terr == nil {
			s.f.Seek(s.size, io.SeekStart)
		}
		return 0, err
	}
	if _, err := s.f.Write(rec); err != nil {
		return rewind(err)
	}
	// The record is in the OS (or the fault buffer) but not yet durable.
	if err := inj.enter(PointMidAppend); err != nil {
		return rewind(err)
	}
	if err := inj.enter(PointPostAppendPreFsync); err != nil {
		return rewind(err)
	}
	if err := s.maybeSync(); err != nil {
		return rewind(err)
	}
	s.size += int64(len(rec))
	seq := s.nextSeq
	s.nextSeq++
	m := s.o.Metrics
	m.Appends.Inc()
	m.AppendBytes.Add(int64(len(rec)))
	if err := inj.enter(PointPostFsyncPreApply); err != nil {
		return seq, err
	}
	return seq, nil
}

func (s *Store) maybeSync() error {
	switch s.o.Sync {
	case SyncAlways:
		return s.syncFile()
	case SyncInterval:
		period := s.o.SyncInterval
		if period <= 0 {
			period = defaultFsyncPeriod
		}
		if time.Since(s.lastSync) >= period {
			return s.syncFile()
		}
	}
	return nil
}

func (s *Store) syncFile() error {
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.lastSync = time.Now()
	m := s.o.Metrics
	m.Fsyncs.Inc()
	m.FsyncNS.ObserveDuration(time.Since(start))
	return nil
}
