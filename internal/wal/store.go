// Store ties the log and the snapshot checkpoints into one durable
// directory:
//
//	<dir>/snapshot   latest checkpoint: a frame holding lastSeq(8) and the payload
//	<dir>/wal.log    a header frame holding startSeq(8), then one frame per record
//
// Checkpoint protocol: write snapshot.tmp, fsync it, rename over snapshot,
// fsync the directory, then reset the log to start at lastSeq+1. A crash
// between the rename and the reset leaves records the snapshot already
// covers; replay skips any record with seq <= the snapshot's lastSeq, so
// the protocol is idempotent at every step.
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tintin/internal/frame"
)

const (
	snapshotName = "snapshot"
	tmpName      = "snapshot.tmp"
	logName      = "wal.log"
	snapMagic    = "TWSP"
)

// Store is the durable state of one tool: snapshot + WAL tail.
type Store struct {
	dir string
	o   Options

	// The log file and its append state.
	f        file
	size     int64  // bytes acknowledged into the log (header + records)
	nextSeq  uint64 // sequence number of the next append
	lastSync time.Time
	buf      bytes.Buffer // reusable frame encode buffer
	recHdr   [9]byte      // seq and type of the record being appended

	snap    []byte // snapshot payload read at open (nil if none)
	snapSeq uint64 // lastSeq recorded in that snapshot
	hasSnap bool
	tail    []record // valid log records found at open
}

// OpenStore opens (creating if needed) the durable directory. Corrupt
// snapshots and mid-log corruption are hard errors; a torn final log
// record is silently truncated.
func OpenStore(dir string, o Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A leftover tmp file is an incomplete checkpoint: discard it.
	os.Remove(filepath.Join(dir, tmpName))

	s := &Store{dir: dir, o: o}
	if err := s.readSnapshot(); err != nil {
		return nil, err
	}
	if err := s.openLog(); err != nil {
		return nil, err
	}
	if !s.hasSnap && len(s.tail) > 0 {
		s.f.Close()
		return nil, fmt.Errorf("%w: %s holds wal records but no snapshot", ErrCorrupt, dir)
	}
	if s.hasSnap && s.nextSeq <= s.snapSeq && len(s.tail) == 0 {
		// An empty log can only start at or after lastSeq+1.
		s.f.Close()
		return nil, fmt.Errorf("%w: log in %s starts at seq %d behind snapshot seq %d", ErrCorrupt, dir, s.nextSeq, s.snapSeq)
	}
	return s, nil
}

// Snapshot returns the checkpoint payload found at open, if any.
func (s *Store) Snapshot() ([]byte, bool) { return s.snap, s.hasSnap }

// Replay invokes fn for every log record newer than the snapshot, in
// order, and returns how many were replayed. Records the snapshot already
// covers (a crash interrupted the post-checkpoint log reset) are skipped.
func (s *Store) Replay(fn func(seq uint64, payload []byte) error) (int, error) {
	n := 0
	for _, r := range s.tail {
		if s.hasSnap && r.seq <= s.snapSeq {
			continue
		}
		if err := fn(r.seq, r.payload); err != nil {
			return n, fmt.Errorf("wal: replaying record %d: %w", r.seq, err)
		}
		n++
		s.o.Metrics.Replayed.Inc()
	}
	s.tail = nil
	s.snap = nil // release; recovery is done with it
	return n, nil
}

// TailLen reports how many valid records the log held at open (including
// any the snapshot already covers).
func (s *Store) TailLen() int { return len(s.tail) }

// Checkpoint atomically replaces the snapshot with the payload written by
// write and truncates the log. After it returns, recovery needs only the
// new snapshot.
func (s *Store) Checkpoint(write func(w io.Writer) error) error {
	if err := s.o.Injector.dead(); err != nil {
		return err
	}
	// Everything the snapshot will contain must be at least as durable as
	// the log it supersedes.
	if err := s.syncFile(); err != nil {
		return err
	}
	lastSeq := s.nextSeq - 1

	var payload bytes.Buffer
	if err := write(&payload); err != nil {
		return err
	}
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], lastSeq)

	tmp := filepath.Join(s.dir, tmpName)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	werr := frame.Write(f, snapMagic, seq[:], payload.Bytes())
	if werr == nil {
		werr = f.Sync()
	}
	if werr != nil {
		f.Close()
		os.Remove(tmp)
		return werr
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return err
	}
	syncDir(s.dir)
	s.snapSeq, s.hasSnap = lastSeq, true

	if err := s.o.Injector.enter(PointMidCheckpoint); err != nil {
		return err
	}
	if err := s.resetLog(lastSeq + 1); err != nil {
		return err
	}
	s.o.Metrics.Checkpoints.Inc()
	s.o.Logger.Info("wal: checkpoint written", "dir", s.dir, "last_seq", lastSeq, "bytes", payload.Len())
	return nil
}

// Close syncs and closes the log. Safe after an injected crash (the crash
// already decided what survived).
func (s *Store) Close() error {
	if s.o.Injector.Crashed() {
		return s.f.Close()
	}
	serr := s.f.Sync()
	cerr := s.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// readSnapshot loads and verifies the checkpoint file, if there is one.
// Corruption or truncation is a hard error (the snapshot is written
// atomically — tears cannot be torn writes).
func (s *Store) readSnapshot() error {
	path := filepath.Join(s.dir, snapshotName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	body, n, err := frame.Parse(data, snapMagic)
	switch {
	case err != nil:
		return fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, path, err)
	case n != len(data) || len(body) < 8:
		return fmt.Errorf("%w: snapshot %s is malformed", ErrCorrupt, path)
	}
	s.snapSeq = binary.LittleEndian.Uint64(body)
	s.snap, s.hasSnap = body[8:], true
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable; best-effort
// on platforms where directories reject fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
