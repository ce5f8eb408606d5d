package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tintin/internal/obs"
)

func openTestStore(t testing.TB, dir string, o Options) *Store {
	t.Helper()
	s, err := OpenStore(dir, o)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", dir, err)
	}
	return s
}

func mustAppend(t testing.TB, s *Store, payload string) uint64 {
	t.Helper()
	seq, err := s.Append([]byte(payload))
	if err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
	return seq
}

func replayAll(t *testing.T, s *Store) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	if _, err := s.Replay(func(seq uint64, payload []byte) error {
		got[seq] = string(payload)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendCloseReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	if err := s.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("state0")); return err }); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 3; i++ {
		if seq := mustAppend(t, s, fmt.Sprintf("batch%d", i)); seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTestStore(t, dir, Options{})
	snap, found := s2.Snapshot()
	if !found || string(snap) != "state0" {
		t.Fatalf("snapshot = %q, %v", snap, found)
	}
	got := replayAll(t, s2)
	if len(got) != 3 || got[1] != "batch0" || got[3] != "batch2" {
		t.Fatalf("replayed %v", got)
	}
	// Appends continue the sequence.
	if seq := mustAppend(t, s2, "batch3"); seq != 4 {
		t.Fatalf("post-replay append seq = %d, want 4", seq)
	}
	s2.Close()
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	s.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("v0")); return err })
	mustAppend(t, s, "a")
	mustAppend(t, s, "b")
	if err := s.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("v1")); return err }); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mustAppend(t, s, "c")
	s.Close()

	s2 := openTestStore(t, dir, Options{})
	snap, _ := s2.Snapshot()
	if string(snap) != "v1" {
		t.Fatalf("snapshot = %q, want v1", snap)
	}
	got := replayAll(t, s2)
	if len(got) != 1 || got[3] != "c" {
		t.Fatalf("replayed %v, want only seq 3 = c", got)
	}
	s2.Close()
}

// corrupt opens the raw log file and returns its bytes plus a writer-back.
func rawLog(t testing.TB, dir string) ([]byte, func([]byte)) {
	t.Helper()
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	return data, func(b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatalf("write log: %v", err)
		}
	}
}

func buildLogWith3Records(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	s.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("base")); return err })
	mustAppend(t, s, "record-one")
	mustAppend(t, s, "record-two")
	mustAppend(t, s, "record-three")
	s.Close()
	return dir
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := buildLogWith3Records(t)
	data, write := rawLog(t, dir)
	write(data[:len(data)-4]) // tear the last record mid-payload

	s := openTestStore(t, dir, Options{})
	got := replayAll(t, s)
	if len(got) != 2 || got[2] != "record-two" {
		t.Fatalf("replayed %v, want records 1-2", got)
	}
	// The torn bytes are gone: the next append must land cleanly and
	// reuse the unacknowledged sequence number.
	if seq := mustAppend(t, s, "record-three-retry"); seq != 3 {
		t.Fatalf("append after torn tail got seq %d, want 3", seq)
	}
	s.Close()
	s2 := openTestStore(t, dir, Options{})
	if got := replayAll(t, s2); got[3] != "record-three-retry" {
		t.Fatalf("after retry, replayed %v", got)
	}
	s2.Close()
}

func TestBadCRCOnFinalRecordTruncated(t *testing.T) {
	dir := buildLogWith3Records(t)
	data, write := rawLog(t, dir)
	data[len(data)-1] ^= 0xff // flip a bit inside the final record's payload
	write(data)

	s := openTestStore(t, dir, Options{})
	if got := replayAll(t, s); len(got) != 2 {
		t.Fatalf("replayed %v, want records 1-2", got)
	}
	s.Close()
}

func TestMidLogCorruptionHardError(t *testing.T) {
	dir := buildLogWith3Records(t)
	data, write := rawLog(t, dir)
	// Flip a payload bit of the FIRST record: valid records follow, so
	// this cannot be a torn write.
	data[logHeaderSize+recHeaderSize] ^= 0xff
	write(data)

	if _, err := OpenStore(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-log corruption: %v, want ErrCorrupt", err)
	}
}

func TestHeaderCorruptionHardError(t *testing.T) {
	dir := buildLogWith3Records(t)
	data, write := rawLog(t, dir)
	data[6] ^= 0xff // inside startSeq, covered by the header CRC
	write(data)
	if _, err := OpenStore(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over header corruption: %v, want ErrCorrupt", err)
	}
}

func TestTornHeaderTreatedAsFresh(t *testing.T) {
	dir := buildLogWith3Records(t)
	// Crash mid log-reset: only part of the new header reached disk.
	data, write := rawLog(t, dir)
	write(data[:5])
	s := openTestStore(t, dir, Options{})
	if got := replayAll(t, s); len(got) != 0 {
		t.Fatalf("torn-header log replayed %v, want nothing", got)
	}
	// The snapshot still anchors the sequence: appends resume after it.
	if seq := mustAppend(t, s, "x"); seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	s.Close()
}

func TestSnapshotCorruptionHardError(t *testing.T) {
	dir := buildLogWith3Records(t)
	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"bit-flip":  func(b []byte) []byte { b[len(b)-3] ^= 1; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
		"bad-magic": func(b []byte) []byte { b[0] = 'X'; return b },
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenStore(dir, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open = %v, want ErrCorrupt", err)
			}
		})
	}
	os.WriteFile(path, data, 0o644)
}

func TestRecordsWithoutSnapshotHardError(t *testing.T) {
	dir := buildLogWith3Records(t)
	if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open = %v, want ErrCorrupt", err)
	}
}

func TestLeftoverTmpSnapshotDiscarded(t *testing.T) {
	dir := buildLogWith3Records(t)
	tmp := filepath.Join(dir, tmpName)
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp snapshot survived open: %v", err)
	}
	s.Close()
}

func TestSyncPolicies(t *testing.T) {
	count := func(o Options, appends int, between func()) int64 {
		reg := obs.NewRegistry()
		o.Metrics = Metrics{Appends: reg.Counter("a"), Fsyncs: reg.Counter("f")}
		fsyncs := o.Metrics.Fsyncs
		dir := t.TempDir()
		s := openTestStore(t, dir, o)
		s.Checkpoint(func(w io.Writer) error { return nil })
		base := fsyncs.Value() // header/checkpoint syncs don't count
		for i := 0; i < appends; i++ {
			mustAppend(t, s, "x")
			if between != nil {
				between()
			}
		}
		n := fsyncs.Value() - base
		s.Close()
		return n
	}
	if n := count(Options{Sync: SyncAlways}, 5, nil); n != 5 {
		t.Errorf("always: %d fsyncs over 5 appends, want 5", n)
	}
	if n := count(Options{Sync: SyncOff}, 5, nil); n != 0 {
		t.Errorf("off: %d fsyncs over 5 appends, want 0", n)
	}
	if n := count(Options{Sync: SyncInterval, SyncInterval: time.Hour}, 5, nil); n != 0 {
		t.Errorf("interval(1h): %d fsyncs over 5 appends, want 0", n)
	}
	if n := count(Options{Sync: SyncInterval, SyncInterval: time.Nanosecond}, 5, func() { time.Sleep(time.Microsecond) }); n != 5 {
		t.Errorf("interval(1ns): %d fsyncs over 5 appends, want 5", n)
	}
}

func TestUnsyncedAppendsSurviveGracefulClose(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{Sync: SyncOff})
	s.Checkpoint(func(w io.Writer) error { return nil })
	mustAppend(t, s, "unsynced")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, Options{})
	if got := replayAll(t, s2); got[1] != "unsynced" {
		t.Fatalf("replayed %v", got)
	}
	s2.Close()
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "": SyncAlways, "interval": SyncInterval, "off": SyncOff, "OFF": SyncOff} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy(sometimes) accepted")
	}
}

func TestInjectorCrashLosesUnpersistedBytes(t *testing.T) {
	// With Persist=0 at post-append-pre-fsync, the record must vanish: the
	// fault file buffers unsynced writes precisely so "lost page cache"
	// is honestly simulated.
	dir := t.TempDir()
	inj := &Injector{Point: PointPostAppendPreFsync, Persist: PersistNone}
	s := openTestStore(t, dir, Options{Sync: SyncAlways, Injector: inj})
	s.Checkpoint(func(w io.Writer) error { return nil })
	mustAppend(t, s, "durable")
	inj.Arm()
	if _, err := s.Append([]byte("lost")); !errors.Is(err, ErrCrash) {
		t.Fatalf("append = %v, want ErrCrash", err)
	}
	if _, err := s.Append([]byte("after-death")); !errors.Is(err, ErrCrash) {
		t.Fatalf("append after crash = %v, want ErrCrash", err)
	}
	s.Close()

	s2 := openTestStore(t, dir, Options{})
	got := replayAll(t, s2)
	if len(got) != 1 || got[1] != "durable" {
		t.Fatalf("survivors = %v, want only seq 1", got)
	}
	s2.Close()
}

func TestInjectorPartialPersistTearsRecord(t *testing.T) {
	dir := t.TempDir()
	inj := &Injector{Point: PointMidAppend, Persist: recHeaderSize + 2}
	s := openTestStore(t, dir, Options{Sync: SyncAlways, Injector: inj})
	s.Checkpoint(func(w io.Writer) error { return nil })
	mustAppend(t, s, "full")
	inj.Arm()
	if _, err := s.Append([]byte("torn-record-payload")); !errors.Is(err, ErrCrash) {
		t.Fatalf("append = %v, want ErrCrash", err)
	}
	s.Close()

	// The torn prefix must be detected and truncated on reopen.
	s2 := openTestStore(t, dir, Options{})
	got := replayAll(t, s2)
	if len(got) != 1 || got[1] != "full" {
		t.Fatalf("survivors = %v, want only seq 1", got)
	}
	if seq := mustAppend(t, s2, "retry"); seq != 2 {
		t.Fatalf("retry seq = %d, want 2", seq)
	}
	s2.Close()
}

func TestInjectorTransientErrorRecoverable(t *testing.T) {
	dir := t.TempDir()
	inj := &Injector{Point: PointPostAppendPreFsync, Transient: true}
	s := openTestStore(t, dir, Options{Sync: SyncAlways, Injector: inj})
	s.Checkpoint(func(w io.Writer) error { return nil })
	inj.Arm()
	if _, err := s.Append([]byte("failed")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append = %v, want ErrInjected", err)
	}
	// The failed record's bytes were rewound; the store keeps working and
	// the next append reuses the sequence number.
	if seq := mustAppend(t, s, "ok"); seq != 1 {
		t.Fatalf("seq after transient error = %d, want 1", seq)
	}
	s.Close()
	s2 := openTestStore(t, dir, Options{})
	got := replayAll(t, s2)
	if len(got) != 1 || got[1] != "ok" {
		t.Fatalf("replayed %v, want only ok@1", got)
	}
	s2.Close()
}

func TestCrashMidCheckpointRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := &Injector{Point: PointMidCheckpoint}
	s := openTestStore(t, dir, Options{Injector: inj})
	s.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("v0")); return err })
	mustAppend(t, s, "a")
	mustAppend(t, s, "b")
	inj.Arm()
	// The snapshot lands, the log reset does not.
	err := s.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("v1")); return err })
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("checkpoint = %v, want ErrCrash", err)
	}
	s.Close()

	s2 := openTestStore(t, dir, Options{})
	snap, _ := s2.Snapshot()
	if string(snap) != "v1" {
		t.Fatalf("snapshot = %q, want v1 (rename is the commit point)", snap)
	}
	// Records a/b predate the v1 snapshot; replaying them would double-
	// apply, so they must be skipped.
	if got := replayAll(t, s2); len(got) != 0 {
		t.Fatalf("replayed %v, want nothing", got)
	}
	if seq := mustAppend(t, s2, "c"); seq != 3 {
		t.Fatalf("next seq = %d, want 3", seq)
	}
	s2.Close()
}

func TestReplaySkipsMetricsAndCounts(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := openTestStore(t, dir, Options{})
	s.Checkpoint(func(w io.Writer) error { return nil })
	mustAppend(t, s, "a")
	s.Close()

	o := Options{Metrics: Metrics{Replayed: reg.Counter("tintin_wal_replayed_records_total")}}
	s2 := openTestStore(t, dir, o)
	n, err := s2.Replay(func(uint64, []byte) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	if v := o.Metrics.Replayed.Value(); v != 1 {
		t.Fatalf("replayed counter = %d", v)
	}
	s2.Close()
}

func TestReplayCallbackErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	s.Checkpoint(func(w io.Writer) error { return nil })
	mustAppend(t, s, "a")
	s.Close()
	s2 := openTestStore(t, dir, Options{})
	boom := errors.New("boom")
	if _, err := s2.Replay(func(uint64, []byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Replay = %v, want boom", err)
	}
	s2.Close()
}

func TestEmptyPayloadRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	s.Checkpoint(func(w io.Writer) error { return nil })
	mustAppend(t, s, "")
	s.Close()
	s2 := openTestStore(t, dir, Options{})
	got := replayAll(t, s2)
	if payload, ok := got[1]; !ok || !bytes.Equal([]byte(payload), nil) {
		t.Fatalf("replayed %v", got)
	}
	s2.Close()
}

// TestTornTailObservability pins the torn-tail instrumentation: truncating
// a torn final record increments the recovery counter and emits one warn
// record naming the dropped byte count; a torn header does the same.
func TestTornTailObservability(t *testing.T) {
	dir := buildLogWith3Records(t)
	data, write := rawLog(t, dir)
	write(data[:len(data)-4])

	var logBuf bytes.Buffer
	reg := obs.NewRegistry()
	torn := reg.Counter("torn_total")
	s := openTestStore(t, dir, Options{
		Metrics: Metrics{TornTruncations: torn},
		Logger:  obs.TextLogger(&logBuf, slog.LevelWarn),
	})
	if got := torn.Value(); got != 1 {
		t.Fatalf("torn truncations = %d, want 1", got)
	}
	out := logBuf.String()
	// The drop covers the whole partial record (header and payload; its
	// checksum was torn off), not just the missing bytes.
	dropped := fmt.Sprintf("dropped_bytes=%d", recHeaderSize+len("record-three"))
	if !strings.Contains(out, "truncating torn tail") || !strings.Contains(out, dropped) ||
		!strings.Contains(out, "valid_records=2") {
		t.Fatalf("torn-tail warn record missing or wrong:\n%s", out)
	}
	s.Close()

	// Torn header: the whole log is treated as fresh, counted and logged.
	dir2 := buildLogWith3Records(t)
	data2, write2 := rawLog(t, dir2)
	write2(data2[:5])
	logBuf.Reset()
	torn2 := reg.Counter("torn2_total")
	s2 := openTestStore(t, dir2, Options{
		Metrics: Metrics{TornTruncations: torn2},
		Logger:  obs.TextLogger(&logBuf, slog.LevelWarn),
	})
	if got := torn2.Value(); got != 1 {
		t.Fatalf("torn-header truncations = %d, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "torn log header") {
		t.Fatalf("torn-header warn record missing:\n%s", logBuf.String())
	}
	s2.Close()
}
