package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// fuzzPayloads are the records buildLogWith3Records appends, in order.
var fuzzPayloads = []string{"record-one", "record-two", "record-three"}

// FuzzWALOpen mutates the two files of a store directory — wal.log and
// snapshot, taken from a checkpoint followed by three appends — and opens
// the result. OpenStore + Replay must either fail or replay a prefix of the
// appended records, byte for byte and in sequence order; they must never
// panic, and what they allocate is bounded by reading the two files once
// plus a fixed overhead, so no corrupted length field can force a giant
// allocation. The seed corpus under testdata/fuzz/FuzzWALOpen holds the
// pristine directory and its torn, flipped and truncated variants.
func FuzzWALOpen(f *testing.F) {
	dir := buildLogWith3Records(f)
	log, _ := rawLog(f, dir)
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log, snap)

	f.Fuzz(func(t *testing.T, log, snap []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var got [][]byte
		s, err := OpenStore(dir, Options{Sync: SyncOff})
		if err == nil {
			_, err = s.Replay(func(seq uint64, payload []byte) error {
				if seq != uint64(len(got)+1) {
					t.Fatalf("replayed seq %d after %d records", seq, len(got))
				}
				got = append(got, payload)
				return nil
			})
			s.Close()
		}
		runtime.ReadMemStats(&after)

		if err == nil {
			if len(got) > len(fuzzPayloads) {
				t.Fatalf("replayed %d records, only %d were appended", len(got), len(fuzzPayloads))
			}
			for i, p := range got {
				if !bytes.Equal(p, []byte(fuzzPayloads[i])) {
					t.Fatalf("record %d replayed as %q, appended as %q", i+1, p, fuzzPayloads[i])
				}
			}
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*(len(log)+len(snap))+64<<10); alloc > limit {
			t.Fatalf("open+replay of %d input bytes allocated %d bytes (limit %d)", len(log)+len(snap), alloc, limit)
		}
	})
}
