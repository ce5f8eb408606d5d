package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("orders", row(1, 7, 1.5)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", sqltypes.Row{sqltypes.NewInt(2), sqltypes.Null, sqltypes.Null}); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallEventTables(); err != nil {
		t.Fatal(err)
	}
	if err := db.SetCapture(true); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", row(3, 3, 3.0)); err != nil { // pending event
		t.Fatal(err)
	}
	sel, err := sqlparser.ParseSelect("SELECT * FROM orders WHERE o_custkey = 7")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v7", sel); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != db.Name || !got.CaptureEnabled() {
		t.Errorf("db meta lost: name=%s capture=%v", got.Name, got.CaptureEnabled())
	}
	if got.MustTable("orders").Len() != 2 {
		t.Errorf("orders rows = %d, want 2", got.MustTable("orders").Len())
	}
	if got.MustTable("ins_orders").Len() != 1 {
		t.Errorf("pending events lost")
	}
	if got.View("v7") == nil {
		t.Error("view lost")
	}
	// NULLs survive.
	if !got.MustTable("orders").ContainsRow(sqltypes.Row{sqltypes.NewInt(2), sqltypes.Null, sqltypes.Null}) {
		t.Error("NULL row lost")
	}
	// Primary keys are enforced after load.
	if err := got.MustTable("orders").Insert(row(1, 0, 0.0)); err == nil {
		t.Error("PK not restored")
	}
	// Foreign keys survive.
	if len(got.MustTable("lineitem").Schema().ForeignKeys) != 1 {
		t.Error("FKs lost")
	}
}

func TestSnapshotBadInput(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
}

// corruptionFixture returns a valid snapshot byte stream.
func corruptionFixture(t *testing.T) []byte {
	t.Helper()
	db := newTestDB(t)
	for i := 1; i <= 20; i++ {
		if err := db.Insert("orders", row(i, i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotTruncationDetected: every proper prefix of a snapshot must
// fail with the truncation sentinel, never a raw gob error or a success.
func TestSnapshotTruncationDetected(t *testing.T) {
	data := corruptionFixture(t)
	for _, cut := range []int{0, 3, 12, 13, 20, len(data) / 2, len(data) - 5, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:cut])); !errors.Is(err, ErrSnapshotTruncated) {
			t.Errorf("Load(prefix %d/%d) = %v, want ErrSnapshotTruncated", cut, len(data), err)
		}
	}
}

// TestSnapshotBitFlipDetected: flipping any byte after the magic must trip
// the checksum (or, within the length field, read as truncation); the
// error message carries the "tintin: snapshot" prefix users grep for.
func TestSnapshotBitFlipDetected(t *testing.T) {
	data := corruptionFixture(t)
	for _, off := range []int{4, 5, 9, 13, 40, len(data) / 2, len(data) - 2} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		_, err := Load(bytes.NewReader(mut))
		if err == nil {
			t.Errorf("Load with byte %d flipped succeeded", off)
			continue
		}
		if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotTruncated) {
			t.Errorf("Load with byte %d flipped = %v, want a snapshot sentinel", off, err)
		}
		if !strings.Contains(err.Error(), "tintin: snapshot") {
			t.Errorf("error %q lacks the tintin: snapshot prefix", err)
		}
	}
}

// TestSnapshotCorruptLengthBounded: a length field inflated to 1<<60 must
// fail as truncation without attempting the giant allocation.
func TestSnapshotCorruptLengthBounded(t *testing.T) {
	data := append([]byte(nil), corruptionFixture(t)...)
	binary.LittleEndian.PutUint64(data[5:13], 1<<60)
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("Load = %v, want ErrSnapshotTruncated", err)
	}
}
