package storage

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"tintin/internal/frame"
	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

// snapshotMagic tags the database snapshot frame.
const snapshotMagic = "TSNP"

// ErrSnapshotCorrupt and ErrSnapshotTruncated are the frame codec's
// sentinels: a snapshot whose bytes are present but wrong, and one that ends
// before its framing says it should.
var (
	ErrSnapshotCorrupt   = frame.ErrCorrupt
	ErrSnapshotTruncated = frame.ErrTruncated
)

// Snapshot wire format. Values are flattened because sqltypes.Value has
// unexported fields by design.
type wireValue struct {
	K uint8
	I int64
	F float64
	S string
	B bool
}

type wireColumn struct {
	Name    string
	Type    uint8
	NotNull bool
}

type wireFK struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

type wireTable struct {
	Name       string
	Columns    []wireColumn
	PrimaryKey []string
	FKs        []wireFK
	Rows       [][]wireValue
}

type wireDB struct {
	Name    string
	Capture bool
	Tables  []wireTable
	// Views are persisted as SQL text and reparsed on load.
	ViewNames []string
	ViewSQL   []string
}

func toWire(v sqltypes.Value) wireValue {
	w := wireValue{K: uint8(v.Kind())}
	switch v.Kind() {
	case sqltypes.KindInt:
		w.I = v.Int()
	case sqltypes.KindFloat:
		w.F = v.Float()
	case sqltypes.KindString:
		w.S = v.Str()
	case sqltypes.KindBool:
		w.B = v.Bool()
	}
	return w
}

func fromWire(w wireValue) (sqltypes.Value, error) {
	switch sqltypes.Kind(w.K) {
	case sqltypes.KindNull:
		return sqltypes.Null, nil
	case sqltypes.KindInt:
		return sqltypes.NewInt(w.I), nil
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(w.F), nil
	case sqltypes.KindString:
		return sqltypes.NewString(w.S), nil
	case sqltypes.KindBool:
		return sqltypes.NewBool(w.B), nil
	}
	return sqltypes.Null, fmt.Errorf("storage: snapshot: unknown value kind %d", w.K)
}

// Save writes a complete snapshot of the database (schemas, rows, views,
// capture flag) to w, framed as one checksummed frame (package frame) so
// torn or corrupted files are detected on load. Together with Load it
// implements the demo's persistence story: TINTIN's generated artifacts
// survive in the database and the tool can be "disconnected".
func (db *DB) Save(w io.Writer) error {
	out := wireDB{Name: db.Name, Capture: db.capture}
	for _, name := range db.TableNames() {
		t := db.tables[name]
		s := t.Schema()
		wt := wireTable{Name: s.Name, PrimaryKey: s.PrimaryKey}
		for _, c := range s.Columns {
			wt.Columns = append(wt.Columns, wireColumn{Name: c.Name, Type: uint8(c.Type), NotNull: c.NotNull})
		}
		for _, fk := range s.ForeignKeys {
			wt.FKs = append(wt.FKs, wireFK{Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns})
		}
		t.Scan(func(r sqltypes.Row) bool {
			wr := make([]wireValue, len(r))
			for i, v := range r {
				wr[i] = toWire(v)
			}
			wt.Rows = append(wt.Rows, wr)
			return true
		})
		out.Tables = append(out.Tables, wt)
	}
	for _, vn := range db.ViewNames() {
		out.ViewNames = append(out.ViewNames, vn)
		out.ViewSQL = append(out.ViewSQL, sqlparser.FormatSelect(db.views[vn]))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&out); err != nil {
		return err
	}
	return frame.Write(w, snapshotMagic, buf.Bytes())
}

// Load reads a snapshot written by Save and returns the reconstructed
// database. Truncated or corrupted files fail with ErrSnapshotTruncated /
// ErrSnapshotCorrupt before any gob decoding is attempted.
func Load(r io.Reader) (*DB, error) {
	payload, err := frame.Read(r, snapshotMagic)
	if err != nil {
		return nil, fmt.Errorf("tintin: snapshot: %w", err)
	}
	var in wireDB
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&in); err != nil {
		return nil, fmt.Errorf("storage: snapshot: %w", err)
	}
	db := NewDB(in.Name)
	for _, wt := range in.Tables {
		cols := make([]Column, len(wt.Columns))
		for i, c := range wt.Columns {
			cols[i] = Column{Name: c.Name, Type: sqltypes.Kind(c.Type), NotNull: c.NotNull}
		}
		fks := make([]ForeignKey, len(wt.FKs))
		for i, fk := range wt.FKs {
			fks[i] = ForeignKey{Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns}
		}
		schema, err := NewSchema(wt.Name, cols, wt.PrimaryKey, fks)
		if err != nil {
			return nil, fmt.Errorf("storage: snapshot: table %s: %w", wt.Name, err)
		}
		t, err := db.CreateTable(schema)
		if err != nil {
			return nil, err
		}
		for _, wr := range wt.Rows {
			row := make(sqltypes.Row, len(wr))
			for i, wv := range wr {
				v, err := fromWire(wv)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			if err := t.Insert(row); err != nil {
				return nil, fmt.Errorf("storage: snapshot: table %s: %w", wt.Name, err)
			}
		}
	}
	for i, vn := range in.ViewNames {
		sel, err := sqlparser.ParseSelect(in.ViewSQL[i])
		if err != nil {
			return nil, fmt.Errorf("storage: snapshot: view %s: %w", vn, err)
		}
		if err := db.CreateView(vn, sel); err != nil {
			return nil, err
		}
	}
	if in.Capture {
		if err := db.SetCapture(true); err != nil {
			return nil, err
		}
	}
	return db, nil
}
