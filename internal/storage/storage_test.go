package storage

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tintin/internal/sqltypes"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("orders",
		[]Column{
			{Name: "o_orderkey", Type: sqltypes.KindInt, NotNull: true},
			{Name: "o_custkey", Type: sqltypes.KindInt},
			{Name: "o_totalprice", Type: sqltypes.KindFloat},
		},
		[]string{"o_orderkey"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func row(vals ...interface{}) sqltypes.Row {
	out := make(sqltypes.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = sqltypes.NewInt(int64(x))
		case float64:
			out[i] = sqltypes.NewFloat(x)
		case string:
			out[i] = sqltypes.NewString(x)
		case nil:
			out[i] = sqltypes.Null
		case bool:
			out[i] = sqltypes.NewBool(x)
		default:
			panic("bad test value")
		}
	}
	return out
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", []Column{{Name: "a", Type: sqltypes.KindInt}}, nil, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema("t", nil, nil, nil); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a"}, {Name: "a"}}, nil, nil); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a"}}, []string{"b"}, nil); err == nil {
		t.Error("bad PK accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a"}}, nil,
		[]ForeignKey{{Columns: []string{"z"}, RefTable: "u", RefColumns: []string{"x"}}}); err == nil {
		t.Error("bad FK column accepted")
	}
}

func TestSchemaCaseInsensitive(t *testing.T) {
	s, err := NewSchema("T", []Column{{Name: "Abc", Type: sqltypes.KindInt}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t" || s.ColumnIndex("ABC") != 0 {
		t.Errorf("case folding: %+v", s)
	}
}

func TestInsertValidation(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.Insert(row(1, 2)); err == nil {
		t.Error("short row accepted")
	}
	if err := tb.Insert(row(nil, 2, 3.0)); err == nil {
		t.Error("NULL in NOT NULL accepted")
	}
	if err := tb.Insert(row(1, "x", 3.0)); err == nil {
		t.Error("wrong kind accepted")
	}
	if err := tb.Insert(row(1, 2, 3.0)); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := tb.Insert(row(1, 9, 9.0)); err == nil {
		t.Error("duplicate PK accepted")
	}
	if tb.Len() != 1 {
		t.Errorf("len = %d", tb.Len())
	}
}

// TestPrimaryKeyImpliesNotNull: a table-level PRIMARY KEY column without
// its own NOT NULL still rejects NULL, so the assertion compiler may treat
// key columns as never NULL.
func TestPrimaryKeyImpliesNotNull(t *testing.T) {
	s, err := NewSchema("k", []Column{
		{Name: "a", Type: sqltypes.KindInt},
		{Name: "b", Type: sqltypes.KindInt},
	}, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Columns[0].NotNull || s.Columns[1].NotNull {
		t.Fatalf("NotNull = %v, %v; want key column only", s.Columns[0].NotNull, s.Columns[1].NotNull)
	}
	tb := NewTable(s)
	if err := tb.Insert(sqltypes.Row{sqltypes.Null, sqltypes.NewInt(1)}); err == nil {
		t.Error("NULL primary key accepted")
	}
	if err := tb.Insert(sqltypes.Row{sqltypes.NewInt(1), sqltypes.Null}); err != nil {
		t.Errorf("NULL in a non-key column rejected: %v", err)
	}
}

func TestDeleteAndReuse(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := 0; i < 10; i++ {
		if err := tb.Insert(row(i, i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	n := tb.Delete(func(r sqltypes.Row) bool { return r[0].Int()%2 == 0 })
	if n != 5 || tb.Len() != 5 {
		t.Fatalf("deleted %d, len %d", n, tb.Len())
	}
	// PK slots are freed: re-insert deleted keys.
	for i := 0; i < 10; i += 2 {
		if err := tb.Insert(row(i, 0, 0.0)); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	if tb.Len() != 10 {
		t.Errorf("len = %d", tb.Len())
	}
}

func TestLookupEqualAfterChurn(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := 0; i < 100; i++ {
		if err := tb.Insert(row(i, i%7, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Build the index, then churn.
	if err := tb.EnsureIndex("o_custkey"); err != nil {
		t.Fatal(err)
	}
	tb.Delete(func(r sqltypes.Row) bool { return r[0].Int() < 50 })
	for i := 100; i < 130; i++ {
		if err := tb.Insert(row(i, i%7, 0.0)); err != nil {
			t.Fatal(err)
		}
	}
	// Compare index lookups against scans for every key.
	for k := 0; k < 7; k++ {
		got := tb.LookupEqual([]int{1}, []sqltypes.Value{sqltypes.NewInt(int64(k))})
		want := 0
		tb.Scan(func(r sqltypes.Row) bool {
			if r[1].Int() == int64(k) {
				want++
			}
			return true
		})
		if len(got) != want {
			t.Errorf("key %d: index %d rows, scan %d", k, len(got), want)
		}
	}
	// NULL probe returns nothing.
	if rows := tb.LookupEqual([]int{1}, []sqltypes.Value{sqltypes.Null}); rows != nil {
		t.Error("NULL probe matched")
	}
}

func TestContainsRowWithNulls(t *testing.T) {
	s, err := NewSchema("t", []Column{
		{Name: "a", Type: sqltypes.KindInt},
		{Name: "b", Type: sqltypes.KindString},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(s)
	if err := tb.Insert(row(1, nil)); err != nil {
		t.Fatal(err)
	}
	if !tb.ContainsRow(row(1, nil)) {
		t.Error("row with NULL not found")
	}
	if tb.ContainsRow(row(2, nil)) {
		t.Error("absent row found")
	}
}

func TestTruncate(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := 0; i < 5; i++ {
		if err := tb.Insert(row(i, 0, 0.0)); err != nil {
			t.Fatal(err)
		}
	}
	tb.Truncate()
	if tb.Len() != 0 {
		t.Error("not empty")
	}
	if err := tb.Insert(row(0, 0, 0.0)); err != nil {
		t.Errorf("PK not reset: %v", err)
	}
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB("d")
	if _, err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	li, err := NewSchema("lineitem",
		[]Column{
			{Name: "l_orderkey", Type: sqltypes.KindInt, NotNull: true},
			{Name: "l_linenumber", Type: sqltypes.KindInt, NotNull: true},
		},
		[]string{"l_orderkey", "l_linenumber"},
		[]ForeignKey{{Columns: []string{"l_orderkey"}, RefTable: "orders", RefColumns: []string{"o_orderkey"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(li); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEventTableNames(t *testing.T) {
	if InsTable("orders") != "ins_orders" || DelTable("orders") != "del_orders" {
		t.Error("prefixes")
	}
	base, isIns, ok := IsEventTable("ins_orders")
	if !ok || !isIns || base != "orders" {
		t.Error("IsEventTable ins")
	}
	base, isIns, ok = IsEventTable("del_orders")
	if !ok || isIns || base != "orders" {
		t.Error("IsEventTable del")
	}
	if _, _, ok := IsEventTable("orders"); ok {
		t.Error("base table flagged as event table")
	}
}

func TestInstallAndCapture(t *testing.T) {
	db := newTestDB(t)
	if err := db.SetCapture(true); err == nil {
		t.Error("capture without event tables accepted")
	}
	if err := db.InstallEventTables(); err != nil {
		t.Fatal(err)
	}
	if got := len(db.TableNames()); got != 6 {
		t.Errorf("tables = %d, want 6", got)
	}
	if got := db.BaseTableNames(); len(got) != 2 {
		t.Errorf("base tables = %v", got)
	}
	// Event tables drop NOT NULL (pending tuples are unvalidated).
	ins := db.Table("ins_orders")
	if ins.Schema().Columns[0].NotNull {
		t.Error("event table kept NOT NULL")
	}
	// Idempotent.
	if err := db.InstallEventTables(); err != nil {
		t.Errorf("second install: %v", err)
	}
	if err := db.SetCapture(true); err != nil {
		t.Fatal(err)
	}
	if !db.CaptureEnabled() {
		t.Error("capture flag")
	}
}

func TestCaptureRouting(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("orders", row(1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallEventTables(); err != nil {
		t.Fatal(err)
	}
	if err := db.SetCapture(true); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", row(2, 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	n, err := db.DeleteWhere("orders", func(r sqltypes.Row) bool { return r[0].Int() == 1 })
	if err != nil || n != 1 {
		t.Fatalf("capture delete: %d %v", n, err)
	}
	if db.MustTable("orders").Len() != 1 {
		t.Error("base table modified under capture")
	}
	withIns, withDel := db.PendingEvents()
	if len(withIns) != 1 || len(withDel) != 1 {
		t.Errorf("pending: %v %v", withIns, withDel)
	}
	// Capture delete is idempotent per tuple.
	if _, err := db.DeleteWhere("orders", func(r sqltypes.Row) bool { return r[0].Int() == 1 }); err != nil {
		t.Fatal(err)
	}
	if db.MustTable("del_orders").Len() != 1 {
		t.Error("duplicate delete captured twice")
	}
}

func TestNormalizeEvents(t *testing.T) {
	db := newTestDB(t)
	if err := db.InstallEventTables(); err != nil {
		t.Fatal(err)
	}
	r := row(1, 1, 1.0)
	if err := db.Insert("ins_orders", r.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("del_orders", r.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("ins_orders", row(2, 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	if n := db.NormalizeEvents(); n != 1 {
		t.Errorf("cancelled = %d, want 1", n)
	}
	if db.MustTable("ins_orders").Len() != 1 || db.MustTable("del_orders").Len() != 0 {
		t.Error("normalization wrong")
	}
}

func TestApplyEventsOrder(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("orders", row(1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallEventTables(); err != nil {
		t.Fatal(err)
	}
	if err := db.SetCapture(true); err != nil {
		t.Fatal(err)
	}
	// Delete key 1 and insert a different row with the same key: deletions
	// must apply before insertions or the PK check would reject it.
	if _, err := db.DeleteWhere("orders", func(r sqltypes.Row) bool { return r[0].Int() == 1 }); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", row(1, 9, 9.0)); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyEvents(); err != nil {
		t.Fatal(err)
	}
	rows := db.MustTable("orders").Rows()
	if len(rows) != 1 || rows[0][1].Int() != 9 {
		t.Errorf("rows after apply: %v", rows)
	}
	if !db.CaptureEnabled() {
		t.Error("capture flag lost after apply")
	}
}

func TestForeignKeysInto(t *testing.T) {
	db := newTestDB(t)
	fks := db.ForeignKeysInto("orders")
	if len(fks["lineitem"]) != 1 {
		t.Errorf("fks = %v", fks)
	}
}

func TestCheckForeignKeys(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("orders", row(1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("lineitem", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if issues := db.CheckForeignKeys(); len(issues) != 0 {
		t.Errorf("unexpected issues: %v", issues)
	}
	if err := db.Insert("lineitem", sqltypes.Row{sqltypes.NewInt(99), sqltypes.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if issues := db.CheckForeignKeys(); len(issues) != 1 {
		t.Errorf("issues = %v", issues)
	}
}

func TestCloneIndependence(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("orders", row(1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	cl := db.Clone()
	if err := cl.Insert("orders", row(2, 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	if db.MustTable("orders").Len() != 1 || cl.MustTable("orders").Len() != 2 {
		t.Error("clone not independent")
	}
	// PK index must be cloned too.
	if err := cl.Insert("orders", row(1, 0, 0.0)); err == nil {
		t.Error("clone lost PK index")
	}
}

func TestDropTableCascadesEvents(t *testing.T) {
	db := newTestDB(t)
	if err := db.InstallEventTables(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("lineitem"); err != nil {
		t.Fatal(err)
	}
	if db.Table("ins_lineitem") != nil || db.Table("del_lineitem") != nil {
		t.Error("event tables survived drop")
	}
	if err := db.DropTable("lineitem"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestViewRegistry(t *testing.T) {
	db := newTestDB(t)
	if err := db.CreateView("orders", nil); err == nil {
		t.Error("view shadowing table accepted")
	}
	if err := db.CreateView("v1", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v1", nil); err == nil {
		t.Error("duplicate view accepted")
	}
	if got := db.ViewNames(); len(got) != 1 || got[0] != "v1" {
		t.Errorf("views = %v", got)
	}
	if err := db.DropView("v1"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropView("v1"); err == nil {
		t.Error("double view drop accepted")
	}
}

// --- property-based: index lookups always agree with scans ---

type opSeq struct{ Ops []uint8 }

func (opSeq) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 50 + r.Intn(200)
	ops := make([]uint8, n)
	for i := range ops {
		ops[i] = uint8(r.Intn(256))
	}
	return reflect.ValueOf(opSeq{Ops: ops})
}

func TestIndexScanAgreementProperty(t *testing.T) {
	s, err := NewSchema("t", []Column{
		{Name: "k", Type: sqltypes.KindInt},
		{Name: "v", Type: sqltypes.KindInt},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seq opSeq) bool {
		tb := NewTable(s)
		if err := tb.EnsureIndex("v"); err != nil {
			return false
		}
		next := 0
		for _, op := range seq.Ops {
			switch {
			case op < 180: // insert
				_ = tb.Insert(sqltypes.Row{sqltypes.NewInt(int64(next)), sqltypes.NewInt(int64(op % 10))})
				next++
			default: // delete one matching v
				key := int64(op % 10)
				deleted := false
				tb.Delete(func(r sqltypes.Row) bool {
					if !deleted && r[1].Int() == key {
						deleted = true
						return true
					}
					return false
				})
			}
		}
		for k := int64(0); k < 10; k++ {
			got := len(tb.LookupEqual([]int{1}, []sqltypes.Value{sqltypes.NewInt(k)}))
			want := 0
			tb.Scan(func(r sqltypes.Row) bool {
				if r[1].Int() == k {
					want++
				}
				return true
			})
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMustTablePanics(t *testing.T) {
	db := NewDB("d")
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "no table") {
			t.Error("MustTable did not panic")
		}
	}()
	db.MustTable("nope")
}
