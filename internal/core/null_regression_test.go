package core

import (
	"strings"
	"testing"

	"tintin/internal/baseline"
	"tintin/internal/engine"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
	"tintin/internal/tpch"
)

// Minimized reproducers for NULL three-valued-logic divergences between the
// incremental checker and the baseline recheck, found by the differential
// fuzzer (internal/difftest). Each test pins one bug: the incremental and
// baseline verdicts must agree on the exact event stream that exposed it.

// nullRegTool builds p(pk, a) / c(pk, fk) with the NOT IN referential
// assertion that exposed both bugs:
//
//	NOT EXISTS (SELECT * FROM c AS y WHERE y.fk NOT IN (SELECT x.pk FROM p AS x))
func nullRegTool(t *testing.T) (*storage.DB, *engine.Engine, *Tool, *baseline.Checker) {
	t.Helper()
	db := storage.NewDB("nullreg")
	eng := engine.New(db)
	if _, err := eng.ExecSQL(`CREATE TABLE p (pk INTEGER NOT NULL, a INTEGER, PRIMARY KEY (pk));
CREATE TABLE c (pk INTEGER NOT NULL, fk INTEGER, PRIMARY KEY (pk));`); err != nil {
		t.Fatal(err)
	}
	tool := New(db, DefaultOptions())
	if err := tool.Install(); err != nil {
		t.Fatal(err)
	}
	sql := "CREATE ASSERTION fz0 CHECK (NOT EXISTS (SELECT * FROM c AS y WHERE y.fk NOT IN (SELECT x.pk FROM p AS x)))"
	if _, err := tool.AddAssertion(sql); err != nil {
		t.Fatal(err)
	}
	bl, err := baseline.New(db, []string{sql})
	if err != nil {
		t.Fatal(err)
	}
	delProbed(t, tool)
	return db, eng, tool, bl
}

// delProbed asserts that the NULL-safe row-identity matches against del_
// tables — the NOT EXISTS (SELECT … FROM del_T …) subplans of the new-state
// subtraction — compile to index probes: the fix for the bugs below must
// not cost a scan of the deletion delta per outer row.
func delProbed(t *testing.T, tool *Tool) {
	t.Helper()
	ex, err := tool.Explain("fz0")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	var walk func(br engine.ExplainBranch, inSub bool)
	walk = func(br engine.ExplainBranch, inSub bool) {
		for _, s := range br.Sources {
			if _, isIns, isEvt := storage.IsEventTable(s.Table); inSub && isEvt && !isIns {
				found++
				if s.Access != "probe" {
					t.Errorf("%s reached by %s, want probe", s.Table, s.Access)
				}
			}
		}
		for _, sq := range br.Subplans {
			for _, sub := range sq.Branches {
				walk(sub, true)
			}
		}
	}
	for _, v := range ex.Views {
		for _, br := range v.Branches {
			walk(br, false)
		}
	}
	if found == 0 {
		t.Fatal("no del_ match found in the compiled views")
	}
}

// agree stages nothing itself; it runs the baseline prediction, then the
// incremental SafeCommit, and fails unless both report the same verdict.
func agree(t *testing.T, db *storage.DB, tool *Tool, bl *baseline.Checker, wantViolated bool) {
	t.Helper()
	pred, err := bl.CheckAfter(db)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatalf("safeCommit: %v", err)
	}
	if blViolated := len(pred.Violations) > 0; blViolated != wantViolated {
		t.Fatalf("baseline violated=%v, want %v (%v)", blViolated, wantViolated, pred.Violations)
	}
	if res.Committed != !wantViolated {
		t.Fatalf("incremental committed=%v, want %v (%v)", res.Committed, !wantViolated, res.Violations)
	}
}

// TestNullFKOrphanedByParentDelete pins the delta-subtraction bug: deleting
// the last parent row p(1, NULL) must orphan the NULL-fk child, because
// fk NOT IN (empty subquery) is TRUE even for NULL fk. The new-state
// encoding p ∧ ¬δp matched deleted rows with SQL equality, so the deleted
// (1, NULL) row never matched itself (NULL = NULL is UNKNOWN) and the
// incremental side thought p was still non-empty.
func TestNullFKOrphanedByParentDelete(t *testing.T) {
	db, _, tool, bl := nullRegTool(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("p", sqltypes.Row{sqltypes.NewInt(1), sqltypes.Null}))
	must(db.Insert("c", sqltypes.Row{sqltypes.NewInt(1), sqltypes.Null}))
	agree(t, db, tool, bl, false) // p non-empty: NULL fk is not a violation

	_, err := db.DeleteWhere("p", func(r sqltypes.Row) bool {
		return sqltypes.Equal(r[0], sqltypes.NewInt(1))
	})
	must(err)
	agree(t, db, tool, bl, true) // p empty: NULL NOT IN (empty) is TRUE
}

// TestNullChildInsertWithEmptyParent pins the engine-side IN bug: inserting
// a NULL-fk child while the parent table is empty is a genuine violation
// (x IN (empty) is FALSE for every x, including NULL), but evalInSubquery
// short-circuited a NULL operand to UNKNOWN before checking emptiness, so
// the baseline missed it.
func TestNullChildInsertWithEmptyParent(t *testing.T) {
	db, _, tool, bl := nullRegTool(t)
	if err := db.Insert("c", sqltypes.Row{sqltypes.NewInt(1), sqltypes.Null}); err != nil {
		t.Fatal(err)
	}
	agree(t, db, tool, bl, true)
}

// TestNullChildDeleteRestoresConsistency pins the same row-identity matching
// on the child side (¬δc): deleting the NULL-fk child row must clear the
// violation, which requires the staged del_c (1, NULL) row to match the base
// c row NULL-safely.
func TestNullChildDeleteRestoresConsistency(t *testing.T) {
	db, _, tool, bl := nullRegTool(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("p", sqltypes.Row{sqltypes.NewInt(1), sqltypes.Null}))
	must(db.Insert("c", sqltypes.Row{sqltypes.NewInt(1), sqltypes.Null}))
	agree(t, db, tool, bl, false)

	// Delete the parent AND the NULL-fk child in the same batch: no orphan
	// remains, so the batch must commit on both sides.
	_, err := db.DeleteWhere("p", func(r sqltypes.Row) bool {
		return sqltypes.Equal(r[0], sqltypes.NewInt(1))
	})
	must(err)
	_, err = db.DeleteWhere("c", func(r sqltypes.Row) bool {
		return sqltypes.Equal(r[0], sqltypes.NewInt(1))
	})
	must(err)
	agree(t, db, tool, bl, false)
}

// TestNotNullPrunesNullEDCs pins the EDC count of the NOT IN referential
// assertion on both sides of the nullability line. orderHasCustomer reads
// o_custkey NOT NULL and the key c_custkey, so the tri-valued expansion's
// NULL cases are impossible and it compiles to the same 3 EDCs as the plain
// NOT EXISTS form. fz0's nullable c.fk keeps its NULL-case EDCs (only the
// p.pk IS NULL probe over the key goes).
func TestNotNullPrunesNullEDCs(t *testing.T) {
	db, _, err := tpch.NewDatabase("edcs", tpch.ScaleOrders("tiny", 50), 1)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(db, DefaultOptions())
	if err := tool.Install(); err != nil {
		t.Fatal(err)
	}
	a, err := tool.AddAssertion(tpch.AssertionOrderHasCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.EDCs.EDCs); n != 3 {
		t.Errorf("orderHasCustomer: %d EDCs, want 3:\n%s", n, a.Denial)
	}

	_, _, nullable, _ := nullRegTool(t)
	fz := nullable.Assertion("fz0")
	if n := len(fz.EDCs.EDCs); n != 6 {
		t.Errorf("fz0 (nullable fk): %d EDCs, want 6:\n%s", n, fz.Denial)
	}
	if !strings.Contains(fz.Denial.String(), "FK_1 IS NULL") {
		t.Errorf("fz0 lost its NULL-fk case:\n%s", fz.Denial)
	}
}
