package core

import (
	"strings"
	"testing"

	"tintin/internal/engine"
	"tintin/internal/storage"
)

func typecheckTool(t *testing.T) *Tool {
	t.Helper()
	db := storage.NewDB("tc")
	eng := engine.New(db)
	ddl := `
		CREATE TABLE emp (id INTEGER NOT NULL, name VARCHAR, dept INTEGER, salary REAL, PRIMARY KEY (id));
		CREATE TABLE dept (id INTEGER NOT NULL, name VARCHAR, PRIMARY KEY (id));
	`
	if _, err := eng.ExecSQL(ddl); err != nil {
		t.Fatalf("ddl: %v", err)
	}
	tool := New(db, DefaultOptions())
	if err := tool.Install(); err != nil {
		t.Fatalf("install: %v", err)
	}
	return tool
}

func TestTypeCheckRejects(t *testing.T) {
	cases := []struct {
		name, sql, wantErr string
	}{
		{"string-vs-int", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp WHERE emp.name > 3))",
			"cannot compare VARCHAR with INTEGER"},
		{"unknown-table", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM nosuch WHERE nosuch.x = 1))",
			"unknown table nosuch"},
		{"unknown-column", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp WHERE emp.bogus = 1))",
			"emp has no column bogus"},
		{"unknown-alias", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp AS e WHERE x.id = 1))",
			"unknown table or alias x"},
		{"ambiguous-column", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp, dept WHERE name = 'x'))",
			"ambiguous column name"},
		{"duplicate-alias", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp AS e, dept AS e WHERE e.id = 1))",
			"duplicate alias e"},
		{"in-list-kind", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp WHERE emp.name IN (1, 2)))",
			"IN list: typecheck: cannot compare VARCHAR with INTEGER"},
		{"in-subquery-kind", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp WHERE emp.name IN (SELECT dept.id FROM dept)))",
			"IN subquery: typecheck: cannot compare VARCHAR with INTEGER"},
		{"sum-over-varchar", "CREATE ASSERTION a CHECK ((SELECT SUM(emp.name) FROM emp) < 10)",
			"SUM over non-numeric VARCHAR"},
		{"sum-vs-varchar-bound", "CREATE ASSERTION a CHECK ((SELECT SUM(emp.salary) FROM emp) < 'z')",
			"cannot compare REAL with VARCHAR"},
		{"count-vs-varchar-bound", "CREATE ASSERTION a CHECK ((SELECT COUNT(*) FROM emp) < 'z')",
			"cannot compare INTEGER with VARCHAR"},
		{"bare-column-condition", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp WHERE emp.id))",
			"is not a condition"},
		{"arith-over-string", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp WHERE emp.name + 1 > 2))",
			"requires numeric operands"},
		{"const-string-vs-int", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp WHERE 'x' > 3))",
			"cannot compare VARCHAR with INTEGER"},
		{"not-distinct-kind", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp WHERE emp.name IS NOT DISTINCT FROM 3))",
			"cannot compare VARCHAR with INTEGER"},
		{"not-distinct-in-assertion", "CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp WHERE emp.dept IS NOT DISTINCT FROM 3))",
			"logic: IS NOT DISTINCT FROM"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tool := typecheckTool(t)
			_, err := tool.AddAssertion(tc.sql)
			if err == nil {
				t.Fatalf("AddAssertion accepted %s", tc.sql)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			// A rejected assertion must leave no residue: adding a valid one
			// under the same name must still work.
			if _, err := tool.AddAssertion("CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM emp WHERE emp.salary < 0.0))"); err != nil {
				t.Errorf("valid assertion after rejection: %v", err)
			}
		})
	}
}

func TestTypeCheckAccepts(t *testing.T) {
	cases := []string{
		// join with numeric comparison across INTEGER/REAL
		`CREATE ASSERTION ok1 CHECK (NOT EXISTS (
			SELECT * FROM emp AS e, dept AS d WHERE e.dept = d.id AND e.salary > 100000.0))`,
		// correlated NOT EXISTS (referential style)
		`CREATE ASSERTION ok2 CHECK (NOT EXISTS (
			SELECT * FROM emp AS e WHERE NOT EXISTS (SELECT * FROM dept AS d WHERE d.id = e.dept)))`,
		// NOT IN over matching kinds
		`CREATE ASSERTION ok3 CHECK (NOT EXISTS (
			SELECT * FROM emp AS e WHERE e.dept NOT IN (SELECT d.id FROM dept AS d)))`,
		// aggregate comparison, INTEGER count vs INTEGER literal
		`CREATE ASSERTION ok4 CHECK ((SELECT COUNT(*) FROM emp) <= 1000)`,
		// NULL literal compares with anything
		`CREATE ASSERTION ok5 CHECK (NOT EXISTS (SELECT * FROM emp AS e WHERE e.name = NULL))`,
		// IS NULL on any kind
		`CREATE ASSERTION ok6 CHECK (NOT EXISTS (SELECT * FROM emp AS e WHERE e.name IS NULL AND e.salary IS NOT NULL))`,
		// IN list of matching kind
		`CREATE ASSERTION ok7 CHECK (NOT EXISTS (SELECT * FROM emp AS e WHERE e.name IN ('x', 'y')))`,
	}
	for _, sql := range cases {
		tool := typecheckTool(t)
		if _, err := tool.AddAssertion(sql); err != nil {
			t.Errorf("rejected valid assertion %s: %v", sql, err)
		}
	}
}
