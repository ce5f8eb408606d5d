package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// TestIndexProbesMatchScans builds random two-table databases and runs a
// panel of join/subquery/negation queries twice — once with index-nested-
// loop probes and once with plain scans — requiring identical result bags.
// This pins the planner's probe path to the semantics of the naive
// evaluator.
func TestIndexProbesMatchScans(t *testing.T) {
	queries := []string{
		"SELECT * FROM a",
		"SELECT a.x, b.y FROM a, b WHERE b.x = a.x",
		"SELECT a.x FROM a WHERE EXISTS (SELECT * FROM b WHERE b.x = a.x)",
		"SELECT a.x FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE b.x = a.x)",
		"SELECT a.x FROM a WHERE a.x IN (SELECT b.y FROM b)",
		"SELECT a.x FROM a WHERE a.x NOT IN (SELECT b.y FROM b)",
		"SELECT a.x FROM a WHERE EXISTS (SELECT * FROM b WHERE b.x = a.x AND b.y > a.y)",
		"SELECT a.x, a.y FROM a WHERE a.y IS NULL",
		"SELECT DISTINCT a.x FROM a, b WHERE b.x = a.x AND b.y <> a.y",
		"SELECT a.x FROM a WHERE a.x IN (SELECT b.x FROM b WHERE b.y = a.y)",
		"SELECT a.x FROM a UNION SELECT b.x FROM b",
		"SELECT a1.x FROM a AS a1, a AS a2 WHERE a2.y = a1.y AND a2.x <> a1.x",
		"SELECT a.x, b.x FROM a, b WHERE b.y IS NOT DISTINCT FROM a.y",
		"SELECT a.x FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE b.y IS NOT DISTINCT FROM a.y AND b.x = a.x)",
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 40; round++ {
		db := storage.NewDB("d")
		mkTable(t, db, "a", rng, 30)
		mkTable(t, db, "b", rng, 30)
		probed := New(db)
		scanner := New(db)
		scanner.DisableIndexProbes = true
		for _, q := range queries {
			r1, err := probed.QuerySQL(q)
			if err != nil {
				t.Fatalf("probed %q: %v", q, err)
			}
			r2, err := scanner.QuerySQL(q)
			if err != nil {
				t.Fatalf("scan %q: %v", q, err)
			}
			if s1, s2 := canonical(r1), canonical(r2); s1 != s2 {
				t.Fatalf("round %d: %q differs:\nprobed: %s\nscan:   %s", round, q, s1, s2)
			}
		}
	}
}

// TestNullSafeProbe pins the two probe semantics over NULL keys: an
// IS NOT DISTINCT FROM probe matches NULL to NULL, a plain = probe matches
// no NULL at all, and both agree with their filter evaluation (probes
// disabled) and with the scan-path recheck over a view source (bv).
func TestNullSafeProbe(t *testing.T) {
	db := storage.NewDB("d")
	if _, err := New(db).ExecSQL(`
		CREATE TABLE a (id INTEGER, x INTEGER);
		CREATE TABLE b (id INTEGER, x INTEGER);
		INSERT INTO a VALUES (1, 1), (2, NULL), (3, 3);
		INSERT INTO b VALUES (10, 1), (20, NULL), (21, NULL), (40, 4);
		CREATE VIEW bv AS SELECT * FROM b;`); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ q, want string }{
		{"SELECT a.id, b.id FROM a, b WHERE b.x IS NOT DISTINCT FROM a.x", "[(1, 10) (2, 20) (2, 21)]"},
		{"SELECT a.id, b.id FROM a, b WHERE b.x = a.x", "[(1, 10)]"},
		{"SELECT a.id FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE b.x IS NOT DISTINCT FROM a.x)", "[(3)]"},
		{"SELECT a.id FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE b.x = a.x)", "[(2) (3)]"},
		{"SELECT a.id, b.id FROM a, b WHERE b.x IS NOT DISTINCT FROM a.x AND b.id = 20", "[(2, 20)]"},
		{"SELECT a.id, b.id FROM a, b WHERE a.x IS NOT DISTINCT FROM b.x AND b.id = a.id + 19", "[(2, 21)]"},
		{"SELECT b.id FROM b WHERE b.x IS NOT DISTINCT FROM NULL", "[(20) (21)]"},
		{"SELECT b.id FROM b WHERE b.x = NULL", "[]"},
		{"SELECT a.id, v.id FROM a, bv AS v WHERE v.x IS NOT DISTINCT FROM a.x", "[(1, 10) (2, 20) (2, 21)]"},
		{"SELECT a.id, v.id FROM a, bv AS v WHERE v.x = a.x", "[(1, 10)]"},
	}
	for _, noProbes := range []bool{false, true} {
		eng := New(db)
		eng.DisableIndexProbes = noProbes
		for i, c := range cases {
			res, err := eng.QuerySQL(c.q)
			if err != nil {
				t.Fatalf("noProbes=%v %q: %v", noProbes, c.q, err)
			}
			if got := canonical(res); got != c.want {
				t.Errorf("noProbes=%v %q = %s, want %s", noProbes, c.q, got, c.want)
			}
			// The last base-table source of every case is reached by index
			// probe unless probing is disabled.
			if noProbes || strings.Contains(c.q, "bv") {
				continue
			}
			view := fmt.Sprintf("v%d", i)
			if _, err := eng.ExecSQL("CREATE VIEW " + view + " AS " + c.q); err != nil {
				t.Fatal(err)
			}
			ep, err := eng.ExplainView(view)
			if err != nil {
				t.Fatal(err)
			}
			br := ep.Branches[0]
			if len(br.Subplans) > 0 {
				br = br.Subplans[0].Branches[0]
			}
			if last := br.Sources[len(br.Sources)-1]; last.Access != "probe" {
				t.Errorf("%q: %s access = %s, want probe", c.q, last.Table, last.Access)
			}
		}
	}
}

func mkTable(t *testing.T, db *storage.DB, name string, rng *rand.Rand, n int) {
	t.Helper()
	s, err := storage.NewSchema(name, []storage.Column{
		{Name: "x", Type: sqltypes.KindInt},
		{Name: "y", Type: sqltypes.KindInt},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	rows := rng.Intn(n)
	for i := 0; i < rows; i++ {
		y := sqltypes.NewInt(int64(rng.Intn(6)))
		if rng.Intn(8) == 0 {
			y = sqltypes.Null
		}
		if err := tb.Insert(sqltypes.Row{sqltypes.NewInt(int64(rng.Intn(10))), y}); err != nil {
			t.Fatal(err)
		}
	}
}

func canonical(r *Result) string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.String()
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// TestCorrelatedInNotMemoized pins the correlated-IN path: the subquery
// result depends on the outer row, so memoization must not kick in.
func TestCorrelatedInNotMemoized(t *testing.T) {
	db := storage.NewDB("d")
	eng := New(db)
	if _, err := eng.ExecSQL(`
		CREATE TABLE a (x INTEGER, y INTEGER);
		CREATE TABLE b (x INTEGER, y INTEGER);
		INSERT INTO a VALUES (1, 10), (2, 20);
		INSERT INTO b VALUES (1, 10), (2, 99);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := eng.QuerySQL("SELECT a.x FROM a WHERE a.x IN (SELECT b.x FROM b WHERE b.y = a.y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("correlated IN wrong: %v", res.Rows)
	}
}

// TestUncorrelatedInMemoizedOnce verifies the memoized path returns correct
// results across many outer rows (including NOT IN null semantics).
func TestUncorrelatedInMemoized(t *testing.T) {
	db := storage.NewDB("d")
	eng := New(db)
	if _, err := eng.ExecSQL(`
		CREATE TABLE a (x INTEGER);
		CREATE TABLE b (x INTEGER);
		INSERT INTO a VALUES (1), (2), (3), (4);
		INSERT INTO b VALUES (2), (4);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := eng.QuerySQL("SELECT a.x FROM a WHERE a.x NOT IN (SELECT b.x FROM b)")
	if err != nil {
		t.Fatal(err)
	}
	if canonical(res) != "[(1) (3)]" {
		t.Errorf("NOT IN: %v", canonical(res))
	}
	// A NULL in the subquery poisons NOT IN entirely.
	if _, err := eng.ExecSQL("INSERT INTO b VALUES (NULL)"); err != nil {
		t.Fatal(err)
	}
	res, err = eng.QuerySQL("SELECT a.x FROM a WHERE a.x NOT IN (SELECT b.x FROM b)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("NOT IN with NULL must be empty, got %v", canonical(res))
	}
	// ...but IN still finds members.
	res, err = eng.QuerySQL("SELECT a.x FROM a WHERE a.x IN (SELECT b.x FROM b)")
	if err != nil {
		t.Fatal(err)
	}
	if canonical(res) != "[(2) (4)]" {
		t.Errorf("IN with NULL: %v", canonical(res))
	}
}

// TestIndexProbesMatchScansCollidingHash reruns TestIndexProbesMatchScans
// with every index key hashing alike, so each index is a single chain:
// every probe result then rests on candidate verification alone.
func TestIndexProbesMatchScansCollidingHash(t *testing.T) {
	defer storage.ForceHashCollisions()()
	TestIndexProbesMatchScans(t)
}

// TestIntegersBeyondFloatPrecision: float64 rounds 2^53+1 onto 2^53. Key
// checks, index probes, IN sets and duplicate elimination must still tell
// the two INTEGERs apart.
func TestIntegersBeyondFloatPrecision(t *testing.T) {
	db := storage.NewDB("d")
	if _, err := New(db).ExecSQL(`
		CREATE TABLE p (k INTEGER PRIMARY KEY);
		CREATE TABLE t (k INTEGER);
		CREATE TABLE u (k INTEGER);
		CREATE TABLE w (k INTEGER);
		INSERT INTO p VALUES (9007199254740992);
		INSERT INTO t VALUES (9007199254740992);
		INSERT INTO u VALUES (9007199254740993);
		INSERT INTO w VALUES (9007199254740992), (9007199254740993);`); err != nil {
		t.Fatal(err)
	}
	if _, err := New(db).ExecSQL("INSERT INTO p VALUES (9007199254740993);"); err != nil {
		t.Errorf("second key rejected: %v", err)
	}
	cases := []struct{ q, want string }{
		{"SELECT p.k FROM p", "[(9007199254740992) (9007199254740993)]"},
		{"SELECT u.k, t.k FROM u, t WHERE t.k = u.k", "[]"},
		{"SELECT u.k FROM u WHERE u.k IN (SELECT t.k FROM t)", "[]"},
		{"SELECT u.k FROM u WHERE u.k NOT IN (SELECT t.k FROM t)", "[(9007199254740993)]"},
		{"SELECT DISTINCT w.k FROM w", "[(9007199254740992) (9007199254740993)]"},
		{"SELECT t.k FROM t UNION SELECT u.k FROM u", "[(9007199254740992) (9007199254740993)]"},
	}
	for _, noProbes := range []bool{false, true} {
		eng := New(db)
		eng.DisableIndexProbes = noProbes
		for _, c := range cases {
			res, err := eng.QuerySQL(c.q)
			if err != nil {
				t.Fatalf("noProbes=%v %q: %v", noProbes, c.q, err)
			}
			if got := canonical(res); got != c.want {
				t.Errorf("noProbes=%v %q = %s, want %s", noProbes, c.q, got, c.want)
			}
		}
	}
}
