package logic

import (
	"strings"
	"testing"

	"tintin/internal/sqlparser"
)

type fakeCatalog map[string][]string

func (c fakeCatalog) TableColumns(name string) ([]string, bool) {
	cols, ok := c[strings.ToLower(name)]
	return cols, ok
}

var testCat = fakeCatalog{
	"orders":   {"o_orderkey", "o_totalprice"},
	"lineitem": {"l_orderkey", "l_linenumber", "l_quantity"},
	"customer": {"c_custkey", "c_nationkey"},
	"nation":   {"n_nationkey", "n_regionkey"},
}

func translate(t *testing.T, name, checkSQL string) *Translation {
	t.Helper()
	st, err := sqlparser.Parse("CREATE ASSERTION " + name + " CHECK (" + checkSQL + ")")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tr, err := Translate(name, st.(*sqlparser.CreateAssertion).Check, testCat)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return tr
}

func TestRunningExampleDenial(t *testing.T) {
	// atLeastOneLineItem from the paper: order(o) ∧ ¬lineIt(l,o) → ⊥.
	tr := translate(t, "atLeastOneLineItem", `NOT EXISTS (
		SELECT * FROM orders AS o
		WHERE NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey))`)
	if len(tr.Denials) != 1 {
		t.Fatalf("denials = %d, want 1:\n%s", len(tr.Denials), tr)
	}
	d := tr.Denials[0]
	if len(d.Body.Lits) != 2 {
		t.Fatalf("lits = %d, want 2: %s", len(d.Body.Lits), d)
	}
	pos, neg := d.Body.Lits[0], d.Body.Lits[1]
	if pos.Neg || pos.Atom.Name != "orders" {
		t.Errorf("first literal = %s, want positive orders", pos)
	}
	if !neg.Neg || neg.Atom.Name != "lineitem" {
		t.Errorf("second literal = %s, want negated lineitem", neg)
	}
	// The lineitem l_orderkey argument must be the order's key variable.
	if !SameTerm(neg.Atom.Args[0], pos.Atom.Args[0]) {
		t.Errorf("correlation lost: %s vs %s", neg.Atom.Args[0], pos.Atom.Args[0])
	}
	if len(tr.Rules) != 0 {
		t.Errorf("unexpected derived rules:\n%s", tr)
	}
	if len(d.Body.Builtins) != 0 {
		t.Errorf("unexpected builtins: %s", d)
	}
}

func TestConstantSelection(t *testing.T) {
	// No line item may have non-positive quantity.
	tr := translate(t, "positiveQty",
		`NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_quantity <= 0)`)
	d := tr.Denials[0]
	if len(d.Body.Lits) != 1 || d.Body.Lits[0].Neg {
		t.Fatalf("unexpected body: %s", d)
	}
	if len(d.Body.Builtins) != 1 || d.Body.Builtins[0].Op != CmpLe {
		t.Fatalf("builtins: %s", d)
	}
}

func TestEqualityWithConstantBindsArg(t *testing.T) {
	tr := translate(t, "a",
		`NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_quantity = 0)`)
	d := tr.Denials[0]
	if len(d.Body.Builtins) != 0 {
		t.Fatalf("constant equality should bind, not add builtin: %s", d)
	}
	arg := d.Body.Lits[0].Atom.Args[2]
	if !arg.IsConst || arg.Const.Int() != 0 {
		t.Errorf("quantity arg = %s, want 0", arg)
	}
}

func TestJoinUnifiesVariables(t *testing.T) {
	tr := translate(t, "a", `NOT EXISTS (
		SELECT * FROM orders AS o, lineitem AS l
		WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 100)`)
	d := tr.Denials[0]
	if len(d.Body.Lits) != 2 {
		t.Fatalf("lits: %s", d)
	}
	if !SameTerm(d.Body.Lits[0].Atom.Args[0], d.Body.Lits[1].Atom.Args[0]) {
		t.Errorf("join variable not unified: %s", d)
	}
	if len(d.Body.Builtins) != 1 || d.Body.Builtins[0].Op != CmpGt {
		t.Errorf("builtins: %s", d)
	}
}

func TestNotInBecomesNegatedLiteral(t *testing.T) {
	tr := translate(t, "fk", `NOT EXISTS (
		SELECT * FROM lineitem AS l
		WHERE l.l_orderkey NOT IN (SELECT o.o_orderkey FROM orders AS o))`)
	d := tr.Denials[0]
	// SQL three-valued logic: a violating lineitem needs a non-NULL
	// l_orderkey, no matching order, and no NULL o_orderkey anywhere
	// (a NULL in the subquery makes NOT IN unknown, which satisfies the
	// check). Hence three literals plus an IS NOT NULL guard.
	if len(d.Body.Lits) != 3 {
		t.Fatalf("lits = %d: %s", len(d.Body.Lits), d)
	}
	neg := d.Body.Lits[1]
	if !neg.Neg || neg.Atom.Name != "orders" {
		t.Fatalf("want negated orders literal, got %s", neg)
	}
	if !SameTerm(neg.Atom.Args[0], d.Body.Lits[0].Atom.Args[0]) {
		t.Errorf("NOT IN correlation lost: %s", d)
	}
	if probe := d.Body.Lits[2]; !probe.Neg {
		t.Errorf("want negated null-probe literal, got %s", probe)
	}
	hasGuard := false
	for _, b := range d.Body.Builtins {
		if b.Op == CmpIsNotNull && SameTerm(b.L, d.Body.Lits[0].Atom.Args[0]) {
			hasGuard = true
		}
	}
	if !hasGuard {
		t.Errorf("missing IS NOT NULL guard on the NOT IN operand: %s", d)
	}
}

func TestInSubqueryInlines(t *testing.T) {
	tr := translate(t, "a", `NOT EXISTS (
		SELECT * FROM orders AS o
		WHERE o.o_orderkey IN (SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > 50))`)
	d := tr.Denials[0]
	if len(d.Body.Lits) != 2 || d.Body.Lits[1].Neg {
		t.Fatalf("IN should inline positively: %s", d)
	}
}

func TestOrSplitsDenials(t *testing.T) {
	tr := translate(t, "a", `NOT EXISTS (
		SELECT * FROM lineitem AS l WHERE l.l_quantity < 0 OR l.l_quantity > 1000)`)
	if len(tr.Denials) != 2 {
		t.Fatalf("denials = %d, want 2:\n%s", len(tr.Denials), tr)
	}
}

func TestUnionSplitsDenials(t *testing.T) {
	tr := translate(t, "a", `NOT EXISTS (
		SELECT l_orderkey FROM lineitem WHERE l_quantity < 0
		UNION SELECT o_orderkey FROM orders WHERE o_totalprice < 0)`)
	if len(tr.Denials) != 2 {
		t.Fatalf("denials = %d, want 2:\n%s", len(tr.Denials), tr)
	}
}

func TestComplexNotExistsBecomesDerived(t *testing.T) {
	// Inner subquery with two tables must become a derived predicate.
	tr := translate(t, "chain", `NOT EXISTS (
		SELECT * FROM customer AS c
		WHERE NOT EXISTS (
			SELECT * FROM orders AS o, lineitem AS l
			WHERE l.l_orderkey = o.o_orderkey))`)
	d := tr.Denials[0]
	if len(tr.Rules) != 1 {
		t.Fatalf("want 1 derived predicate:\n%s", tr)
	}
	var neg *Literal
	for i := range d.Body.Lits {
		if d.Body.Lits[i].Neg {
			neg = &d.Body.Lits[i]
		}
	}
	if neg == nil || neg.Atom.Kind != PredDerived {
		t.Fatalf("want negated derived literal: %s", d)
	}
	rules := tr.Rules[neg.Atom.Name]
	if len(rules) != 1 || len(rules[0].Body.Lits) != 2 {
		t.Errorf("derived rules wrong:\n%s", tr)
	}
}

func TestCorrelatedDerivedHeadArgs(t *testing.T) {
	// The derived predicate must carry the outer correlation variable.
	tr := translate(t, "corr", `NOT EXISTS (
		SELECT * FROM customer AS c
		WHERE NOT EXISTS (
			SELECT * FROM nation AS n, orders AS o
			WHERE n.n_nationkey = c.c_nationkey))`)
	d := tr.Denials[0]
	var neg *Literal
	for i := range d.Body.Lits {
		if d.Body.Lits[i].Neg {
			neg = &d.Body.Lits[i]
		}
	}
	if neg == nil || len(neg.Atom.Args) != 1 {
		t.Fatalf("derived head args: %s\n%s", d, tr)
	}
	// The argument is c_nationkey's variable.
	if !SameTerm(neg.Atom.Args[0], d.Body.Lits[0].Atom.Args[1]) {
		t.Errorf("correlation arg mismatch: %s", d)
	}
}

func TestUnknownTableError(t *testing.T) {
	st, _ := sqlparser.Parse(`CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM nope))`)
	if _, err := Translate("a", st.(*sqlparser.CreateAssertion).Check, testCat); err == nil {
		t.Error("expected unknown-table error")
	}
}

func TestAggregateMisuseRejected(t *testing.T) {
	// Aggregates are allowed only as scalar comparisons; a bare aggregate
	// projection under EXISTS always yields one row and is rejected.
	st, err := sqlparser.Parse(`CREATE ASSERTION a CHECK (NOT EXISTS (SELECT COUNT(l_orderkey) FROM lineitem))`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Translate("a", st.(*sqlparser.CreateAssertion).Check, testCat)
	if err == nil || !strings.Contains(err.Error(), "scalar comparisons") {
		t.Errorf("want aggregate-misuse rejection, got %v", err)
	}
}

func TestAggregateCondTranslation(t *testing.T) {
	// Every order has at most 7 line items.
	tr := translate(t, "maxLineItems", `NOT EXISTS (
		SELECT * FROM orders AS o
		WHERE (SELECT COUNT(*) FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey) > 7)`)
	d := tr.Denials[0]
	if len(d.Body.Aggs) != 1 {
		t.Fatalf("aggs = %d:\n%s", len(d.Body.Aggs), tr)
	}
	a := d.Body.Aggs[0]
	if a.Fn != AggCount || a.Table != "lineitem" || a.Op != CmpGt {
		t.Errorf("agg cond: %s", a)
	}
	if len(a.Filters) != 1 || a.Filters[0].Col != 0 || a.Filters[0].Op != CmpEq {
		t.Errorf("filters: %+v", a.Filters)
	}
	// The filter term is the order-key variable of the positive literal.
	if !SameTerm(a.Filters[0].T, d.Body.Lits[0].Atom.Args[0]) {
		t.Errorf("correlation lost: %s", a)
	}
}

func TestAggregateSumFlippedTranslation(t *testing.T) {
	// Sum of quantities per order must be at least 1 (written flipped).
	tr := translate(t, "minTotalQty", `NOT EXISTS (
		SELECT * FROM orders AS o
		WHERE 1 > (SELECT SUM(l.l_quantity) FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey))`)
	a := tr.Denials[0].Body.Aggs[0]
	if a.Fn != AggSum || a.Col != 2 {
		t.Errorf("sum col: %s", a)
	}
	// 1 > SUM mirrors to SUM < 1.
	if a.Op != CmpLt || !a.Bound.IsConst || a.Bound.Const.Int() != 1 {
		t.Errorf("mirrored op: %s", a)
	}
}

func TestAggregateRejectsMinMax(t *testing.T) {
	st, err := sqlparser.Parse(`CREATE ASSERTION a CHECK (NOT EXISTS (
		SELECT * FROM orders AS o
		WHERE (SELECT MIN(l.l_quantity) FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey) < 0))`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Translate("a", st.(*sqlparser.CreateAssertion).Check, testCat)
	if err == nil || !strings.Contains(err.Error(), "COUNT and SUM") {
		t.Errorf("want MIN rejection, got %v", err)
	}
}

func TestAggregateRejectsJoinInside(t *testing.T) {
	st, err := sqlparser.Parse(`CREATE ASSERTION a CHECK (NOT EXISTS (
		SELECT * FROM orders AS o
		WHERE (SELECT COUNT(*) FROM lineitem AS l, customer AS c) > 3))`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Translate("a", st.(*sqlparser.CreateAssertion).Check, testCat)
	if err == nil || !strings.Contains(err.Error(), "single table") {
		t.Errorf("want single-table rejection, got %v", err)
	}
}

func TestArithmeticRejected(t *testing.T) {
	st, err := sqlparser.Parse(`CREATE ASSERTION a CHECK (NOT EXISTS (
		SELECT * FROM lineitem AS l WHERE l.l_quantity + 1 > 2))`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Translate("a", st.(*sqlparser.CreateAssertion).Check, testCat); err == nil {
		t.Error("expected arithmetic rejection")
	}
}

func TestTautologyRejected(t *testing.T) {
	st, _ := sqlparser.Parse(`CREATE ASSERTION a CHECK (TRUE)`)
	if _, err := Translate("a", st.(*sqlparser.CreateAssertion).Check, testCat); err == nil {
		t.Error("expected tautology rejection")
	}
}

func TestBetweenInAssertion(t *testing.T) {
	tr := translate(t, "a",
		`NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_quantity NOT BETWEEN 0 AND 100)`)
	// NOT BETWEEN → q < 0 OR q > 100 → two denials.
	if len(tr.Denials) != 2 {
		t.Fatalf("denials = %d, want 2:\n%s", len(tr.Denials), tr)
	}
}

func TestStringRendering(t *testing.T) {
	tr := translate(t, "atLeastOneLineItem", `NOT EXISTS (
		SELECT * FROM orders AS o
		WHERE NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey))`)
	s := tr.String()
	if !strings.Contains(s, "orders(") || !strings.Contains(s, "not lineitem(") {
		t.Errorf("rendering: %s", s)
	}
}

func TestIsNotDistinctFromRejected(t *testing.T) {
	for _, cond := range []string{
		"NOT EXISTS (SELECT * FROM orders AS o WHERE o.o_totalprice IS NOT DISTINCT FROM 1)",
		"NOT EXISTS (SELECT * FROM orders AS o WHERE NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_orderkey IS NOT DISTINCT FROM o.o_orderkey))",
	} {
		st, err := sqlparser.Parse("CREATE ASSERTION a CHECK (" + cond + ")")
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		_, err = Translate("a", st.(*sqlparser.CreateAssertion).Check, testCat)
		if err == nil || !strings.Contains(err.Error(), "logic: IS NOT DISTINCT FROM") {
			t.Errorf("%s: got %v, want a logic: IS NOT DISTINCT FROM rejection", cond, err)
		}
	}
}

// notNullCatalog marks the listed table.column pairs NOT NULL.
type notNullCatalog struct {
	fakeCatalog
	notNull map[string]bool
}

func (c notNullCatalog) ColumnNotNull(table, column string) bool {
	return c.notNull[table+"."+column]
}

// TestNotNullDropsNullCases: the tri-valued NOT IN expansion spells out an
// x IS NULL empty-set case and a p IS NULL null probe. Over NOT NULL
// columns both are impossible and must vanish; over nullable columns they
// stay.
func TestNotNullDropsNullCases(t *testing.T) {
	st, err := sqlparser.Parse(`CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM orders AS o
		WHERE o.o_totalprice NOT IN (SELECT c.c_custkey FROM customer AS c)))`)
	if err != nil {
		t.Fatal(err)
	}
	check := st.(*sqlparser.CreateAssertion).Check
	nn := notNullCatalog{testCat, map[string]bool{"orders.o_totalprice": true, "customer.c_custkey": true}}
	tr, err := Translate("a", check, nn)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Denials) != 1 || len(tr.Rules) != 0 || len(tr.Denials[0].Body.Builtins) != 0 {
		t.Errorf("NOT NULL columns: want one denial with no NULL tests and no rules, got:\n%s", tr)
	}
	tr, err = Translate("a", check, testCat)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Denials) != 2 || len(tr.Rules) == 0 {
		t.Errorf("nullable columns: want the empty-set denial and the null-probe rule, got:\n%s", tr)
	}
}
