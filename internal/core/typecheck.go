package core

// typecheck.go implements a prepare-time type check over assertion CHECK
// conditions. Without it, kind mismatches such as str_col > 3 only surface
// while a safeCommit is evaluating the compiled views, turning a malformed
// assertion into a transaction that can never commit. The checker walks the
// condition with the same alias-scoping rules as the logic translator and
// rejects, at AddAssertion time:
//
//   - references to unknown tables, aliases or columns (and ambiguous
//     unqualified columns);
//   - comparisons between incomparable kinds (numeric kinds compare with
//     each other; VARCHAR and BOOLEAN only with themselves; the NULL
//     literal with anything);
//   - IN lists and IN subqueries whose operand kind cannot match the
//     element kind, and IN subqueries that do not project exactly one
//     column;
//   - arithmetic (+ - * / and unary minus) over non-numeric operands;
//   - non-predicates used as conditions (a bare column or arithmetic
//     expression as the CHECK body or as an AND/OR/NOT operand) and
//     non-scalars used as operands;
//   - SUM/AVG over non-numeric arguments.
//
// The check is purely structural — it never touches row data — so a clean
// result here means the compiled incremental views cannot hit a kind error
// at commit time.

import (
	"fmt"
	"strings"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// tcScope is one FROM clause's alias → schema bindings, linked to the
// enclosing query's scope for correlated subqueries.
type tcScope struct {
	parent  *tcScope
	entries []tcEntry
}

type tcEntry struct {
	alias  string
	schema *storage.Schema
}

// tcKind is the inferred type of a scalar expression. known=false means the
// expression is the NULL literal (or propagates it), which compares with
// every kind.
type tcKind struct {
	kind  sqltypes.Kind
	known bool
}

var tcNull = tcKind{kind: sqltypes.KindNull, known: false}

// typeCheck validates an assertion CHECK condition against the current
// catalog. It returns nil when every expression in the condition is
// well-typed under the rules above.
func typeCheck(db *storage.DB, check sqlparser.Expr) error {
	c := &typeChecker{db: db}
	return c.predicate(nil, check)
}

type typeChecker struct {
	db *storage.DB
}

// predicate checks a boolean-position expression.
func (c *typeChecker) predicate(sc *tcScope, e sqlparser.Expr) error {
	switch x := e.(type) {
	case *sqlparser.Binary:
		switch {
		case x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr:
			if err := c.predicate(sc, x.L); err != nil {
				return err
			}
			return c.predicate(sc, x.R)
		case x.Op.IsComparison() || x.Op == sqlparser.OpIsNotDistinctFrom:
			l, err := c.scalar(sc, x.L)
			if err != nil {
				return err
			}
			r, err := c.scalar(sc, x.R)
			if err != nil {
				return err
			}
			return comparable(l, r)
		}
		return fmt.Errorf("typecheck: %s expression is not a condition", x.Op)

	case *sqlparser.Not:
		return c.predicate(sc, x.E)

	case *sqlparser.Exists:
		return c.selectQuery(sc, x.Query)

	case *sqlparser.InSubquery:
		k, err := c.scalar(sc, x.E)
		if err != nil {
			return err
		}
		elem, err := c.subqueryColumn(sc, x.Query)
		if err != nil {
			return err
		}
		if err := comparable(k, elem); err != nil {
			return fmt.Errorf("IN subquery: %w", err)
		}
		return nil

	case *sqlparser.InList:
		k, err := c.scalar(sc, x.E)
		if err != nil {
			return err
		}
		for _, it := range x.Items {
			ik, err := c.scalar(sc, it)
			if err != nil {
				return err
			}
			if err := comparable(k, ik); err != nil {
				return fmt.Errorf("IN list: %w", err)
			}
		}
		return nil

	case *sqlparser.IsNull:
		_, err := c.scalar(sc, x.E)
		return err

	case *sqlparser.Literal:
		if x.Value.Kind() == sqltypes.KindBool {
			return nil
		}
		return fmt.Errorf("typecheck: literal %s is not a condition", x.Value)
	}
	return fmt.Errorf("typecheck: %s is not a condition", sqlparser.FormatExpr(e))
}

// scalar checks a value-position expression and infers its kind.
func (c *typeChecker) scalar(sc *tcScope, e sqlparser.Expr) (tcKind, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		if x.Value.IsNull() {
			return tcNull, nil
		}
		return tcKind{kind: x.Value.Kind(), known: true}, nil

	case *sqlparser.ColumnRef:
		return c.resolveColumn(sc, x)

	case *sqlparser.Neg:
		k, err := c.scalar(sc, x.E)
		if err != nil {
			return tcKind{}, err
		}
		if err := numeric(k, "-"); err != nil {
			return tcKind{}, err
		}
		return k, nil

	case *sqlparser.Binary:
		switch x.Op {
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
			l, err := c.scalar(sc, x.L)
			if err != nil {
				return tcKind{}, err
			}
			r, err := c.scalar(sc, x.R)
			if err != nil {
				return tcKind{}, err
			}
			if err := numeric(l, x.Op.String()); err != nil {
				return tcKind{}, err
			}
			if err := numeric(r, x.Op.String()); err != nil {
				return tcKind{}, err
			}
			if !l.known || !r.known {
				return tcNull, nil
			}
			if x.Op != sqlparser.OpDiv && l.kind == sqltypes.KindInt && r.kind == sqltypes.KindInt {
				return tcKind{kind: sqltypes.KindInt, known: true}, nil
			}
			return tcKind{kind: sqltypes.KindFloat, known: true}, nil
		}
		return tcKind{}, fmt.Errorf("typecheck: %s expression is not a scalar", x.Op)

	case *sqlparser.FuncCall:
		if x.Name == "COALESCE" {
			out := tcNull
			for _, a := range x.Args {
				k, err := c.scalar(sc, a)
				if err != nil {
					return tcKind{}, err
				}
				if err := comparable(out, k); err != nil {
					return tcKind{}, fmt.Errorf("COALESCE: %w", err)
				}
				if !out.known {
					out = k
				}
			}
			return out, nil
		}
		if x.IsAggregate() {
			return tcKind{}, fmt.Errorf("typecheck: aggregate %s is only allowed as a scalar subquery projection", x.Name)
		}
		return tcKind{}, fmt.Errorf("typecheck: unsupported function %s", x.Name)

	case *sqlparser.ScalarSubquery:
		return c.scalarSubquery(sc, x.Query)
	}
	return tcKind{}, fmt.Errorf("typecheck: %s is not a scalar expression", sqlparser.FormatExpr(e))
}

// selectQuery checks a full (NOT) EXISTS subquery: FROM tables resolve,
// WHERE is a well-typed predicate, projections are well-typed scalars.
func (c *typeChecker) selectQuery(sc *tcScope, q *sqlparser.Select) error {
	for ; q != nil; q = q.Union {
		child, err := c.fromScope(sc, q.From)
		if err != nil {
			return err
		}
		if q.Where != nil {
			if err := c.predicate(child, q.Where); err != nil {
				return err
			}
		}
		for _, it := range q.Columns {
			if err := c.projection(child, it.Expr); err != nil {
				return err
			}
		}
	}
	return nil
}

// projection checks one projected expression, allowing aggregate calls
// (their argument kinds are validated where the aggregate is interpreted,
// in scalarSubquery).
func (c *typeChecker) projection(sc *tcScope, e sqlparser.Expr) error {
	if f, ok := e.(*sqlparser.FuncCall); ok && f.IsAggregate() {
		return c.aggregateArgs(sc, f)
	}
	_, err := c.scalar(sc, e)
	return err
}

// aggregateArgs validates an aggregate call's argument expressions.
func (c *typeChecker) aggregateArgs(sc *tcScope, f *sqlparser.FuncCall) error {
	if f.Star {
		return nil
	}
	for _, a := range f.Args {
		k, err := c.scalar(sc, a)
		if err != nil {
			return err
		}
		if f.Name == "SUM" || f.Name == "AVG" {
			if k.known && k.kind != sqltypes.KindInt && k.kind != sqltypes.KindFloat {
				return fmt.Errorf("typecheck: %s over non-numeric %s argument", f.Name, k.kind)
			}
		}
	}
	return nil
}

// subqueryColumn checks an IN subquery and returns the kind of its single
// projected column (per UNION branch kinds must be mutually comparable).
func (c *typeChecker) subqueryColumn(sc *tcScope, q *sqlparser.Select) (tcKind, error) {
	out := tcNull
	for ; q != nil; q = q.Union {
		child, err := c.fromScope(sc, q.From)
		if err != nil {
			return tcKind{}, err
		}
		if q.Where != nil {
			if err := c.predicate(child, q.Where); err != nil {
				return tcKind{}, err
			}
		}
		if q.Star || len(q.Columns) != 1 {
			return tcKind{}, fmt.Errorf("typecheck: IN subquery must project exactly one column")
		}
		k, err := c.scalar(child, q.Columns[0].Expr)
		if err != nil {
			return tcKind{}, err
		}
		if err := comparable(out, k); err != nil {
			return tcKind{}, fmt.Errorf("IN subquery UNION branches: %w", err)
		}
		if !out.known {
			out = k
		}
	}
	return out, nil
}

// scalarSubquery checks a scalar subquery used as a value — in the
// supported fragment an aggregate such as (SELECT COUNT(*) FROM ...) —
// and infers the kind of its result.
func (c *typeChecker) scalarSubquery(sc *tcScope, q *sqlparser.Select) (tcKind, error) {
	if q.Union != nil {
		return tcKind{}, fmt.Errorf("typecheck: scalar subquery cannot use UNION")
	}
	child, err := c.fromScope(sc, q.From)
	if err != nil {
		return tcKind{}, err
	}
	if q.Where != nil {
		if err := c.predicate(child, q.Where); err != nil {
			return tcKind{}, err
		}
	}
	if q.Star || len(q.Columns) != 1 {
		return tcKind{}, fmt.Errorf("typecheck: scalar subquery must project exactly one column")
	}
	e := q.Columns[0].Expr
	if f, ok := e.(*sqlparser.FuncCall); ok && f.IsAggregate() {
		if err := c.aggregateArgs(child, f); err != nil {
			return tcKind{}, err
		}
		switch f.Name {
		case "COUNT":
			return tcKind{kind: sqltypes.KindInt, known: true}, nil
		case "AVG":
			return tcKind{kind: sqltypes.KindFloat, known: true}, nil
		default: // SUM/MIN/MAX follow their argument's kind
			if f.Star || len(f.Args) != 1 {
				return tcNull, nil
			}
			return c.scalar(child, f.Args[0])
		}
	}
	return c.scalar(child, e)
}

// fromScope resolves a FROM clause into a child scope of sc.
func (c *typeChecker) fromScope(sc *tcScope, from []sqlparser.TableRef) (*tcScope, error) {
	child := &tcScope{parent: sc}
	for _, tr := range from {
		name := strings.ToLower(tr.Table)
		t := c.db.Table(name)
		if t == nil {
			return nil, fmt.Errorf("typecheck: unknown table %s", tr.Table)
		}
		alias := strings.ToLower(tr.EffectiveAlias())
		for _, e := range child.entries {
			if e.alias == alias {
				return nil, fmt.Errorf("typecheck: duplicate alias %s in FROM", alias)
			}
		}
		child.entries = append(child.entries, tcEntry{alias: alias, schema: t.Schema()})
	}
	return child, nil
}

// resolveColumn finds a column's kind using the translator's scoping rules:
// qualified references search inner scopes outward for the alias;
// unqualified references must be unambiguous within the nearest scope that
// has a match.
func (c *typeChecker) resolveColumn(sc *tcScope, cr *sqlparser.ColumnRef) (tcKind, error) {
	name := strings.ToLower(cr.Name)
	qual := strings.ToLower(cr.Qualifier)
	for cur := sc; cur != nil; cur = cur.parent {
		if qual != "" {
			for _, e := range cur.entries {
				if e.alias != qual {
					continue
				}
				ci := e.schema.ColumnIndex(name)
				if ci < 0 {
					return tcKind{}, fmt.Errorf("typecheck: %s has no column %s", qual, name)
				}
				return tcKind{kind: e.schema.Columns[ci].Type, known: true}, nil
			}
			continue
		}
		var hit *storage.Column
		for _, e := range cur.entries {
			if ci := e.schema.ColumnIndex(name); ci >= 0 {
				if hit != nil {
					return tcKind{}, fmt.Errorf("typecheck: ambiguous column %s", name)
				}
				hit = &e.schema.Columns[ci]
			}
		}
		if hit != nil {
			return tcKind{kind: hit.Type, known: true}, nil
		}
	}
	if qual != "" {
		return tcKind{}, fmt.Errorf("typecheck: unknown table or alias %s", qual)
	}
	return tcKind{}, fmt.Errorf("typecheck: unknown column %s", name)
}

// comparable reports whether two inferred kinds can be compared: NULL with
// anything, numeric kinds with each other, otherwise only identical kinds.
func comparable(a, b tcKind) error {
	if !a.known || !b.known {
		return nil
	}
	an := a.kind == sqltypes.KindInt || a.kind == sqltypes.KindFloat
	bn := b.kind == sqltypes.KindInt || b.kind == sqltypes.KindFloat
	if an && bn {
		return nil
	}
	if a.kind == b.kind {
		return nil
	}
	return fmt.Errorf("typecheck: cannot compare %s with %s", a.kind, b.kind)
}

// numeric rejects a non-numeric operand of an arithmetic operator.
func numeric(k tcKind, op string) error {
	if !k.known || k.kind == sqltypes.KindInt || k.kind == sqltypes.KindFloat {
		return nil
	}
	return fmt.Errorf("typecheck: operator %s requires numeric operands, got %s", op, k.kind)
}
