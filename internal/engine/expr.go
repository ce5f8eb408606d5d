package engine

import (
	"fmt"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

// truth is SQL three-valued logic.
type truth int8

const (
	truthFalse   truth = 0
	truthTrue    truth = 1
	truthUnknown truth = -1
)

func boolTruth(b bool) truth {
	if b {
		return truthTrue
	}
	return truthFalse
}

func notTruth(t truth) truth {
	switch t {
	case truthTrue:
		return truthFalse
	case truthFalse:
		return truthTrue
	}
	return truthUnknown
}

// evalValue evaluates a scalar expression against the current scope.
func (ex *exec) evalValue(e sqlparser.Expr) (sqltypes.Value, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Value, nil
	case *sqlparser.ColumnRef:
		sc, si, ci, err := ex.scope.lookup(x.Qualifier, x.Name)
		if err != nil {
			return sqltypes.Null, err
		}
		row := sc.tuple[si]
		if row == nil {
			return sqltypes.Null, fmt.Errorf("engine: internal: column %s read before its source is bound", x.Name)
		}
		return row[ci], nil
	case *sqlparser.Neg:
		v, err := ex.evalValue(x.E)
		if err != nil {
			return sqltypes.Null, err
		}
		switch v.Kind() {
		case sqltypes.KindNull:
			return sqltypes.Null, nil
		case sqltypes.KindInt:
			return sqltypes.NewInt(-v.Int()), nil
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(-v.Float()), nil
		}
		return sqltypes.Null, fmt.Errorf("engine: cannot negate %s", v.Kind())
	case *sqlparser.Binary:
		if x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr || x.Op == sqlparser.OpIsNotDistinctFrom || x.Op.IsComparison() {
			t, err := ex.evalBool(e)
			if err != nil {
				return sqltypes.Null, err
			}
			if t == truthUnknown {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(t == truthTrue), nil
		}
		return ex.evalArith(x)
	case *sqlparser.Not, *sqlparser.Exists, *sqlparser.InSubquery, *sqlparser.InList, *sqlparser.IsNull:
		t, err := ex.evalBool(e)
		if err != nil {
			return sqltypes.Null, err
		}
		if t == truthUnknown {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(t == truthTrue), nil
	case *sqlparser.ScalarSubquery:
		return ex.evalScalarSubquery(x)
	case *sqlparser.FuncCall:
		if x.Name == "COALESCE" {
			for _, a := range x.Args {
				v, err := ex.evalValue(a)
				if err != nil {
					return sqltypes.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return sqltypes.Null, nil
		}
		return sqltypes.Null, fmt.Errorf("engine: aggregate %s is only allowed in an aggregate projection", x.Name)
	}
	return sqltypes.Null, fmt.Errorf("engine: unsupported expression %T", e)
}

func (ex *exec) evalArith(x *sqlparser.Binary) (sqltypes.Value, error) {
	l, err := ex.evalValue(x.L)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := ex.evalValue(x.R)
	if err != nil {
		return sqltypes.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null, nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return sqltypes.Null, fmt.Errorf("engine: arithmetic on non-numeric values %s %s %s", l, x.Op, r)
	}
	if l.Kind() == sqltypes.KindInt && r.Kind() == sqltypes.KindInt && x.Op != sqlparser.OpDiv {
		a, b := l.Int(), r.Int()
		switch x.Op {
		case sqlparser.OpAdd:
			return sqltypes.NewInt(a + b), nil
		case sqlparser.OpSub:
			return sqltypes.NewInt(a - b), nil
		case sqlparser.OpMul:
			return sqltypes.NewInt(a * b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch x.Op {
	case sqlparser.OpAdd:
		return sqltypes.NewFloat(a + b), nil
	case sqlparser.OpSub:
		return sqltypes.NewFloat(a - b), nil
	case sqlparser.OpMul:
		return sqltypes.NewFloat(a * b), nil
	case sqlparser.OpDiv:
		if b == 0 {
			return sqltypes.Null, fmt.Errorf("engine: division by zero")
		}
		return sqltypes.NewFloat(a / b), nil
	}
	return sqltypes.Null, fmt.Errorf("engine: unsupported arithmetic operator %s", x.Op)
}

// evalBool evaluates a predicate with SQL three-valued logic.
func (ex *exec) evalBool(e sqlparser.Expr) (truth, error) {
	switch x := e.(type) {
	case *sqlparser.Binary:
		switch x.Op {
		case sqlparser.OpAnd:
			l, err := ex.evalBool(x.L)
			if err != nil {
				return truthUnknown, err
			}
			if l == truthFalse {
				return truthFalse, nil
			}
			r, err := ex.evalBool(x.R)
			if err != nil {
				return truthUnknown, err
			}
			if r == truthFalse {
				return truthFalse, nil
			}
			if l == truthUnknown || r == truthUnknown {
				return truthUnknown, nil
			}
			return truthTrue, nil
		case sqlparser.OpOr:
			l, err := ex.evalBool(x.L)
			if err != nil {
				return truthUnknown, err
			}
			if l == truthTrue {
				return truthTrue, nil
			}
			r, err := ex.evalBool(x.R)
			if err != nil {
				return truthUnknown, err
			}
			if r == truthTrue {
				return truthTrue, nil
			}
			if l == truthUnknown || r == truthUnknown {
				return truthUnknown, nil
			}
			return truthFalse, nil
		case sqlparser.OpIsNotDistinctFrom:
			// Two-valued: tuple identity, where NULL matches NULL.
			l, err := ex.evalValue(x.L)
			if err != nil {
				return truthUnknown, err
			}
			r, err := ex.evalValue(x.R)
			if err != nil {
				return truthUnknown, err
			}
			return boolTruth(sqltypes.Identical(l, r)), nil
		}
		if x.Op.IsComparison() {
			l, err := ex.evalValue(x.L)
			if err != nil {
				return truthUnknown, err
			}
			r, err := ex.evalValue(x.R)
			if err != nil {
				return truthUnknown, err
			}
			cmp, ok := sqltypes.Compare(l, r)
			if !ok {
				if l.IsNull() || r.IsNull() {
					return truthUnknown, nil
				}
				return truthUnknown, fmt.Errorf("engine: cannot compare %s with %s", l.Kind(), r.Kind())
			}
			switch x.Op {
			case sqlparser.OpEq:
				return boolTruth(cmp == 0), nil
			case sqlparser.OpNe:
				return boolTruth(cmp != 0), nil
			case sqlparser.OpLt:
				return boolTruth(cmp < 0), nil
			case sqlparser.OpLe:
				return boolTruth(cmp <= 0), nil
			case sqlparser.OpGt:
				return boolTruth(cmp > 0), nil
			case sqlparser.OpGe:
				return boolTruth(cmp >= 0), nil
			}
		}
		// Arithmetic in boolean position: treat non-null as an error.
		return truthUnknown, fmt.Errorf("engine: %s is not a predicate", x.Op)

	case *sqlparser.Not:
		t, err := ex.evalBool(x.E)
		if err != nil {
			return truthUnknown, err
		}
		return notTruth(t), nil

	case *sqlparser.IsNull:
		v, err := ex.evalValue(x.E)
		if err != nil {
			return truthUnknown, err
		}
		return boolTruth(v.IsNull() != x.Negated), nil

	case *sqlparser.Exists:
		found, err := ex.existsSub(x.Query)
		if err != nil {
			return truthUnknown, err
		}
		return boolTruth(found != x.Negated), nil

	case *sqlparser.InSubquery:
		return ex.evalInSubquery(x)

	case *sqlparser.InList:
		v, err := ex.evalValue(x.E)
		if err != nil {
			return truthUnknown, err
		}
		if v.IsNull() {
			return truthUnknown, nil
		}
		sawNull := false
		for _, it := range x.Items {
			iv, err := ex.evalValue(it)
			if err != nil {
				return truthUnknown, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if sqltypes.Equal(v, iv) {
				return boolTruth(!x.Negated), nil
			}
		}
		if sawNull {
			return truthUnknown, nil
		}
		return boolTruth(x.Negated), nil

	case *sqlparser.Literal:
		if x.Value.IsNull() {
			return truthUnknown, nil
		}
		if x.Value.Kind() == sqltypes.KindBool {
			return boolTruth(x.Value.Bool()), nil
		}
		return truthUnknown, fmt.Errorf("engine: literal %s is not a predicate", x.Value)

	case *sqlparser.ColumnRef:
		v, err := ex.evalValue(x)
		if err != nil {
			return truthUnknown, err
		}
		if v.IsNull() {
			return truthUnknown, nil
		}
		if v.Kind() == sqltypes.KindBool {
			return boolTruth(v.Bool()), nil
		}
		return truthUnknown, fmt.Errorf("engine: column %s is not boolean", x.Name)
	}
	return truthUnknown, fmt.Errorf("engine: unsupported predicate %T", e)
}

// evalInSubquery implements expr [NOT] IN (SELECT c FROM ...) with proper
// NULL semantics: a NULL in the subquery output makes a failed membership
// test unknown rather than false. Uncorrelated subqueries are materialized
// once into a hash set (what a real DBMS does for semi-joins), so NOT IN
// assertions stay linear instead of quadratic.
func (ex *exec) evalInSubquery(x *sqlparser.InSubquery) (truth, error) {
	v, err := ex.evalValue(x.E)
	if err != nil {
		return truthUnknown, err
	}
	// A NULL operand does NOT short-circuit to unknown: IN is "= ANY", and
	// ANY over an empty result is FALSE no matter what the operand is, so
	// NULL IN (empty) is FALSE and NULL NOT IN (empty) is TRUE. Only a
	// non-empty result makes the membership test unknown.
	if set, ok := ex.inMemo[x]; ok {
		return inVerdict(set, v, x.Negated), nil
	}

	memoizable := true
	var branches []*exec
	for cur := x.Query; cur != nil; cur = cur.Union {
		sub, err := ex.subExec(cur)
		if err != nil {
			return truthUnknown, err
		}
		if cur.Star {
			if len(sub.scope.srcs) != 1 || len(sub.scope.srcs[0].cols) != 1 {
				return truthUnknown, fmt.Errorf("engine: IN subquery must produce exactly one column")
			}
		} else if len(cur.Columns) != 1 {
			return truthUnknown, fmt.Errorf("engine: IN subquery must produce exactly one column")
		}
		if !branchUncorrelated(sub, cur) {
			memoizable = false
		}
		branches = append(branches, sub)
	}

	if memoizable {
		set := &inSet{vals: make(map[string]bool)}
		for _, sub := range branches {
			err := sub.run(func(row sqltypes.Row) (bool, error) {
				if row[0].IsNull() {
					set.sawNull = true
				} else {
					set.vals[string(row[0].EncodeKey(nil))] = true
				}
				return true, nil
			})
			if err != nil {
				return truthUnknown, err
			}
		}
		if ex.inMemo == nil {
			ex.inMemo = make(map[*sqlparser.InSubquery]*inSet)
		}
		ex.inMemo[x] = set
		return inVerdict(set, v, x.Negated), nil
	}

	// Correlated: scan with early exit, reusing the cached plans and each
	// branch's reusable membership sink (this probe runs per outer row).
	if v.IsNull() {
		// Only emptiness matters for a NULL operand; probe for any row.
		any := false
		for _, sub := range branches {
			if err := sub.run(func(sqltypes.Row) (bool, error) {
				any = true
				return false, nil
			}); err != nil {
				return truthUnknown, err
			}
			if any {
				return truthUnknown, nil
			}
		}
		return boolTruth(x.Negated), nil
	}
	found := false
	sawNull := false
	for _, sub := range branches {
		sub.inVal = v
		sub.inFound = false
		sub.inSawNull = false
		err := sub.run(sub.inEmit)
		if err != nil {
			return truthUnknown, err
		}
		sawNull = sawNull || sub.inSawNull
		if sub.inFound {
			found = true
			break
		}
	}
	switch {
	case found:
		return boolTruth(!x.Negated), nil
	case sawNull:
		return truthUnknown, nil
	}
	return boolTruth(x.Negated), nil
}

func inVerdict(set *inSet, v sqltypes.Value, negated bool) truth {
	if v.IsNull() {
		// NULL IN (empty) is FALSE, not unknown: IN is "= ANY" and ANY
		// over no rows is FALSE regardless of the operand.
		if len(set.vals) == 0 && !set.sawNull {
			return boolTruth(negated)
		}
		return truthUnknown
	}
	if set.vals[string(v.EncodeKey(nil))] {
		return boolTruth(!negated)
	}
	if set.sawNull {
		return truthUnknown
	}
	return boolTruth(negated)
}

// branchUncorrelated reports whether one subquery branch references only its
// own FROM sources (no outer columns, no nested subqueries).
func branchUncorrelated(sub *exec, cur *sqlparser.Select) bool {
	ok := true
	check := func(e sqlparser.Expr) bool {
		switch x := e.(type) {
		case *sqlparser.Exists, *sqlparser.InSubquery, *sqlparser.ScalarSubquery:
			ok = false
			return false
		case *sqlparser.ColumnRef:
			sc, _, _, err := sub.scope.lookup(x.Qualifier, x.Name)
			if err != nil || sc != sub.scope {
				ok = false
				return false
			}
		}
		return ok
	}
	for _, it := range cur.Columns {
		sqlparser.WalkExpr(it.Expr, check)
		if !ok {
			return false
		}
	}
	sqlparser.WalkExpr(cur.Where, check)
	return ok
}
