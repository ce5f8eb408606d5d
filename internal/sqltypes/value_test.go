package sqltypes

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INTEGER",
		KindFloat:  "REAL",
		KindString: "VARCHAR",
		KindBool:   "BOOLEAN",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), want)
		}
	}
}

func TestAccessors(t *testing.T) {
	if NewInt(7).Int() != 7 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewInt(7).Float() != 7.0 {
		t.Error("Int→Float accessor")
	}
	if NewString("x").Str() != "x" {
		t.Error("Str accessor")
	}
	if !NewBool(true).Bool() {
		t.Error("Bool accessor")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull")
	}
}

func TestAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int() on string did not panic")
		}
	}()
	_ = NewString("x").Int()
}

func TestCompareNumericCrossKind(t *testing.T) {
	cmp, ok := Compare(NewInt(2), NewFloat(2.0))
	if !ok || cmp != 0 {
		t.Errorf("2 vs 2.0: cmp=%d ok=%v", cmp, ok)
	}
	cmp, ok = Compare(NewInt(2), NewFloat(2.5))
	if !ok || cmp != -1 {
		t.Errorf("2 vs 2.5: cmp=%d ok=%v", cmp, ok)
	}
}

func TestCompareNullUnknown(t *testing.T) {
	if _, ok := Compare(Null, NewInt(1)); ok {
		t.Error("NULL comparison must be unknown")
	}
	if Equal(Null, Null) {
		t.Error("NULL = NULL must not hold")
	}
	if !Identical(Null, Null) {
		t.Error("NULL must be Identical to NULL")
	}
}

func TestCompareIncompatibleKinds(t *testing.T) {
	if _, ok := Compare(NewString("a"), NewInt(1)); ok {
		t.Error("string vs int must be incomparable")
	}
	if _, ok := Compare(NewBool(true), NewInt(1)); ok {
		t.Error("bool vs int must be incomparable")
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[string]Value{
		"NULL":    Null,
		"42":      NewInt(42),
		"2.5":     NewFloat(2.5),
		"'it''s'": NewString("it's"),
		"TRUE":    NewBool(true),
		"FALSE":   NewBool(false),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("%v.String() = %s, want %s", v.Kind(), v.String(), want)
		}
	}
}

func TestCoerceTo(t *testing.T) {
	v, err := NewInt(3).CoerceTo(KindFloat)
	if err != nil || v.Kind() != KindFloat || v.Float() != 3 {
		t.Errorf("int→float: %v %v", v, err)
	}
	v, err = NewFloat(4.0).CoerceTo(KindInt)
	if err != nil || v.Int() != 4 {
		t.Errorf("float(4.0)→int: %v %v", v, err)
	}
	if _, err := NewFloat(4.5).CoerceTo(KindInt); err == nil {
		t.Error("lossy float→int must fail")
	}
	if _, err := NewString("x").CoerceTo(KindInt); err == nil {
		t.Error("string→int must fail")
	}
	if v, err := Null.CoerceTo(KindInt); err != nil || !v.IsNull() {
		t.Error("NULL coerces to anything")
	}
}

func TestRowKeyDistinguishes(t *testing.T) {
	a := Row{NewString("ab"), NewString("c")}
	b := Row{NewString("a"), NewString("bc")}
	if a.Key() == b.Key() {
		t.Error("string boundary ambiguity in Key()")
	}
}

func TestKeyOnSubset(t *testing.T) {
	r := Row{NewInt(1), NewString("x"), NewInt(2)}
	if r.KeyOn([]int{0, 2}) == r.KeyOn([]int{2, 0}) {
		t.Error("KeyOn must be order sensitive")
	}
}

func TestIdenticalRows(t *testing.T) {
	a := Row{NewInt(1), Null}
	b := Row{NewInt(1), Null}
	if !IdenticalRows(a, b) {
		t.Error("identical rows with NULLs")
	}
	if IdenticalRows(a, Row{NewInt(1)}) {
		t.Error("different arities")
	}
	if IdenticalRows(a, Row{NewInt(2), Null}) {
		t.Error("different values")
	}
	// INTEGER 1 and REAL 1.0 are identical under numeric equality.
	if !IdenticalRows(Row{NewInt(1)}, Row{NewFloat(1.0)}) {
		t.Error("numeric identity across kinds")
	}
}

// --- property-based tests ---

// genValue produces an arbitrary Value for quick-check properties.
func genValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 5:
		return edgeNumerics[r.Intn(len(edgeNumerics))]
	case 0:
		return Null
	case 1:
		return NewInt(r.Int63n(1000) - 500)
	case 2:
		return NewFloat(float64(r.Int63n(1000)-500) / 4)
	case 3:
		return NewString(string(rune('a' + r.Intn(26))))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

// edgeNumerics are the numbers where an INTEGER/REAL comparison through
// float64 goes wrong: integers past 2^53 that round onto a neighbour, the
// int64 extremes, signed zero, infinities and NaN.
var edgeNumerics = []Value{
	NewInt(1 << 53), NewInt(1<<53 + 1), NewInt(-(1 << 53) - 1), NewInt(1<<62 + 1),
	NewInt(math.MaxInt64), NewInt(math.MinInt64), NewInt(0),
	NewFloat(0x1p53), NewFloat(0x1p53 + 2), NewFloat(0x1p63), NewFloat(-0x1p63),
	NewFloat(math.Copysign(0, -1)), NewFloat(0.5), NewFloat(math.Inf(1)),
	NewFloat(math.Inf(-1)), NewFloat(math.NaN()),
}

type valuePair struct{ A, B Value }

func (valuePair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valuePair{A: genValue(r), B: genValue(r)})
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(p valuePair) bool {
		ab, ok1 := Compare(p.A, p.B)
		ba, ok2 := Compare(p.B, p.A)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return ab == -ba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyConsistentWithEqualProperty(t *testing.T) {
	// Equal values must encode identically; non-equal comparable values
	// must encode differently. Across all values, NULL included, equal
	// encodings are exactly Identical, and equal encodings hash alike.
	f := func(p valuePair) bool {
		ka := string(p.A.EncodeKey(nil))
		kb := string(p.B.EncodeKey(nil))
		if (ka == kb) != Identical(p.A, p.B) {
			return false
		}
		if ka == kb && p.A.Hash(7) != p.B.Hash(7) {
			return false
		}
		// Words decide identity exactly, where both values have one.
		wa, wb := p.A.Word(), p.B.Word()
		if wa != NoWord && wb != NoWord && (wa == wb) != Identical(p.A, p.B) {
			return false
		}
		if (wa == NoWord) != (wb == NoWord) && Identical(p.A, p.B) {
			return false
		}
		cmp, ok := Compare(p.A, p.B)
		if !ok {
			return true
		}
		if cmp == 0 {
			return ka == kb
		}
		return ka != kb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

type valueTriple struct{ A, B, C Value }

func (valueTriple) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueTriple{A: genValue(r), B: genValue(r), C: genValue(r)})
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(p valueTriple) bool {
		ab, ok1 := Compare(p.A, p.B)
		bc, ok2 := Compare(p.B, p.C)
		ac, ok3 := Compare(p.A, p.C)
		if !ok1 || !ok2 || !ok3 {
			return true
		}
		if ab <= 0 && bc <= 0 && ac > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRowCloneIndependenceProperty(t *testing.T) {
	f := func(p valueTriple) bool {
		r := Row{p.A, p.B, p.C}
		c := r.Clone()
		c[0] = NewInt(999999)
		return IdenticalRows(r, Row{p.A, p.B, p.C})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFloatIntKeyAgreement(t *testing.T) {
	// Values equal across kinds (5 vs 5.0) must hash identically for index
	// probes to agree with Compare.
	for i := -100; i <= 100; i++ {
		ki := string(NewInt(int64(i)).EncodeKey(nil))
		kf := string(NewFloat(float64(i)).EncodeKey(nil))
		if ki != kf {
			t.Fatalf("key mismatch for %d", i)
		}
	}
}

// TestIntegersBeyondFloatPrecision: INTEGERs past 2^53 round to a
// neighbour as float64. They must still compare, encode and hash as
// themselves, and equal a REAL only when the REAL holds them exactly.
func TestIntegersBeyondFloatPrecision(t *testing.T) {
	a, b := NewInt(1<<53), NewInt(1<<53+1)
	if Identical(a, b) || string(a.EncodeKey(nil)) == string(b.EncodeKey(nil)) || a.Hash(0) == b.Hash(0) {
		t.Errorf("2^53 and 2^53+1 are not told apart")
	}
	if c, _ := Compare(a, b); c != -1 {
		t.Errorf("Compare(2^53, 2^53+1) = %d, want -1", c)
	}
	if !Identical(a, NewFloat(0x1p53)) || a.Hash(0) != NewFloat(0x1p53).Hash(0) {
		t.Errorf("2^53 and 2^53 as REAL differ")
	}
	if Identical(b, NewFloat(0x1p53)) {
		t.Errorf("2^53+1 equals the REAL 2^53")
	}
	if c, _ := Compare(b, NewFloat(0x1p53+2)); c != -1 {
		t.Errorf("Compare(2^53+1, 2^53+2.0) = %d, want -1", c)
	}
	if c, _ := Compare(NewInt(math.MaxInt64), NewFloat(0x1p63)); c != -1 {
		t.Errorf("Compare(MaxInt64, 2^63) = %d, want -1", c)
	}
	if !Identical(NewInt(math.MinInt64), NewFloat(-0x1p63)) {
		t.Errorf("MinInt64 differs from -2^63 as REAL")
	}
	if c, _ := Compare(NewInt(3), NewFloat(2.5)); c != 1 {
		t.Errorf("Compare(3, 2.5) = %d, want 1", c)
	}
	if c, _ := Compare(NewInt(-3), NewFloat(-2.5)); c != -1 {
		t.Errorf("Compare(-3, -2.5) = %d, want -1", c)
	}
}
