// Package sqltypes provides the typed value model shared by the storage
// engine, the query evaluator and the TINTIN rewriting pipeline.
//
// Values are small immutable scalars with SQL-like comparison semantics:
// integers and floats compare numerically across kinds, NULL compares as
// unknown (reported via an ok flag), and every value has a stable byte
// encoding and an allocation-free hash, both agreeing with Identical.
package sqltypes

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported SQL scalar kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a REAL value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics unless Kind is KindInt.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("sqltypes: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the numeric payload as float64 for KindInt or KindFloat.
func (v Value) Float() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	}
	panic("sqltypes: Float() on " + v.kind.String())
}

// Str returns the string payload. It panics unless Kind is KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("sqltypes: Str() on " + v.kind.String())
	}
	return v.s
}

// Bool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("sqltypes: Bool() on " + v.kind.String())
	}
	return v.b
}

// IsNumeric reports whether v is an INTEGER or REAL.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders v in SQL literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		// An integral REAL would otherwise render indistinguishably from an
		// INTEGER literal and flip kind on a parse round-trip; force a
		// decimal point. Inf/NaN (no SQL literal syntax) are left as-is.
		if !strings.ContainsAny(s, ".eEnN") {
			s += ".0"
		}
		return s
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Compare orders two values. The ok result is false when either side is NULL
// (SQL unknown) or the kinds are incomparable; c is then meaningless.
// Numeric kinds compare with each other exactly (an INTEGER beyond ±2^53
// is not rounded to the nearest REAL); strings and bools compare within
// their own kind (false < true). A NaN REAL orders below every number and
// equal to itself.
func Compare(a, b Value) (c int, ok bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		switch {
		case a.kind == KindInt && b.kind == KindInt:
			return cmp.Compare(a.i, b.i), true
		case a.kind == KindInt:
			return cmpIntFloat(a.i, b.f), true
		case b.kind == KindInt:
			return -cmpIntFloat(b.i, a.f), true
		}
		return cmp.Compare(a.f, b.f), true
	}
	if a.kind != b.kind {
		return 0, false
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s), true
	case KindBool:
		switch {
		case !a.b && b.b:
			return -1, true
		case a.b && !b.b:
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Equal reports SQL equality. NULL never equals anything (including NULL).
func Equal(a, b Value) bool {
	cmp, ok := Compare(a, b)
	return ok && cmp == 0
}

// Identical reports structural identity, treating NULL as identical to NULL
// and distinguishing 1 (INTEGER) from 1.0 (REAL) only by numeric value.
// It is the notion of tuple identity used by the storage layer (event
// normalization, duplicate elimination).
func Identical(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return a.kind == b.kind
	}
	return Equal(a, b)
}

// cmpIntFloat compares an INTEGER with a REAL exactly. Converting i to
// float64 would round integers beyond ±2^53 and call 2^53+1 equal to 2^53.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f):
		return 1
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

// exactFloat returns i as a float64 when that conversion loses nothing.
func exactFloat(i int64) (float64, bool) {
	f := float64(i)
	return f, f < 0x1p63 && int64(f) == i
}

// floatKeyBits is the key payload of a numeric value held as f: -0 and +0
// compare equal and so share a key, as do all NaNs.
func floatKeyBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case math.IsNaN(f):
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// Key tags: the first byte of every EncodeKey encoding. Hash mixes them in
// for the values that have no Word.
const (
	keyNull   = 0x00
	keyNum    = 0x01 // REALs, and INTEGERs a float64 holds exactly
	keyString = 0x02
	keyBool   = 0x03
	keyInt    = 0x04 // INTEGERs beyond float64's exact range
)

// EncodeKey appends a stable, injective encoding of v to dst: two values
// encode alike exactly when they are Identical. Numerically equal INTEGER
// and REAL values therefore share the float encoding, and an INTEGER that
// no REAL equals (|i| > 2^53, not representable) gets a tag of its own.
func (v Value) EncodeKey(dst []byte) []byte {
	var b [9]byte
	switch v.kind {
	case KindNull:
		return append(dst, keyNull)
	case KindInt:
		if f, ok := exactFloat(v.i); ok {
			b[0] = keyNum
			binary.BigEndian.PutUint64(b[1:], floatKeyBits(f))
		} else {
			b[0] = keyInt
			binary.BigEndian.PutUint64(b[1:], uint64(v.i))
		}
		return append(dst, b[:]...)
	case KindFloat:
		b[0] = keyNum
		binary.BigEndian.PutUint64(b[1:], floatKeyBits(v.f))
		return append(dst, b[:]...)
	case KindString:
		dst = append(dst, keyString)
		dst = append(dst, v.s...)
		return append(dst, 0x00)
	case KindBool:
		if v.b {
			return append(dst, keyBool, 0x01)
		}
		return append(dst, keyBool, 0x00)
	}
	return append(dst, 0xff)
}

// Words of the non-numeric values: NaN bit patterns that floatKeyBits,
// which maps every NaN to math.NaN(), never returns.
const (
	nullWord  = 0xfff8000000000000
	falseWord = 0xfff8000000000001
	trueWord  = 0xfff8000000000002
	// NoWord is the Word of a value that has none.
	NoWord = 0xfff8000000000003
)

// Word returns a 64-bit word standing for v exactly: for two values whose
// words are not NoWord, Identical(a, b) holds exactly when their words are
// equal. Strings, and INTEGERs that no float64 holds (beyond ±2^53), have
// no word; such a value is Identical to no value that has one. A hash index
// keeps the words of its keys beside its chains, so verifying a candidate
// mostly needs no load of the row itself.
func (v Value) Word() uint64 {
	switch v.kind {
	case KindNull:
		return nullWord
	case KindInt:
		if f, ok := exactFloat(v.i); ok {
			return floatKeyBits(f)
		}
	case KindFloat:
		return floatKeyBits(v.f)
	case KindBool:
		if v.b {
			return trueWord
		}
		return falseWord
	}
	return NoWord
}

// stringSeed keys the string hash. It is random per process; nothing may
// depend on hash order, only on hash agreement within one process.
var stringSeed = maphash.MakeSeed()

// Hash mixes v into h and returns the result. It agrees with EncodeKey:
// values that encode alike (and so are Identical) hash alike, whatever
// their kinds, so a hash index probed with 5 finds the row holding 5.0.
// Unlike EncodeKey it allocates nothing; distinct values may collide, so a
// hash match is a candidate to verify, never a verdict.
func (v Value) Hash(h uint64) uint64 {
	switch w := v.Word(); {
	case w != NoWord:
		return mix(h, w)
	case v.kind == KindString:
		return mix(mix(h, keyString), maphash.String(stringSeed, v.s))
	}
	return mix(mix(h, keyInt), uint64(v.i))
}

// mix folds x into h. For a fixed h it is a bijection of x (xor, an odd
// multiply and an xorshift are each invertible), so one-column keys that
// have a Word never collide.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// Row is an ordered tuple of values.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Key encodes the whole row as a hashable string key.
func (r Row) Key() string {
	var buf []byte
	for _, v := range r {
		buf = v.EncodeKey(buf)
	}
	return string(buf)
}

// KeyOn encodes the projection of r onto the given column offsets.
func (r Row) KeyOn(cols []int) string {
	var buf []byte
	for _, c := range cols {
		buf = r[c].EncodeKey(buf)
	}
	return string(buf)
}

// String renders the row as a parenthesised SQL tuple.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// IdenticalRows reports whether two rows are structurally identical
// (same length, Identical values position-wise).
func IdenticalRows(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// CoerceTo attempts to convert v to the target kind, used when inserting
// literals into typed columns (e.g. INTEGER literal into a REAL column).
func (v Value) CoerceTo(k Kind) (Value, error) {
	if v.kind == k || v.kind == KindNull {
		return v, nil
	}
	switch {
	case v.kind == KindInt && k == KindFloat:
		return NewFloat(float64(v.i)), nil
	case v.kind == KindFloat && k == KindInt:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) {
			return NewInt(int64(v.f)), nil
		}
		return Null, fmt.Errorf("sqltypes: cannot coerce %s to INTEGER without loss", v)
	}
	return Null, fmt.Errorf("sqltypes: cannot coerce %s (%s) to %s", v, v.kind, k)
}
