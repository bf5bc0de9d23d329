// Package types defines the scalar type system shared by every layer of the
// SciQL engine: the storage kernel (internal/bat), the algebra kernels
// (internal/gdk), the SQL/SciQL compiler (internal/sql, internal/rel) and the
// MAL interpreter (internal/mal).
//
// Physically the engine uses a small set of kernel types, mirroring MonetDB's
// atom types: 64-bit integers, 64-bit floats, booleans, strings and OIDs
// (row identifiers). SQL-level types (INT, BIGINT, DOUBLE, VARCHAR, ...) map
// onto these kernel types.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the kernel types.
type Kind uint8

const (
	// KindVoid is the type of a virtual, dense OID column (a "void head" in
	// MonetDB terms): the i-th value is seqbase+i and is never materialised.
	KindVoid Kind = iota
	// KindOID is a materialised row identifier (unsigned 64-bit, stored as int64).
	KindOID
	// KindInt is a 64-bit signed integer; all SQL integer types map here.
	KindInt
	// KindFloat is a 64-bit IEEE float; REAL/DOUBLE map here.
	KindFloat
	// KindBool is a boolean.
	KindBool
	// KindStr is a variable-length string.
	KindStr
)

// String returns the MAL-style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindOID:
		return "oid"
	case KindInt:
		return "lng"
	case KindFloat:
		return "dbl"
	case KindBool:
		return "bit"
	case KindStr:
		return "str"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind supports arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat || k == KindOID }

// OID is a row identifier. MonetDB's BATs map OIDs to values; in this engine
// an OID is always a position (possibly offset by a seqbase).
type OID = uint64

// SQLType is a SQL-level type as written in DDL, carrying display information
// on top of the kernel Kind.
type SQLType struct {
	Name string // canonical SQL name: INT, BIGINT, DOUBLE, VARCHAR, ...
	Kind Kind
}

// Common SQL types.
var (
	SQLTinyInt  = SQLType{"TINYINT", KindInt}
	SQLSmallInt = SQLType{"SMALLINT", KindInt}
	SQLInt      = SQLType{"INT", KindInt}
	SQLBigInt   = SQLType{"BIGINT", KindInt}
	SQLReal     = SQLType{"REAL", KindFloat}
	SQLDouble   = SQLType{"DOUBLE", KindFloat}
	SQLBoolean  = SQLType{"BOOLEAN", KindBool}
	SQLVarchar  = SQLType{"VARCHAR", KindStr}
	SQLText     = SQLType{"TEXT", KindStr}
	SQLOID      = SQLType{"OID", KindOID}
)

// SQLTypeByName resolves a SQL type name (case-insensitive) to a SQLType.
// It returns false if the name is not a supported type.
func SQLTypeByName(name string) (SQLType, bool) {
	switch strings.ToUpper(name) {
	case "TINYINT":
		return SQLTinyInt, true
	case "SMALLINT":
		return SQLSmallInt, true
	case "INT", "INTEGER":
		return SQLInt, true
	case "BIGINT":
		return SQLBigInt, true
	case "REAL", "FLOAT":
		return SQLReal, true
	case "DOUBLE":
		return SQLDouble, true
	case "BOOLEAN", "BOOL":
		return SQLBoolean, true
	case "VARCHAR", "CHAR", "STRING", "TEXT", "CLOB":
		return SQLVarchar, true
	case "OID":
		return SQLOID, true
	default:
		return SQLType{}, false
	}
}

// Value is a scalar runtime value: one of int64, float64, bool, string, OID
// or NULL. The zero Value is NULL.
type Value struct {
	kind Kind
	null bool
	i    int64
	f    float64
	b    bool
	s    string
	set  bool // distinguishes the zero Value (NULL of unknown kind)
}

// Null returns a NULL value of kind k.
func Null(k Kind) Value { return Value{kind: k, null: true, set: true} }

// NullUnknown returns a NULL with no kind information (e.g. a bare NULL literal).
func NullUnknown() Value { return Value{null: true} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v, set: true} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v, set: true} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v, set: true} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindStr, s: v, set: true} }

// Oid returns an OID value.
func Oid(v OID) Value { return Value{kind: KindOID, i: int64(v), set: true} }

// Kind returns the value's kind. For the untyped NULL it returns KindVoid.
func (v Value) Kind() Kind {
	if !v.set {
		return KindVoid
	}
	return v.kind
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.null || !v.set }

// Int64 returns the integer payload; valid only for KindInt/KindOID non-NULL values.
func (v Value) Int64() int64 { return v.i }

// Float64 returns the float payload; valid only for KindFloat non-NULL values.
func (v Value) Float64() float64 { return v.f }

// BoolVal returns the boolean payload; valid only for KindBool non-NULL values.
func (v Value) BoolVal() bool { return v.b }

// StrVal returns the string payload; valid only for KindStr non-NULL values.
func (v Value) StrVal() string { return v.s }

// AsFloat converts a numeric value to float64.
func (v Value) AsFloat() (float64, error) {
	if v.IsNull() {
		return 0, fmt.Errorf("NULL has no float value")
	}
	switch v.kind {
	case KindInt, KindOID:
		return float64(v.i), nil
	case KindFloat:
		return v.f, nil
	default:
		return 0, fmt.Errorf("cannot convert %s to float", v.kind)
	}
}

// AsInt converts a numeric value to int64, truncating floats toward zero.
func (v Value) AsInt() (int64, error) {
	if v.IsNull() {
		return 0, fmt.Errorf("NULL has no int value")
	}
	switch v.kind {
	case KindInt, KindOID:
		return v.i, nil
	case KindFloat:
		return FloatToInt(v.f)
	default:
		return 0, fmt.Errorf("cannot convert %s to int", v.kind)
	}
}

// FloatToInt truncates f toward zero. NaN and values outside [-2^63, 2^63)
// are out of integer range; the upper bound is written as a power of two
// because math.MaxInt64 rounds up to 2^63 as a float64, which would let
// 2^63 itself through and wrap.
func FloatToInt(f float64) (int64, error) {
	if math.IsNaN(f) || f >= 0x1p63 || f < -0x1p63 {
		return 0, fmt.Errorf("float %v out of integer range", f)
	}
	return int64(f), nil
}

// ParseInt is CAST(string AS integer): a base-10 integer, surrounding
// spaces ignored.
func ParseInt(s string) (int64, error) {
	i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cannot cast %q to integer", s)
	}
	return i, nil
}

// ParseFloat is CAST(string AS double), surrounding spaces ignored.
func ParseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("cannot cast %q to double", s)
	}
	return f, nil
}

// ParseBool is CAST(string AS boolean): true/t/1 and false/f/0 in any
// case, surrounding spaces ignored.
func ParseBool(s string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "true", "t", "1":
		return true, nil
	case "false", "f", "0":
		return false, nil
	}
	return false, fmt.Errorf("cannot cast %q to boolean", s)
}

// IntToOID is CAST(integer AS oid): negative values name no row.
func IntToOID(i int64) (int64, error) {
	if i < 0 {
		return 0, fmt.Errorf("negative value %d cannot be an oid", i)
	}
	return i, nil
}

// Equal reports deep equality (NULL equals NULL here; SQL comparison
// semantics live in the gdk kernels, not in this method).
func (v Value) Equal(o Value) bool {
	if v.IsNull() || o.IsNull() {
		return v.IsNull() == o.IsNull()
	}
	if v.kind != o.kind {
		// Numeric cross-kind equality.
		if v.kind.Numeric() && o.kind.Numeric() {
			a, _ := v.AsFloat()
			b, _ := o.AsFloat()
			return a == b
		}
		return false
	}
	switch v.kind {
	case KindInt, KindOID:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f
	case KindBool:
		return v.b == o.b
	case KindStr:
		return v.s == o.s
	default:
		return true
	}
}

// Compare orders two non-NULL values of compatible kinds: -1, 0, +1.
// NULL sorts before everything (MonetDB convention).
func (v Value) Compare(o Value) int {
	if v.IsNull() {
		if o.IsNull() {
			return 0
		}
		return -1
	}
	if o.IsNull() {
		return 1
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		if v.kind == KindFloat || o.kind == KindFloat {
			a, _ := v.AsFloat()
			b, _ := o.AsFloat()
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		default:
			return 0
		}
	}
	switch v.kind {
	case KindBool:
		a, b := 0, 0
		if v.b {
			a = 1
		}
		if o.b {
			b = 1
		}
		return a - b
	case KindStr:
		return strings.Compare(v.s, o.s)
	default:
		return 0
	}
}

// Cast converts v to kind k following SQL CAST semantics. NULL casts to NULL.
func (v Value) Cast(k Kind) (Value, error) {
	if v.IsNull() {
		return Null(k), nil
	}
	if v.kind == k {
		return v, nil
	}
	switch k {
	case KindInt:
		switch v.kind {
		case KindFloat:
			i, err := FloatToInt(v.f)
			if err != nil {
				return Value{}, err
			}
			return Int(i), nil
		case KindOID:
			return Int(v.i), nil
		case KindBool:
			if v.b {
				return Int(1), nil
			}
			return Int(0), nil
		case KindStr:
			i, err := ParseInt(v.s)
			if err != nil {
				return Value{}, err
			}
			return Int(i), nil
		}
	case KindFloat:
		switch v.kind {
		case KindInt, KindOID:
			return Float(float64(v.i)), nil
		case KindBool:
			if v.b {
				return Float(1), nil
			}
			return Float(0), nil
		case KindStr:
			f, err := ParseFloat(v.s)
			if err != nil {
				return Value{}, err
			}
			return Float(f), nil
		}
	case KindBool:
		switch v.kind {
		case KindInt, KindOID:
			return Bool(v.i != 0), nil
		case KindFloat:
			return Bool(v.f != 0), nil
		case KindStr:
			b, err := ParseBool(v.s)
			if err != nil {
				return Value{}, err
			}
			return Bool(b), nil
		}
	case KindStr:
		return Str(v.String()), nil
	case KindOID:
		switch v.kind {
		case KindInt:
			i, err := IntToOID(v.i)
			if err != nil {
				return Value{}, err
			}
			return Oid(OID(i)), nil
		}
	}
	return Value{}, fmt.Errorf("unsupported cast from %s to %s", v.kind, k)
}

// String renders the value in SQL result style. NULL renders as "null".
func (v Value) String() string {
	if v.IsNull() {
		return "null"
	}
	switch v.kind {
	case KindInt, KindOID:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return FormatFloat(v.f)
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindStr:
		return v.s
	default:
		return "?"
	}
}

// FormatFloat renders a float in the shortest form that round-trips.
func FormatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// CommonKind returns the kind both operands should be promoted to for
// arithmetic or comparison, or an error when incompatible.
func CommonKind(a, b Kind) (Kind, error) {
	if a == b {
		return a, nil
	}
	// Untyped NULL adopts the other side.
	if a == KindVoid {
		return b, nil
	}
	if b == KindVoid {
		return a, nil
	}
	if a.Numeric() && b.Numeric() {
		if a == KindFloat || b == KindFloat {
			return KindFloat, nil
		}
		return KindInt, nil
	}
	return 0, fmt.Errorf("incompatible types %s and %s", a, b)
}
