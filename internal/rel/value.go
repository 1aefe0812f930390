// Package rel implements an in-memory relational storage and algebra layer.
//
// It is the bottom substrate of the coherdb reproduction: a small,
// dependency-free relational engine with SQL-style NULL semantics, hash
// indexes and the classical operators (selection, projection, cross product,
// natural and equi-joins, union, difference, distinct). The SQL dialect in
// package sqlmini and the constraint solver in package constraint are built
// on top of it.
//
// Values are dynamically typed, like SQLite: a column may hold strings,
// integers, booleans or NULL. In the coherence-protocol tables of the paper
// all domains are symbolic strings plus NULL, where NULL denotes "dontcare"
// for input columns and "noop" for output columns.
package rel

import (
	"fmt"
	"strconv"
)

// Kind enumerates the dynamic types a Value can hold.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindBool
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single dynamically typed relational value. The zero Value is
// NULL, so freshly allocated rows are valid.
type Value struct {
	kind Kind
	s    string
	i    int64
	b    bool
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// S returns a string value.
func S(s string) Value { return Value{kind: KindString, s: s} }

// I returns an integer value.
func I(i int64) Value { return Value{kind: KindInt, i: i} }

// B returns a boolean value.
func B(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It returns "" for non-string values.
func (v Value) Str() string {
	if v.kind == KindString {
		return v.s
	}
	return ""
}

// Int returns the integer payload. It returns 0 for non-integer values.
func (v Value) Int() int64 {
	if v.kind == KindInt {
		return v.i
	}
	return 0
}

// Bool returns the boolean payload. It returns false for non-boolean values.
func (v Value) Bool() bool {
	if v.kind == KindBool {
		return v.b
	}
	return false
}

// Truthy reports whether v counts as true in a WHERE clause: non-NULL and
// either boolean true, a nonzero integer, or a nonempty string.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindInt:
		return v.i != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// Equal reports strict equality: same kind and same payload. NULL equals
// NULL under this definition (needed for row identity, DISTINCT, UNION);
// three-valued SQL comparison semantics live in the expression evaluator.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == o.s
	case KindInt:
		return v.i == o.i
	case KindBool:
		return v.b == o.b
	}
	return false
}

// Compare orders values for ORDER BY and sorting: NULL < bool < int < string,
// with natural ordering inside each kind. It returns -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		return int(kindRank(v.kind)) - int(kindRank(o.kind))
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return boolCmp(v.b, o.b)
	case KindInt:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	}
	return 0
}

func kindRank(k Kind) uint8 {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt:
		return 2
	case KindString:
		return 3
	}
	return 4
}

func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// Key returns an injective string encoding of v, usable as a map key for
// hashing rows. Distinct values always produce distinct keys.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindString:
		return "s" + v.s
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindBool:
		if v.b {
			return "b1"
		}
		return "b0"
	}
	return "?"
}

// AppendKey appends the Key encoding of v to dst and returns it, letting
// hot paths (the solver's projection memo, row hashing) build composite
// keys without one allocation per value.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 'n')
	case KindString:
		return append(append(dst, 's'), v.s...)
	case KindInt:
		return strconv.AppendInt(append(dst, 'i'), v.i, 10)
	case KindBool:
		if v.b {
			return append(dst, 'b', '1')
		}
		return append(dst, 'b', '0')
	}
	return append(dst, '?')
}

// String renders the value for display: NULL prints as "NULL", strings print
// bare, integers and booleans in their natural form.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Quoted renders the value as a SQL literal: strings are single-quoted with
// embedded quotes doubled, other kinds as in String.
func (v Value) Quoted() string {
	if v.kind != KindString {
		return v.String()
	}
	out := make([]byte, 0, len(v.s)+2)
	out = append(out, '\'')
	for i := 0; i < len(v.s); i++ {
		if v.s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, v.s[i])
		}
	}
	out = append(out, '\'')
	return string(out)
}
