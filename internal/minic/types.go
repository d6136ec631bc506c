package minic

import "fmt"

type typeKind uint8

const (
	tyVoid typeKind = iota
	tyInt
	tyChar
	tyDouble
	tyPtr
	tyArray
	tyStruct
)

// ctype is a MiniC type.
type ctype struct {
	kind typeKind
	elem *ctype   // pointer target / array element
	n    int      // array length
	sdef *structT // struct definition
}

type structT struct {
	name   string
	fields []field
	size   int // laid-out size (possibly padded to a power of two, §4)
	align  int
}

type field struct {
	name string
	ty   *ctype
	off  int
}

var (
	typeVoid   = &ctype{kind: tyVoid}
	typeInt    = &ctype{kind: tyInt}
	typeChar   = &ctype{kind: tyChar}
	typeDouble = &ctype{kind: tyDouble}
)

func ptrTo(t *ctype) *ctype { return &ctype{kind: tyPtr, elem: t} }
func arrayOf(t *ctype, n int) *ctype {
	return &ctype{kind: tyArray, elem: t, n: n}
}

func (t *ctype) String() string {
	switch t.kind {
	case tyVoid:
		return "void"
	case tyInt:
		return "int"
	case tyChar:
		return "char"
	case tyDouble:
		return "double"
	case tyPtr:
		return t.elem.String() + "*"
	case tyArray:
		return fmt.Sprintf("%s[%d]", t.elem, t.n)
	case tyStruct:
		return "struct " + t.sdef.name
	}
	return "?"
}

func (t *ctype) size() int {
	switch t.kind {
	case tyInt, tyPtr:
		return 4
	case tyChar:
		return 1
	case tyDouble:
		return 8
	case tyArray:
		return t.elem.size() * t.n
	case tyStruct:
		return t.sdef.size
	}
	return 0
}

func (t *ctype) alignment() int {
	switch t.kind {
	case tyInt, tyPtr:
		return 4
	case tyChar:
		return 1
	case tyDouble:
		return 8
	case tyArray:
		return t.elem.alignment()
	case tyStruct:
		return t.sdef.align
	}
	return 1
}

func (t *ctype) isNumeric() bool {
	return t.kind == tyInt || t.kind == tyChar || t.kind == tyDouble
}

func (t *ctype) isInteger() bool { return t.kind == tyInt || t.kind == tyChar }

func (t *ctype) isPtr() bool { return t.kind == tyPtr }

func (t *ctype) isScalar() bool {
	return t.isNumeric() || t.isPtr()
}

// decay converts array types to pointers (for expression contexts).
func (t *ctype) decay() *ctype {
	if t.kind == tyArray {
		return ptrTo(t.elem)
	}
	return t
}

// compatible reports whether a value of type b can be used where a is
// expected. Pointer types convert freely (the language has no casts);
// numeric types convert with the usual arithmetic conversions.
func compatible(a, b *ctype) bool {
	a, b = a.decay(), b.decay()
	if a.isNumeric() && b.isNumeric() {
		return true
	}
	if a.isPtr() && b.isPtr() {
		return true
	}
	if a.isPtr() && b.isInteger() { // p = 0
		return true
	}
	if a.isInteger() && b.isPtr() {
		return true
	}
	if a.kind == tyStruct && b.kind == tyStruct && a.sdef == b.sdef {
		return true
	}
	return false
}

// layoutStruct assigns field offsets. With pow2Pad (the paper's structured
// variable alignment support), the struct size is rounded up to the next
// power of two, with the overhead capped at maxStructPad bytes; internal
// field offsets are never changed (dense structures beat stricter internal
// alignment, Section 4).
func layoutStruct(s *structT, pow2Pad bool) {
	off := 0
	align := 1
	for i := range s.fields {
		f := &s.fields[i]
		a := f.ty.alignment()
		if a > align {
			align = a
		}
		off = alignInt(off, a)
		f.off = off
		off += f.ty.size()
	}
	s.align = align
	s.size = alignInt(off, align)
	if p := pow2Ceil(s.size); pow2Pad && p-s.size <= maxStructPad {
		s.size = p
	}
}

func alignInt(v, a int) int {
	if a <= 1 {
		return v
	}
	return (v + a - 1) &^ (a - 1)
}

// pow2Ceil returns the smallest power of two >= v (v > 0).
func pow2Ceil(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}
