package minic

// voidVal is the placeholder result of void calls; it is never read.
var voidVal = val{reg: -100}

// One resolver decides where every lvalue lives and how code reaches it:
// a variable, *p, s.f, p->f or a[i]. Loads, stores, address-of and
// ++/-- (a load then a store) all read its answer, so the code shape the
// paper measures for each access is decided in one place.

// shape is where a resolved lvalue lives: in a register, or at one of
// four memory operand forms.
type shape uint8

const (
	inReg   shape = iota // a register-allocated local
	atSym                // "sym": a global, gp-relative when small
	atSP                 // "off($sp)": a memory local
	atBase               // "off(base)": *p, s.f, p->f, a[c] and a[i+c]
	atIndex              // "(base+index)": a[i], register+register
)

// lvalue is a resolved lvalue. It holds its base register (and, at
// atIndex, its index register) until release.
type lvalue struct {
	shape shape
	sym   *symbol // atSym
	base  val     // inReg: the local's register; atBase, atIndex: the base
	index val     // atIndex: the scaled index
	off   int     // atSP, atBase
	field bool    // atBase of a struct field: its address takes an addi even at offset 0
}

// resolve emits the code that computes e's base and index registers and
// returns where e lives.
func (g *gen) resolve(e *expr) (lvalue, error) {
	switch e.op {
	case eVar:
		sym := e.sym
		switch {
		case sym.reg >= 0 && sym.isFPReg:
			return lvalue{shape: inReg, base: sfreg(sym.reg)}, nil
		case sym.reg >= 0:
			return lvalue{shape: inReg, base: sreg(sym.reg)}, nil
		case sym.global:
			return lvalue{shape: atSym, sym: sym}, nil
		}
		return lvalue{shape: atSP, off: sym.frameOff}, nil
	case eDeref:
		p, err := g.expr(e.lhs)
		return lvalue{shape: atBase, base: p}, err
	case eField:
		base, err := g.addr(e.lhs)
		return lvalue{shape: atBase, base: base, off: e.field.off, field: true}, err
	case eIndex:
		return g.index(e)
	}
	return lvalue{}, errf(e.line, "internal: op %d is not an lvalue", e.op)
}

// index resolves a[idx]. A constant subscript, or a variable plus a
// constant (the paper's "index constant", a[i+1], through a computed
// pointer), is off(base); a variable alone is (base+index), the shape
// the paper's compiler emits when strength reduction fails or is off.
func (g *gen) index(e *expr) (lvalue, error) {
	base, err := g.expr(e.lhs) // pointer or decayed array -> address
	if err != nil {
		return lvalue{}, err
	}
	size := e.ty.size()
	v, c64 := splitIndex(e.rhs)
	c := int32(c64)
	off := int(c * int32(size))
	if v == nil {
		return lvalue{shape: atBase, base: base, off: off}, nil
	}
	iv, err := g.expr(v)
	if err != nil {
		return lvalue{}, err
	}
	scaled, err := g.scaleIndex(iv, size, e.line)
	if err != nil {
		return lvalue{}, err
	}
	if c == 0 {
		return lvalue{shape: atIndex, base: base, index: scaled}, nil
	}
	sum, err := g.resultReg(base, e.line)
	if err != nil {
		return lvalue{}, err
	}
	g.emit("add %s, %s, %s", g.rn(sum), g.rn(base), g.rn(scaled))
	g.free(scaled)
	return lvalue{shape: atBase, base: sum, off: off}, nil
}

// splitIndex splits a subscript into a variable part and a constant: c,
// v+c, c+v or v-c. v is nil for a constant subscript; any other subscript
// is all variable.
func splitIndex(idx *expr) (v *expr, c int64) {
	switch {
	case idx.op == eIntLit:
		return nil, idx.ival
	case idx.op == eAdd && idx.rhs.op == eIntLit:
		return idx.lhs, idx.rhs.ival
	case idx.op == eAdd && idx.lhs.op == eIntLit:
		return idx.rhs, idx.lhs.ival
	case idx.op == eSub && idx.rhs.op == eIntLit:
		return idx.lhs, -idx.rhs.ival
	}
	return idx, 0
}

// release frees the registers a resolved lvalue holds.
func (g *gen) release(lv lvalue) {
	switch lv.shape {
	case atIndex:
		g.free(lv.index)
		g.free(lv.base)
	case atBase:
		g.free(lv.base)
	}
}

// access emits op (a load or store mnemonic) of v through lv's memory
// operand; the register+register form takes the op's x variant.
func (g *gen) access(op string, v val, lv lvalue) {
	switch lv.shape {
	case atSym:
		g.emit("%s %s, %s", op, g.rn(v), lv.sym.name)
	case atSP:
		g.emit("%s %s, %d($sp)", op, g.rn(v), lv.off)
	case atBase:
		g.emit("%s %s, %d(%s)", op, g.rn(v), lv.off, g.rn(lv.base))
	case atIndex:
		g.emit("%sx %s, (%s+%s)", op, g.rn(v), g.rn(lv.base), g.rn(lv.index))
	}
}

// memOps names the load and store of a value of type t.
func memOps(t *ctype) (load, store string) {
	switch t.kind {
	case tyChar:
		return "lbu", "sb"
	case tyDouble:
		return "lfd", "sfd"
	}
	return "lw", "sw"
}

// load reads an lvalue's value into a register. An aggregate (a struct,
// or an array row) evaluates to its address.
func (g *gen) load(e *expr) (val, error) {
	if !e.ty.isScalar() {
		return g.addr(e)
	}
	lv, err := g.resolve(e)
	if err != nil || lv.shape == inReg {
		return lv.base, err
	}
	var out val
	if e.ty.kind == tyDouble {
		out, err = g.allocFP(e.line)
	} else {
		out, err = g.allocInt(e.line)
	}
	if err != nil {
		return val{}, err
	}
	load, _ := memOps(e.ty)
	g.access(load, out, lv)
	g.release(lv)
	return out, nil
}

// store writes v into the lvalue lhs and returns where the value now
// lives: a register-allocated local's register, v itself otherwise.
func (g *gen) store(lhs *expr, v val) (val, error) {
	lv, err := g.resolve(lhs)
	if err != nil {
		return val{}, err
	}
	if lv.shape == inReg {
		move := "move"
		if lv.base.fp {
			move = "fmov"
		}
		g.emit("%s %s, %s", move, g.rn(lv.base), g.rn(v))
		g.free(v)
		return lv.base, nil
	}
	_, store := memOps(lhs.ty)
	g.access(store, v, lv)
	g.release(lv)
	return v, nil
}

// addr computes an lvalue's address into a register.
func (g *gen) addr(e *expr) (val, error) {
	lv, err := g.resolve(e)
	if err != nil {
		return val{}, err
	}
	switch lv.shape {
	case atSym, atSP:
		v, err := g.allocInt(e.line)
		if err != nil {
			return val{}, err
		}
		if lv.shape == atSym {
			g.emit("la %s, %s", g.rn(v), lv.sym.name)
		} else {
			g.emit("addi %s, $sp, %d", g.rn(v), lv.off)
		}
		return v, nil
	case atBase, atIndex:
		if lv.shape == atBase && lv.off == 0 && !lv.field {
			return lv.base, nil
		}
		out, err := g.resultReg(lv.base, e.line)
		if err != nil {
			return val{}, err
		}
		if lv.shape == atIndex {
			g.emit("add %s, %s, %s", g.rn(out), g.rn(lv.base), g.rn(lv.index))
			g.free(lv.index)
		} else {
			g.emit("addi %s, %s, %d", g.rn(out), g.rn(lv.base), lv.off)
		}
		return out, nil
	}
	return val{}, errf(e.line, "internal: address of a register variable")
}

// assign stores rhs into the lvalue lhs and returns the stored value.
func (g *gen) assign(lhs, rhs *expr) (val, error) {
	v, err := g.expr(rhs)
	if err != nil {
		return val{}, err
	}
	return g.store(lhs, v)
}

// syscallCodes maps the inline builtin functions to syscall numbers.
var syscallCodes = map[string]int{
	"print_int":    1,
	"print_double": 3,
	"print_str":    4,
	"sbrk":         9,
	"exit":         10,
	"print_char":   11,
}

func (g *gen) call(e *expr) (val, error) {
	// Inline syscall builtins.
	if code, ok := syscallCodes[e.fn.name]; ok && e.fn.builtin {
		if len(e.args) == 1 {
			v, err := g.expr(e.args[0])
			if err != nil {
				return val{}, err
			}
			if v.fp {
				g.emit("fmov $f12, %s", g.rn(v))
			} else {
				g.emit("move $a0, %s", g.rn(v))
			}
			g.free(v)
		}
		g.emit("li $v0, %d", code)
		g.emit("syscall")
		if e.fn.ret.kind == tyVoid {
			return voidVal, nil
		}
		out, err := g.allocInt(e.line)
		if err != nil {
			return val{}, err
		}
		g.emit("move %s, $v0", g.rn(out))
		return out, nil
	}

	// Regular call (runtime library functions included).
	slots := argSlots(e.fn)
	argVals := make([]val, len(e.args))
	for i, a := range e.args {
		v, err := g.expr(a)
		if err != nil {
			return val{}, err
		}
		argVals[i] = v
	}
	for i, v := range argVals {
		slot := slots[i]
		switch {
		case slot.intReg >= 0:
			g.emit("move $a%d, %s", slot.intReg, g.rn(v))
		case slot.fpReg >= 0:
			g.emit("fmov $f%d, %s", slot.fpReg, g.rn(v))
		case slot.isFP:
			g.emit("sfd %s, %d($sp)", g.rn(v), slot.stackOff)
		default:
			g.emit("sw %s, %d($sp)", g.rn(v), slot.stackOff)
		}
		g.free(v)
	}

	// Preserve live caller-saved temporaries across the call.
	var savedI, savedF []int
	for i := 0; i < numIntTemps; i++ {
		if g.intInUse[i] {
			g.emit("sw $t%d, %d($sp)", i, g.spillBase+i*4)
			savedI = append(savedI, i)
		}
	}
	for i := 0; i < numFPTemps; i++ {
		if g.fpInUse[i] {
			g.emit("sfd $f%d, %d($sp)", i*2, g.spillBase+numIntTemps*4+i*8)
			savedF = append(savedF, i)
		}
	}

	g.emit("jal %s", e.fn.name)

	for _, i := range savedI {
		g.emit("lw $t%d, %d($sp)", i, g.spillBase+i*4)
	}
	for _, i := range savedF {
		g.emit("lfd $f%d, %d($sp)", i*2, g.spillBase+numIntTemps*4+i*8)
	}

	switch {
	case e.fn.ret.kind == tyVoid:
		return voidVal, nil
	case e.fn.ret.kind == tyDouble:
		out, err := g.allocFP(e.line)
		if err != nil {
			return val{}, err
		}
		g.emit("fmov %s, $f0", g.rn(out))
		return out, nil
	default:
		out, err := g.allocInt(e.line)
		if err != nil {
			return val{}, err
		}
		g.emit("move %s, $v0", g.rn(out))
		return out, nil
	}
}

func (g *gen) cvt(e *expr) (val, error) {
	v, err := g.expr(e.lhs)
	if err != nil {
		return val{}, err
	}
	if e.ty.kind == tyDouble && !v.fp {
		out, err := g.allocFP(e.line)
		if err != nil {
			return val{}, err
		}
		g.emit("mtc1 %s, %s", g.rn(out), g.rn(v))
		g.emit("cvtdw %s, %s", g.rn(out), g.rn(out))
		g.free(v)
		return out, nil
	}
	if e.ty.kind != tyDouble && v.fp {
		out, err := g.allocInt(e.line)
		if err != nil {
			return val{}, err
		}
		g.emit("cvtwd $f18, %s", g.rn(v))
		g.emit("mfc1 %s, $f18", g.rn(out))
		g.free(v)
		return out, nil
	}
	return v, nil
}

func (g *gen) addSub(e *expr) (val, error) {
	ld := e.lhs.ty.decay()
	// Pointer arithmetic.
	if ld.isPtr() {
		if e.op == eSub && e.rhs.ty.decay().isPtr() {
			return g.ptrDiff(e)
		}
		return g.ptrOffset(e)
	}
	if e.ty.kind == tyDouble {
		return g.fpBinary(e)
	}
	// Integer add/sub with immediate folding.
	lv, err := g.expr(e.lhs)
	if err != nil {
		return val{}, err
	}
	if e.rhs.op == eIntLit {
		c := int32(e.rhs.ival)
		if e.op == eSub {
			c = -c
		}
		if c >= -32768 && c <= 32767 {
			out, err := g.resultReg(lv, e.line)
			if err != nil {
				return val{}, err
			}
			g.emit("addi %s, %s, %d", g.rn(out), g.rn(lv), c)
			if out != lv {
				g.free(lv)
			}
			return out, nil
		}
	}
	rv, err := g.expr(e.rhs)
	if err != nil {
		return val{}, err
	}
	out, err := g.resultReg(lv, e.line)
	if err != nil {
		return val{}, err
	}
	op := "add"
	if e.op == eSub {
		op = "sub"
	}
	g.emit("%s %s, %s, %s", op, g.rn(out), g.rn(lv), g.rn(rv))
	g.free(rv)
	if out != lv {
		g.free(lv)
	}
	return out, nil
}

// ptrOffset emits p +/- i with element-size scaling.
func (g *gen) ptrOffset(e *expr) (val, error) {
	elem := e.lhs.ty.decay().elem
	size := elem.size()
	pv, err := g.expr(e.lhs)
	if err != nil {
		return val{}, err
	}
	if e.rhs.op == eIntLit {
		c := int32(e.rhs.ival) * int32(size)
		if e.op == eSub {
			c = -c
		}
		if c >= -32768 && c <= 32767 {
			out, err := g.resultReg(pv, e.line)
			if err != nil {
				return val{}, err
			}
			g.emit("addi %s, %s, %d", g.rn(out), g.rn(pv), c)
			if out != pv {
				g.free(pv)
			}
			return out, nil
		}
	}
	iv, err := g.expr(e.rhs)
	if err != nil {
		return val{}, err
	}
	scaled, err := g.scaleIndex(iv, size, e.line)
	if err != nil {
		return val{}, err
	}
	out, err := g.resultReg(pv, e.line)
	if err != nil {
		return val{}, err
	}
	op := "add"
	if e.op == eSub {
		op = "sub"
	}
	g.emit("%s %s, %s, %s", op, g.rn(out), g.rn(pv), g.rn(scaled))
	g.free(scaled)
	if out != pv {
		g.free(pv)
	}
	return out, nil
}

func (g *gen) ptrDiff(e *expr) (val, error) {
	size := e.lhs.ty.decay().elem.size()
	lv, err := g.expr(e.lhs)
	if err != nil {
		return val{}, err
	}
	rv, err := g.expr(e.rhs)
	if err != nil {
		return val{}, err
	}
	out, err := g.resultReg(lv, e.line)
	if err != nil {
		return val{}, err
	}
	g.emit("sub %s, %s, %s", g.rn(out), g.rn(lv), g.rn(rv))
	g.free(rv)
	if out != lv {
		g.free(lv)
	}
	if size > 1 {
		if size&(size-1) == 0 {
			g.emit("sra %s, %s, %d", g.rn(out), g.rn(out), log2i(size))
		} else {
			g.emit("li $t8, %d", size)
			g.emit("div %s, %s, $t8", g.rn(out), g.rn(out))
		}
	}
	return out, nil
}

func (g *gen) fpBinary(e *expr) (val, error) {
	lv, err := g.expr(e.lhs)
	if err != nil {
		return val{}, err
	}
	rv, err := g.expr(e.rhs)
	if err != nil {
		return val{}, err
	}
	out, err := g.resultReg(lv, e.line)
	if err != nil {
		return val{}, err
	}
	var op string
	switch e.op {
	case eAdd:
		op = "fadd"
	case eSub:
		op = "fsub"
	case eMul:
		op = "fmul"
	case eDiv:
		op = "fdiv"
	default:
		return val{}, errf(e.line, "internal: fp op %d", e.op)
	}
	g.emit("%s %s, %s, %s", op, g.rn(out), g.rn(lv), g.rn(rv))
	g.free(rv)
	if out != lv {
		g.free(lv)
	}
	return out, nil
}

var intBinOps = map[exprOp]struct {
	op    string
	immOp string // "" if no immediate form
}{
	eMul:    {"mul", ""},
	eDiv:    {"div", ""},
	eMod:    {"rem", ""},
	eShl:    {"sllv", "sll"},
	eShr:    {"srav", "sra"},
	eBitAnd: {"and", "andi"},
	eBitOr:  {"or", "ori"},
	eBitXor: {"xor", "xori"},
}

func (g *gen) binary(e *expr) (val, error) {
	if e.ty.kind == tyDouble {
		return g.fpBinary(e)
	}
	info := intBinOps[e.op]
	lv, err := g.expr(e.lhs)
	if err != nil {
		return val{}, err
	}
	// Immediate forms.
	if e.rhs.op == eIntLit && info.immOp != "" {
		c := e.rhs.ival
		inRange := c >= 0 && c <= 0xFFFF
		if e.op == eShl || e.op == eShr {
			inRange = c >= 0 && c <= 31
		}
		if inRange {
			out, err := g.resultReg(lv, e.line)
			if err != nil {
				return val{}, err
			}
			g.emit("%s %s, %s, %d", info.immOp, g.rn(out), g.rn(lv), c)
			if out != lv {
				g.free(lv)
			}
			return out, nil
		}
	}
	// Multiplication by a power-of-two constant becomes a shift.
	if e.op == eMul && e.rhs.op == eIntLit && e.rhs.ival > 0 && e.rhs.ival&(e.rhs.ival-1) == 0 {
		out, err := g.resultReg(lv, e.line)
		if err != nil {
			return val{}, err
		}
		g.emit("sll %s, %s, %d", g.rn(out), g.rn(lv), log2i(int(e.rhs.ival)))
		if out != lv {
			g.free(lv)
		}
		return out, nil
	}
	rv, err := g.expr(e.rhs)
	if err != nil {
		return val{}, err
	}
	out, err := g.resultReg(lv, e.line)
	if err != nil {
		return val{}, err
	}
	g.emit("%s %s, %s, %s", info.op, g.rn(out), g.rn(lv), g.rn(rv))
	g.free(rv)
	if out != lv {
		g.free(lv)
	}
	return out, nil
}

// boolValue materializes a 0/1 result.
func (g *gen) boolValue(e *expr) (val, error) {
	switch e.op {
	case eLt, eLe, eGt, eGe, eEq, eNe:
		l, r := e.lhs.ty.decay(), e.rhs.ty.decay()
		if l.kind != tyDouble && r.kind != tyDouble {
			return g.intCmpValue(e, l.isPtr() || r.isPtr())
		}
	}
	// General branchy materialization (doubles, &&, ||, !).
	out, err := g.allocInt(e.line)
	if err != nil {
		return val{}, err
	}
	done := g.newLabel()
	g.emit("li %s, 1", g.rn(out))
	if err := g.branchTrue(e, done); err != nil {
		return val{}, err
	}
	g.emit("li %s, 0", g.rn(out))
	g.label(done)
	return out, nil
}

func (g *gen) intCmpValue(e *expr, unsigned bool) (val, error) {
	lv, err := g.expr(e.lhs)
	if err != nil {
		return val{}, err
	}
	rv, err := g.expr(e.rhs)
	if err != nil {
		return val{}, err
	}
	slt := "slt"
	if unsigned {
		slt = "sltu"
	}
	out, err := g.allocInt(e.line)
	if err != nil {
		return val{}, err
	}
	o, a, b := g.rn(out), g.rn(lv), g.rn(rv)
	switch e.op {
	case eLt:
		g.emit("%s %s, %s, %s", slt, o, a, b)
	case eGt:
		g.emit("%s %s, %s, %s", slt, o, b, a)
	case eLe:
		g.emit("%s %s, %s, %s", slt, o, b, a)
		g.emit("xori %s, %s, 1", o, o)
	case eGe:
		g.emit("%s %s, %s, %s", slt, o, a, b)
		g.emit("xori %s, %s, 1", o, o)
	case eEq:
		g.emit("xor %s, %s, %s", o, a, b)
		g.emit("sltiu %s, %s, 1", o, o)
	case eNe:
		g.emit("xor %s, %s, %s", o, a, b)
		g.emit("sltu %s, $zero, %s", o, o)
	}
	g.free(lv)
	g.free(rv)
	return out, nil
}

// condValue materializes "cond ? a : b" through branches.
func (g *gen) condValue(e *expr) (val, error) {
	var out val
	var err error
	if e.ty.kind == tyDouble {
		out, err = g.allocFP(e.line)
	} else {
		out, err = g.allocInt(e.line)
	}
	if err != nil {
		return val{}, err
	}
	elseL, doneL := g.newLabel(), g.newLabel()
	if err := g.branchFalse(e.lhs, elseL); err != nil {
		return val{}, err
	}
	tv, err := g.expr(e.args[0])
	if err != nil {
		return val{}, err
	}
	if out.fp {
		g.emit("fmov %s, %s", g.rn(out), g.rn(tv))
	} else {
		g.emit("move %s, %s", g.rn(out), g.rn(tv))
	}
	g.free(tv)
	g.emit("j %s", doneL)
	g.label(elseL)
	ev, err := g.expr(e.args[1])
	if err != nil {
		return val{}, err
	}
	if out.fp {
		g.emit("fmov %s, %s", g.rn(out), g.rn(ev))
	} else {
		g.emit("move %s, %s", g.rn(out), g.rn(ev))
	}
	g.free(ev)
	g.label(doneL)
	return out, nil
}

// postIncDec implements lhs++ / lhs-- (the result is the old value).
func (g *gen) postIncDec(e *expr, negative bool) (val, error) {
	delta := int32(1)
	if t := e.lhs.ty.decay(); t.isPtr() {
		delta = int32(t.elem.size())
	}
	if negative {
		delta = -delta
	}
	cur, err := g.load(e.lhs)
	if err != nil {
		return val{}, err
	}
	old, err := g.allocInt(e.line)
	if err != nil {
		return val{}, err
	}
	g.emit("move %s, %s", g.rn(old), g.rn(cur))
	if cur.isTemp() {
		g.emit("addi %s, %s, %d", g.rn(cur), g.rn(cur), delta)
		if _, err := g.store(e.lhs, cur); err != nil {
			return val{}, err
		}
		g.free(cur)
		return old, nil
	}
	nv, err := g.allocInt(e.line)
	if err != nil {
		return val{}, err
	}
	g.emit("addi %s, %s, %d", g.rn(nv), g.rn(cur), delta)
	if _, err := g.store(e.lhs, nv); err != nil {
		return val{}, err
	}
	g.free(nv)
	return old, nil
}
