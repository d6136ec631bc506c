package minic

type parser struct {
	toks []token
	pos  int
	u    *unit
	opts Options
}

// parse parses a translation unit: the runtime prelude, then the user's
// source, whose lines diagnostics number from 1.
func parse(prelude, src string, opts Options) (*unit, error) {
	toks, err := lex(prelude, src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks: toks,
		opts: opts,
		u: &unit{
			structs: make(map[string]*structT),
			funcs:   make(map[string]*function),
		},
	}
	declareBuiltins(p.u)
	for !p.atEOF() {
		if err := p.topLevel(); err != nil {
			return nil, err
		}
	}
	return p.u, nil
}

func declareBuiltins(u *unit) {
	b := func(name string, ret *ctype, params ...*ctype) {
		f := &function{name: name, ret: ret, builtin: true}
		for i, t := range params {
			f.params = append(f.params, param{name: string(rune('a' + i)), ty: t})
		}
		u.funcs[name] = f
	}
	charp := ptrTo(typeChar)
	// Only the inline-syscall builtins are predeclared; the rest of the
	// runtime (malloc, rand, memcpy, ...) is MiniC source in the prelude.
	b("print_int", typeVoid, typeInt)
	b("print_char", typeVoid, typeInt)
	b("print_str", typeVoid, charp)
	b("print_double", typeVoid, typeDouble)
	b("exit", typeVoid, typeInt)
	b("sbrk", charp, typeInt)
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tEOF }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == tPunct && t.text == s
}

func (p *parser) isKeyword(s string) bool {
	t := p.cur()
	return t.kind == tKeyword && t.text == s
}

func (p *parser) accept(s string) bool {
	if p.isPunct(s) || p.isKeyword(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(s string) error {
	if p.accept(s) {
		return nil
	}
	return errf(p.cur().line, "expected %q, got %q", s, p.cur().String())
}

// atType reports whether the current token starts a type.
func (p *parser) atType() bool {
	return p.isKeyword("int") || p.isKeyword("char") || p.isKeyword("double") ||
		p.isKeyword("void") || p.isKeyword("struct")
}

// baseType parses "int", "char", "double", "void", or "struct Name".
func (p *parser) baseType() (*ctype, error) {
	t := p.cur()
	switch {
	case p.accept("int"):
		return typeInt, nil
	case p.accept("char"):
		return typeChar, nil
	case p.accept("double"):
		return typeDouble, nil
	case p.accept("void"):
		return typeVoid, nil
	case p.accept("struct"):
		name := p.cur()
		if name.kind != tIdent {
			return nil, errf(name.line, "expected struct name")
		}
		p.advance()
		s, ok := p.u.structs[name.text]
		if !ok {
			return nil, errf(name.line, "unknown struct %q", name.text)
		}
		return &ctype{kind: tyStruct, sdef: s}, nil
	}
	return nil, errf(t.line, "expected type, got %q", t.String())
}

// declarator parses "*...name[N][M]..." after a base type.
func (p *parser) declarator(base *ctype) (string, *ctype, error) {
	ty := base
	for p.accept("*") {
		ty = ptrTo(ty)
	}
	nameTok := p.cur()
	if nameTok.kind != tIdent {
		return "", nil, errf(nameTok.line, "expected identifier, got %q", nameTok.String())
	}
	p.advance()
	// Array suffixes, outermost first.
	var dims []int
	for p.accept("[") {
		n := p.cur()
		if n.kind != tIntLit || n.ival <= 0 {
			return "", nil, errf(n.line, "expected positive array length")
		}
		p.advance()
		if err := p.expect("]"); err != nil {
			return "", nil, err
		}
		dims = append(dims, int(n.ival))
	}
	for i := len(dims) - 1; i >= 0; i-- {
		ty = arrayOf(ty, dims[i])
	}
	return nameTok.text, ty, nil
}

// topLevel parses a struct definition, global variable, or function.
func (p *parser) topLevel() error {
	line := p.cur().line
	// struct S { ... };
	if p.isKeyword("struct") && p.toks[p.pos+2].kind == tPunct && p.toks[p.pos+2].text == "{" {
		return p.structDef()
	}
	base, err := p.baseType()
	if err != nil {
		return err
	}
	name, ty, err := p.declarator(base)
	if err != nil {
		return err
	}
	if p.isPunct("(") {
		return p.funcDef(name, ty, line)
	}
	// Global variable(s).
	for {
		if ty.kind == tyVoid {
			return errf(line, "void variable %q", name)
		}
		sym := &symbol{name: name, ty: ty, global: true, reg: -1}
		if p.accept("=") {
			if err := p.globalInit(sym); err != nil {
				return err
			}
		}
		if dup := p.findGlobal(name); dup != nil {
			return errf(line, "duplicate global %q", name)
		}
		p.u.globals = append(p.u.globals, sym)
		if p.accept(",") {
			name, ty, err = p.declarator(base)
			if err != nil {
				return err
			}
			continue
		}
		return p.expect(";")
	}
}

func (p *parser) findGlobal(name string) *symbol {
	for _, g := range p.u.globals {
		if g.name == name {
			return g
		}
	}
	return nil
}

func (p *parser) globalInit(sym *symbol) error {
	t := p.cur()
	neg := false
	if p.accept("-") {
		neg = true
		t = p.cur()
	}
	switch t.kind {
	case tIntLit, tCharLit:
		p.advance()
		v := t.ival
		if neg {
			v = -v
		}
		if sym.ty.kind == tyDouble {
			sym.initF, sym.hasInit = float64(v), true
		} else {
			sym.initI, sym.hasInit = v, true
		}
		return nil
	case tFloatLit:
		p.advance()
		v := t.fval
		if neg {
			v = -v
		}
		if sym.ty.kind != tyDouble {
			return errf(t.line, "float initializer for non-double %q", sym.name)
		}
		sym.initF, sym.hasInit = v, true
		return nil
	}
	return errf(t.line, "unsupported global initializer")
}

func (p *parser) structDef() error {
	p.advance() // struct
	nameTok := p.advance()
	if nameTok.kind != tIdent {
		return errf(nameTok.line, "expected struct name")
	}
	if _, dup := p.u.structs[nameTok.text]; dup {
		return errf(nameTok.line, "duplicate struct %q", nameTok.text)
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	s := &structT{name: nameTok.text}
	// Register before field parsing so self-referential pointers work.
	p.u.structs[s.name] = s
	for !p.accept("}") {
		base, err := p.baseType()
		if err != nil {
			return err
		}
		for {
			fname, fty, err := p.declarator(base)
			if err != nil {
				return err
			}
			if fty.kind == tyVoid {
				return errf(nameTok.line, "void field %q", fname)
			}
			if fty.kind == tyStruct && fty.sdef == s {
				return errf(nameTok.line, "struct %q contains itself", s.name)
			}
			s.fields = append(s.fields, field{name: fname, ty: fty})
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(";"); err != nil {
			return err
		}
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	layoutStruct(s, p.opts.AlignStructs)
	return nil
}

func (p *parser) funcDef(name string, ret *ctype, line int) error {
	if old, ok := p.u.funcs[name]; ok && (old.builtin || old.body != nil) {
		return errf(line, "duplicate function %q", name)
	}
	f := &function{name: name, ret: ret, line: line}
	if err := p.expect("("); err != nil {
		return err
	}
	if !p.accept(")") {
		if p.isKeyword("void") && p.toks[p.pos+1].text == ")" {
			p.advance()
		} else {
			for {
				base, err := p.baseType()
				if err != nil {
					return err
				}
				pname, pty, err := p.declarator(base)
				if err != nil {
					return err
				}
				if pty.kind == tyArray {
					pty = ptrTo(pty.elem) // arrays decay in parameters
				}
				if pty.kind == tyVoid || pty.kind == tyStruct {
					return errf(line, "unsupported parameter type %s", pty)
				}
				f.params = append(f.params, param{name: pname, ty: pty})
				if !p.accept(",") {
					break
				}
			}
		}
		if err := p.expect(")"); err != nil {
			return err
		}
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	f.body = body
	p.u.funcs[name] = f
	p.u.order = append(p.u.order, f)
	return nil
}

func (p *parser) block() ([]*stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var stmts []*stmt
	for !p.accept("}") {
		if p.atEOF() {
			return nil, errf(p.cur().line, "unexpected end of file in block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s...)
	}
	return stmts, nil
}

// statement returns one or more statements (a declaration list expands to
// one sDecl per declarator).
func (p *parser) statement() ([]*stmt, error) {
	line := p.cur().line
	switch {
	case p.atType():
		return p.declStmt()
	case p.isPunct("{"):
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return []*stmt{{op: sBlock, line: line, body: body}}, nil
	case p.accept("if"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.statement()
		if err != nil {
			return nil, err
		}
		st := &stmt{op: sIf, line: line, cond: cond, body: then}
		if p.accept("else") {
			els, err := p.statement()
			if err != nil {
				return nil, err
			}
			st.elseBody = els
		}
		return []*stmt{st}, nil
	case p.accept("while"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return []*stmt{{op: sWhile, line: line, cond: cond, body: body}}, nil
	case p.accept("do"):
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		if err := p.expect("while"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []*stmt{{op: sDoWhile, line: line, cond: cond, body: body}}, nil
	case p.accept("for"):
		return p.forStmt(line)
	case p.accept("return"):
		st := &stmt{op: sReturn, line: line}
		if !p.isPunct(";") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.expr = e
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []*stmt{st}, nil
	case p.accept("break"):
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []*stmt{{op: sBreak, line: line}}, nil
	case p.accept("continue"):
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []*stmt{{op: sContinue, line: line}}, nil
	case p.accept(";"):
		return nil, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return []*stmt{{op: sExpr, line: line, expr: e}}, nil
}

func (p *parser) declStmt() ([]*stmt, error) {
	line := p.cur().line
	base, err := p.baseType()
	if err != nil {
		return nil, err
	}
	var out []*stmt
	for {
		name, ty, err := p.declarator(base)
		if err != nil {
			return nil, err
		}
		if ty.kind == tyVoid {
			return nil, errf(line, "void variable %q", name)
		}
		st := &stmt{op: sDecl, line: line, decl: &symbol{name: name, ty: ty, reg: -1}}
		if p.accept("=") {
			init, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			st.init = init
		}
		out = append(out, st)
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) forStmt(line int) ([]*stmt, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	st := &stmt{op: sFor, line: line}
	if !p.isPunct(";") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.forInit = &stmt{op: sExpr, line: line, expr: e}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(";") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.cond = cond
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.forPost = &stmt{op: sExpr, line: line, expr: e}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	st.body = body
	return []*stmt{st}, nil
}

// Expression parsing: precedence climbing.

func (p *parser) expr() (*expr, error) { return p.assignExpr() }

// compoundOps maps "op=" punctuators to the underlying binary operator.
var compoundOps = map[string]exprOp{
	"+=": eAdd, "-=": eSub, "*=": eMul, "/=": eDiv, "%=": eMod,
	"&=": eBitAnd, "|=": eBitOr, "^=": eBitXor, "<<=": eShl, ">>=": eShr,
}

func (p *parser) assignExpr() (*expr, error) {
	lhs, err := p.ternaryExpr()
	if err != nil {
		return nil, err
	}
	if p.isPunct("=") {
		line := p.cur().line
		p.advance()
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &expr{op: eAssign, line: line, lhs: lhs, rhs: rhs}, nil
	}
	if t := p.cur(); t.kind == tPunct {
		if op, ok := compoundOps[t.text]; ok {
			p.advance()
			rhs, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			// Desugar "lhs op= rhs" into "lhs = lhs op rhs". The lvalue is
			// evaluated twice, so it must be side-effect free.
			if contains(lhs, hasSideEffect) {
				return nil, errf(t.line, "compound assignment target may not have side effects")
			}
			bin := &expr{op: op, line: t.line, lhs: clone(lhs), rhs: rhs}
			return &expr{op: eAssign, line: t.line, lhs: lhs, rhs: bin}, nil
		}
	}
	return lhs, nil
}

// ternaryExpr parses "cond ? a : b" (right associative).
func (p *parser) ternaryExpr() (*expr, error) {
	cond, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	if !p.isPunct("?") {
		return cond, nil
	}
	line := p.cur().line
	p.advance()
	thenE, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	elseE, err := p.ternaryExpr()
	if err != nil {
		return nil, err
	}
	return &expr{op: eCond, line: line, lhs: cond, args: []*expr{thenE, elseE}}, nil
}

type binOp struct {
	op   exprOp
	prec int
}

var binOps = map[string]binOp{
	"||": {eLOr, 1},
	"&&": {eLAnd, 2},
	"|":  {eBitOr, 3},
	"^":  {eBitXor, 4},
	"&":  {eBitAnd, 5},
	"==": {eEq, 6}, "!=": {eNe, 6},
	"<": {eLt, 7}, "<=": {eLe, 7}, ">": {eGt, 7}, ">=": {eGe, 7},
	"<<": {eShl, 8}, ">>": {eShr, 8},
	"+": {eAdd, 9}, "-": {eSub, 9},
	"*": {eMul, 10}, "/": {eDiv, 10}, "%": {eMod, 10},
}

func (p *parser) binaryExpr(minPrec int) (*expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tPunct {
			return lhs, nil
		}
		bo, ok := binOps[t.text]
		if !ok || bo.prec < minPrec {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.binaryExpr(bo.prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &expr{op: bo.op, line: t.line, lhs: lhs, rhs: rhs}
	}
}

func (p *parser) unaryExpr() (*expr, error) {
	t := p.cur()
	switch {
	case p.accept("++"), p.accept("--"):
		// Prefix increment/decrement: desugar to "lhs = lhs +/- 1"
		// (the value is the updated one, as in C).
		lhs, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		if contains(lhs, hasSideEffect) {
			return nil, errf(t.line, "increment target may not have side effects")
		}
		op := eAdd
		if t.text == "--" {
			op = eSub
		}
		one := &expr{op: eIntLit, line: t.line, ival: 1}
		bin := &expr{op: op, line: t.line, lhs: clone(lhs), rhs: one}
		return &expr{op: eAssign, line: t.line, lhs: lhs, rhs: bin}, nil
	case p.accept("-"):
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &expr{op: eNeg, line: t.line, lhs: e}, nil
	case p.accept("!"):
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &expr{op: eNot, line: t.line, lhs: e}, nil
	case p.accept("~"):
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &expr{op: eBitNot, line: t.line, lhs: e}, nil
	case p.accept("&"):
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &expr{op: eAddr, line: t.line, lhs: e}, nil
	case p.accept("*"):
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &expr{op: eDeref, line: t.line, lhs: e}, nil
	case p.accept("sizeof"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if !p.atType() {
			return nil, errf(t.line, "sizeof needs a type")
		}
		base, err := p.baseType()
		if err != nil {
			return nil, err
		}
		for p.accept("*") {
			base = ptrTo(base)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &expr{op: eIntLit, line: t.line, ival: int64(base.size())}, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (*expr, error) {
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.accept("["):
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &expr{op: eIndex, line: t.line, lhs: e, rhs: idx}
		case p.accept("."):
			name := p.advance()
			if name.kind != tIdent {
				return nil, errf(name.line, "expected field name")
			}
			e = &expr{op: eField, line: t.line, lhs: e, sval: name.text}
		case p.accept("->"):
			name := p.advance()
			if name.kind != tIdent {
				return nil, errf(name.line, "expected field name")
			}
			deref := &expr{op: eDeref, line: t.line, lhs: e}
			e = &expr{op: eField, line: t.line, lhs: deref, sval: name.text}
		case p.accept("++"):
			if contains(e, hasSideEffect) {
				return nil, errf(t.line, "increment target may not have side effects")
			}
			e = &expr{op: ePostInc, line: t.line, lhs: e}
		case p.accept("--"):
			if contains(e, hasSideEffect) {
				return nil, errf(t.line, "increment target may not have side effects")
			}
			e = &expr{op: ePostDec, line: t.line, lhs: e}
		default:
			return e, nil
		}
	}
}

func (p *parser) primaryExpr() (*expr, error) {
	t := p.cur()
	switch t.kind {
	case tIntLit, tCharLit:
		p.advance()
		return &expr{op: eIntLit, line: t.line, ival: t.ival}, nil
	case tFloatLit:
		p.advance()
		return &expr{op: eFloatLit, line: t.line, fval: t.fval}, nil
	case tStrLit:
		p.advance()
		return &expr{op: eStrLit, line: t.line, sval: t.text}, nil
	case tIdent:
		p.advance()
		if p.accept("(") {
			call := &expr{op: eCall, line: t.line, sval: t.text}
			if !p.accept(")") {
				for {
					arg, err := p.assignExpr()
					if err != nil {
						return nil, err
					}
					call.args = append(call.args, arg)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		return &expr{op: eVar, line: t.line, sval: t.text}, nil
	case tPunct:
		if p.accept("(") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, errf(t.line, "unexpected token %q", t.String())
}
