package minic

type exprOp uint8

const (
	eIntLit exprOp = iota
	eFloatLit
	eStrLit
	eVar
	eCall

	eAssign
	eAdd
	eSub
	eMul
	eDiv
	eMod
	eShl
	eShr
	eLt
	eLe
	eGt
	eGe
	eEq
	eNe
	eBitAnd
	eBitOr
	eBitXor
	eLAnd
	eLOr

	eNot
	eBitNot
	eNeg
	eAddr
	eDeref
	eIndex // lhs[rhs]
	eField // lhs.name  (also lhs->name after normalization to deref)
	eCvt   // numeric conversion inserted by sema

	eCond    // lhs ? args[0] : args[1]
	ePostInc // lhs++ (value is the old one)
	ePostDec // lhs--
)

type expr struct {
	op   exprOp
	line int
	ty   *ctype // set by sema

	lhs, rhs *expr

	ival  int64
	fval  float64
	sval  string // string literal / identifier / field name
	args  []*expr
	sym   *symbol // resolved variable (sema)
	fn    *function
	field *field // resolved struct field (sema)
}

type stmtOp uint8

const (
	sExpr stmtOp = iota
	sDecl
	sIf
	sWhile
	sDoWhile
	sFor
	sReturn
	sBreak
	sContinue
	sBlock
)

type stmt struct {
	op   stmtOp
	line int

	expr *expr // sExpr, sReturn (may be nil), sDecl initializer target

	decl *symbol // sDecl
	init *expr   // sDecl initializer

	cond     *expr
	forInit  *stmt
	forPost  *stmt
	body     []*stmt
	elseBody []*stmt
}

// symbol is a variable (global, parameter, or local).
type symbol struct {
	name   string
	ty     *ctype
	global bool
	param  bool

	// Sema/codegen state:
	addrTaken bool
	uses      int
	// Codegen assignment:
	reg      int // register-allocated local: s-register index or FP reg; -1 = memory
	isFPReg  bool
	frameOff int // offset from $sp for memory locals (valid when reg < 0)

	// Globals:
	initI   int64
	initF   float64
	hasInit bool
}

type param struct {
	name string
	ty   *ctype
}

type function struct {
	name   string
	ret    *ctype
	params []param
	body   []*stmt
	line   int

	builtin bool

	// Sema results:
	syms      []*symbol // all locals + params in declaration order
	makesCall bool
}

type unit struct {
	structs map[string]*structT
	globals []*symbol
	funcs   map[string]*function
	order   []*function // definition order
	strings []string    // interned string literals
}

// walk calls visit on e and its subexpressions in pre-order: a node, then
// its lhs, rhs and args. visit returns false to skip a node's children.
func walk(e *expr, visit func(*expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	walk(e.lhs, visit)
	walk(e.rhs, visit)
	for _, a := range e.args {
		walk(a, visit)
	}
}

// walkStmts walks every expression under list in source order: each
// statement's expr, init and cond, then its for-init and for-post
// statements, body and else-body. Strength reduction depends on the
// order: it names the pointers it introduces, and so orders their
// register allocation.
func walkStmts(list []*stmt, visit func(*expr) bool) {
	for _, st := range list {
		walkStmt(st, visit)
	}
}

func walkStmt(st *stmt, visit func(*expr) bool) {
	if st == nil {
		return
	}
	walk(st.expr, visit)
	walk(st.init, visit)
	walk(st.cond, visit)
	walkStmt(st.forInit, visit)
	walkStmt(st.forPost, visit)
	walkStmts(st.body, visit)
	walkStmts(st.elseBody, visit)
}

// contains reports whether pred holds for e or one of its subexpressions.
func contains(e *expr, pred func(*expr) bool) bool {
	found := false
	walk(e, func(n *expr) bool {
		found = found || pred(n)
		return !found
	})
	return found
}

// clone deep-copies an expression tree.
func clone(e *expr) *expr {
	if e == nil {
		return nil
	}
	c := *e
	c.lhs = clone(e.lhs)
	c.rhs = clone(e.rhs)
	if e.args != nil {
		c.args = make([]*expr, len(e.args))
		for i, a := range e.args {
			c.args[i] = clone(a)
		}
	}
	return &c
}
