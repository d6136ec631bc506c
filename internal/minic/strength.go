package minic

import "fmt"

// strengthReduce rewrites counted for-loops so that array accesses indexed
// by the induction variable walk derived pointers instead (the classic
// strength reduction of subscript expressions, ASU86). After the rewrite,
// a[i] inside the loop compiles to a zero-offset load through a pointer
// that is bumped in the loop's post statement, and a[i+1] to a small
// constant offset off the same pointer — exactly the code GCC produces for
// the paper when strength reduction succeeds. When the pass does not apply
// (non-induction subscripts, modified bases), code generation falls back to
// register+register addressing.
func strengthReduce(u *unit) {
	for _, f := range u.order {
		sr := &reducer{fn: f}
		sr.stmts(f.body)
	}
}

type reducer struct {
	fn      *function
	counter int
}

func (r *reducer) stmts(list []*stmt) {
	for _, st := range list {
		r.stmt(st)
	}
}

func (r *reducer) stmt(st *stmt) {
	switch st.op {
	case sIf:
		r.stmts(st.body)
		r.stmts(st.elseBody)
	case sWhile, sDoWhile, sBlock:
		r.stmts(st.body)
	case sFor:
		// Inner loops first: their rewrites may still use this loop's IV.
		r.stmts(st.body)
		r.reduceFor(st)
	}
}

// forInduction extracts the induction variable, its start and its step
// from a for statement, or returns a nil variable.
func forInduction(st *stmt) (iv *symbol, startE *expr, step int64) {
	if st.forInit == nil || st.cond == nil || st.forPost == nil {
		return nil, nil, 0
	}
	init := st.forInit.expr
	if init == nil || init.op != eAssign || init.lhs.op != eVar {
		return nil, nil, 0
	}
	sym := init.lhs.sym
	if sym == nil || sym.global || sym.addrTaken || sym.ty.kind != tyInt {
		return nil, nil, 0
	}
	// Start must be re-evaluable without side effects.
	if contains(init.rhs, hasSideEffect) {
		return nil, nil, 0
	}
	post := st.forPost.expr
	if post == nil {
		return nil, nil, 0
	}
	// i++ / i-- post statements.
	if (post.op == ePostInc || post.op == ePostDec) && post.lhs.op == eVar && post.lhs.sym == sym {
		if post.op == ePostInc {
			return sym, init.rhs, 1
		}
		return sym, init.rhs, -1
	}
	if post.op != eAssign || post.lhs.op != eVar || post.lhs.sym != sym {
		return nil, nil, 0
	}
	rhs := post.rhs
	switch {
	case rhs.op == eAdd && rhs.lhs.op == eVar && rhs.lhs.sym == sym && rhs.rhs.op == eIntLit:
		return sym, init.rhs, rhs.rhs.ival
	case rhs.op == eSub && rhs.lhs.op == eVar && rhs.lhs.sym == sym && rhs.rhs.op == eIntLit:
		return sym, init.rhs, -rhs.rhs.ival
	}
	return nil, nil, 0
}

// hasSideEffect reports whether e's own operation writes or calls.
// An expression with no such node can be evaluated twice.
func hasSideEffect(e *expr) bool {
	switch e.op {
	case eAssign, eCall, ePostInc, ePostDec:
		return true
	}
	return false
}

func (r *reducer) reduceFor(st *stmt) {
	iv, startE, step := forInduction(st)
	if iv == nil {
		return
	}
	// The IV must not be assigned inside the loop body.
	if assigns(st.body, iv) {
		return
	}
	// Collect candidate bases: loop-invariant array/pointer variables
	// indexed by the IV with scalar elements, body first, then condition.
	cands := &indexCands{byBase: map[*symbol][]*expr{}}
	collect := func(e *expr) bool {
		if e.op != eIndex || e.lhs.op != eVar || !e.ty.isScalar() || e.lhs.sym == iv {
			return true
		}
		if v, _ := splitIndex(e.rhs); v == nil || v.op != eVar || v.sym != iv {
			return true
		}
		if base := e.lhs.sym; base.ty.decay().isPtr() {
			cands.add(base, e)
		}
		return false // the index subtree is consumed by the rewrite
	}
	walkStmts(st.body, collect)
	walk(st.cond, collect)
	bases := cands.order[:0]
	for _, base := range cands.order {
		if base.addrTaken || assigns(st.body, base) || len(cands.byBase[base]) == 0 {
			continue
		}
		bases = append(bases, base)
	}
	if len(bases) == 0 {
		return
	}

	var newInits []*stmt
	var newPosts []*stmt
	for _, base := range bases {
		uses := cands.byBase[base]
		elem := base.ty.decay().elem
		ptrTy := ptrTo(elem)
		r.counter++
		p := &symbol{
			name: fmt.Sprintf("__sr_%s_%d", base.name, r.counter),
			ty:   ptrTy,
			reg:  -1,
			uses: len(uses) + 2,
		}
		r.fn.syms = append(r.fn.syms, p)

		// p = &base[start]
		baseRef := &expr{op: eVar, sval: base.name, sym: base, ty: base.ty}
		initIdx := &expr{op: eIndex, lhs: baseRef, rhs: clone(startE), ty: elem}
		initAddr := &expr{op: eAddr, lhs: initIdx, ty: ptrTy}
		pRef := func() *expr { return &expr{op: eVar, sval: p.name, sym: p, ty: ptrTy} }
		newInits = append(newInits, &stmt{
			op:   sExpr,
			line: st.line,
			expr: &expr{op: eAssign, lhs: pRef(), rhs: initAddr, ty: ptrTy},
		})

		// p = p + step
		bump := &expr{
			op:  eAdd,
			lhs: pRef(),
			rhs: &expr{op: eIntLit, ival: step, ty: typeInt},
			ty:  ptrTy,
		}
		newPosts = append(newPosts, &stmt{
			op:   sExpr,
			line: st.line,
			expr: &expr{op: eAssign, lhs: pRef(), rhs: bump, ty: ptrTy},
		})

		// Rewrite each access in place.
		for _, use := range uses {
			_, c := splitIndex(use.rhs)
			use.lhs = pRef()
			if c == 0 {
				// a[i] -> *p
				use.op = eDeref
				use.rhs = nil
			} else {
				// a[i+c] -> p[c]
				use.rhs = &expr{op: eIntLit, ival: c, ty: typeInt}
			}
		}
		iv.uses -= len(uses)
		if iv.uses < 1 {
			iv.uses = 1
		}
	}

	// Chain the new initializations after the loop init, and the pointer
	// bumps after the loop post (continue statements jump to the post
	// label, so increments stay paired with the IV update).
	st.forInit = &stmt{op: sBlock, line: st.line, body: append([]*stmt{st.forInit}, newInits...)}
	st.forPost = &stmt{op: sBlock, line: st.line, body: append([]*stmt{st.forPost}, newPosts...)}
}

// indexCands groups candidate accesses by base symbol while remembering
// the order bases were first seen. Rewrites must happen in that order —
// iterating the pointer-keyed map directly would emit the pointer-temp
// declarations and bump statements in a different order on every
// process, producing nondeterministic code layout and timing.
type indexCands struct {
	byBase map[*symbol][]*expr
	order  []*symbol
}

func (c *indexCands) add(base *symbol, e *expr) {
	if _, seen := c.byBase[base]; !seen {
		c.order = append(c.order, base)
	}
	c.byBase[base] = append(c.byBase[base], e)
}

// assigns reports whether a statement in list assigns to sym.
func assigns(list []*stmt, sym *symbol) bool {
	found := false
	walkStmts(list, func(e *expr) bool {
		found = found || (e.op == eAssign || e.op == ePostInc || e.op == ePostDec) &&
			e.lhs.op == eVar && e.lhs.sym == sym
		return !found
	})
	return found
}
