package minic

// Statement generation.

func (g *gen) stmts(list []*stmt, epilogue string) error {
	for _, st := range list {
		if err := g.stmt(st, epilogue); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) stmt(st *stmt, epilogue string) error {
	switch st.op {
	case sExpr:
		v, err := g.expr(st.expr)
		if err != nil {
			return err
		}
		g.free(v)
		return nil
	case sDecl:
		if st.init == nil {
			return nil
		}
		lhs := &expr{op: eVar, line: st.line, sval: st.decl.name, sym: st.decl, ty: st.decl.ty}
		v, err := g.assign(lhs, st.init)
		if err != nil {
			return err
		}
		g.free(v)
		return nil
	case sIf:
		els := g.newLabel()
		end := els
		if err := g.branchFalse(st.cond, els); err != nil {
			return err
		}
		if err := g.stmts(st.body, epilogue); err != nil {
			return err
		}
		if len(st.elseBody) > 0 {
			end = g.newLabel()
			g.emit("j %s", end)
			g.label(els)
			if err := g.stmts(st.elseBody, epilogue); err != nil {
				return err
			}
		}
		g.label(end)
		return nil
	case sWhile, sFor:
		body, cond, end := g.newLabel(), g.newLabel(), g.newLabel()
		contTo := cond
		if st.op == sFor {
			if st.forInit != nil {
				if err := g.stmt(st.forInit, epilogue); err != nil {
					return err
				}
			}
			if st.forPost != nil {
				contTo = g.newLabel()
			}
		}
		g.emit("j %s", cond)
		g.label(body)
		g.breakLbl = append(g.breakLbl, end)
		g.continueLbl = append(g.continueLbl, contTo)
		if err := g.stmts(st.body, epilogue); err != nil {
			return err
		}
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.continueLbl = g.continueLbl[:len(g.continueLbl)-1]
		if st.op == sFor && st.forPost != nil {
			g.label(contTo)
			if err := g.stmt(st.forPost, epilogue); err != nil {
				return err
			}
		}
		g.label(cond)
		if st.cond == nil {
			g.emit("j %s", body)
		} else if err := g.branchTrue(st.cond, body); err != nil {
			return err
		}
		g.label(end)
		return nil
	case sReturn:
		if st.expr != nil {
			v, err := g.expr(st.expr)
			if err != nil {
				return err
			}
			if v.fp {
				g.emit("fmov $f0, %s", g.rn(v))
			} else {
				g.emit("move $v0, %s", g.rn(v))
			}
			g.free(v)
		}
		g.emit("j %s", epilogue)
		return nil
	case sDoWhile:
		body, cond, end := g.newLabel(), g.newLabel(), g.newLabel()
		g.label(body)
		g.breakLbl = append(g.breakLbl, end)
		g.continueLbl = append(g.continueLbl, cond)
		if err := g.stmts(st.body, epilogue); err != nil {
			return err
		}
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.continueLbl = g.continueLbl[:len(g.continueLbl)-1]
		g.label(cond)
		if err := g.branchTrue(st.cond, body); err != nil {
			return err
		}
		g.label(end)
		return nil
	case sBreak:
		g.emit("j %s", g.breakLbl[len(g.breakLbl)-1])
		return nil
	case sContinue:
		g.emit("j %s", g.continueLbl[len(g.continueLbl)-1])
		return nil
	case sBlock:
		return g.stmts(st.body, epilogue)
	}
	return errf(st.line, "internal: unknown statement op")
}

// Branch generation with direct comparison fusion.

func (g *gen) branchTrue(cond *expr, target string) error {
	return g.branch(cond, target, true)
}

func (g *gen) branchFalse(cond *expr, target string) error {
	return g.branch(cond, target, false)
}

var cmpBranch = map[exprOp]struct{ pos, neg string }{
	eLt: {"blt", "bge"},
	eLe: {"ble", "bgt"},
	eGt: {"bgt", "ble"},
	eGe: {"bge", "blt"},
	eEq: {"beq", "bne"},
	eNe: {"bne", "beq"},
}

func (g *gen) branch(cond *expr, target string, whenTrue bool) error {
	switch cond.op {
	case eLt, eLe, eGt, eGe, eEq, eNe:
		l, r := cond.lhs.ty.decay(), cond.rhs.ty.decay()
		if l.kind == tyDouble || r.kind == tyDouble {
			return g.fpCmpBranch(cond, target, whenTrue)
		}
		lv, err := g.expr(cond.lhs)
		if err != nil {
			return err
		}
		rv, err := g.expr(cond.rhs)
		if err != nil {
			return err
		}
		br := cmpBranch[cond.op]
		op := br.pos
		if !whenTrue {
			op = br.neg
		}
		g.emit("%s %s, %s, %s", op, g.rn(lv), g.rn(rv), target)
		g.free(lv)
		g.free(rv)
		return nil
	case eLAnd:
		if whenTrue {
			skip := g.newLabel()
			if err := g.branchFalse(cond.lhs, skip); err != nil {
				return err
			}
			if err := g.branchTrue(cond.rhs, target); err != nil {
				return err
			}
			g.label(skip)
			return nil
		}
		if err := g.branchFalse(cond.lhs, target); err != nil {
			return err
		}
		return g.branchFalse(cond.rhs, target)
	case eLOr:
		if whenTrue {
			if err := g.branchTrue(cond.lhs, target); err != nil {
				return err
			}
			return g.branchTrue(cond.rhs, target)
		}
		skip := g.newLabel()
		if err := g.branchTrue(cond.lhs, skip); err != nil {
			return err
		}
		if err := g.branchFalse(cond.rhs, target); err != nil {
			return err
		}
		g.label(skip)
		return nil
	case eNot:
		return g.branch(cond.lhs, target, !whenTrue)
	}
	v, err := g.expr(cond)
	if err != nil {
		return err
	}
	if v.fp {
		// Compare against 0.0.
		z, err := g.allocFP(cond.line)
		if err != nil {
			return err
		}
		g.emit("mtc1 %s, $zero", g.rn(z))
		g.emit("cvtdw %s, %s", g.rn(z), g.rn(z))
		g.emit("fceq %s, %s", g.rn(v), g.rn(z))
		g.free(z)
		if whenTrue {
			g.emit("bc1f %s", target)
		} else {
			g.emit("bc1t %s", target)
		}
	} else if whenTrue {
		g.emit("bnez %s, %s", g.rn(v), target)
	} else {
		g.emit("beqz %s, %s", g.rn(v), target)
	}
	g.free(v)
	return nil
}

// fpCmpBranch compares doubles via the FP condition flag.
func (g *gen) fpCmpBranch(cond *expr, target string, whenTrue bool) error {
	lv, err := g.expr(cond.lhs)
	if err != nil {
		return err
	}
	rv, err := g.expr(cond.rhs)
	if err != nil {
		return err
	}
	// Map to fclt/fcle/fceq with operand swaps.
	var op string
	a, b := lv, rv
	sense := whenTrue
	switch cond.op {
	case eLt:
		op = "fclt"
	case eLe:
		op = "fcle"
	case eGt:
		op, a, b = "fclt", rv, lv
	case eGe:
		op, a, b = "fcle", rv, lv
	case eEq:
		op = "fceq"
	case eNe:
		op = "fceq"
		sense = !sense
	}
	g.emit("%s %s, %s", op, g.rn(a), g.rn(b))
	if sense {
		g.emit("bc1t %s", target)
	} else {
		g.emit("bc1f %s", target)
	}
	g.free(lv)
	g.free(rv)
	return nil
}

// Expression generation: returns a val holding the result. Callers free it.

func (g *gen) expr(e *expr) (val, error) {
	switch e.op {
	case eIntLit:
		v, err := g.allocInt(e.line)
		if err != nil {
			return val{}, err
		}
		g.emit("li %s, %d", g.rn(v), int32(e.ival))
		return v, nil
	case eFloatLit:
		v, err := g.allocFP(e.line)
		if err != nil {
			return val{}, err
		}
		g.emit("lfd %s, %s", g.rn(v), g.floatLabel(e.fval))
		return v, nil
	case eStrLit:
		v, err := g.allocInt(e.line)
		if err != nil {
			return val{}, err
		}
		g.emit("la %s, %s", g.rn(v), g.stringLabel(e.sval))
		return v, nil
	case eVar, eDeref, eIndex, eField:
		return g.load(e)
	case eAssign:
		return g.assign(e.lhs, e.rhs)
	case eCall:
		return g.call(e)
	case eCvt:
		return g.cvt(e)
	case eAdd, eSub:
		return g.addSub(e)
	case eMul, eDiv, eMod, eShl, eShr, eBitAnd, eBitOr, eBitXor:
		return g.binary(e)
	case eLt, eLe, eGt, eGe, eEq, eNe, eLAnd, eLOr, eNot:
		return g.boolValue(e)
	case eNeg:
		v, err := g.expr(e.lhs)
		if err != nil {
			return val{}, err
		}
		out, err := g.resultReg(v, e.line)
		if err != nil {
			return val{}, err
		}
		if v.fp {
			g.emit("fneg %s, %s", g.rn(out), g.rn(v))
		} else {
			g.emit("neg %s, %s", g.rn(out), g.rn(v))
		}
		return out, nil
	case eBitNot:
		v, err := g.expr(e.lhs)
		if err != nil {
			return val{}, err
		}
		out, err := g.resultReg(v, e.line)
		if err != nil {
			return val{}, err
		}
		g.emit("not %s, %s", g.rn(out), g.rn(v))
		return out, nil
	case eAddr:
		return g.addr(e.lhs)
	case eCond:
		return g.condValue(e)
	case ePostInc:
		return g.postIncDec(e, false)
	case ePostDec:
		return g.postIncDec(e, true)
	}
	return val{}, errf(e.line, "internal: unknown expression op %d", e.op)
}

// resultReg reuses v when it is a temporary of the right bank, otherwise
// allocates a fresh temp. The returned register replaces v (caller must not
// free v separately when it was a temp).
func (g *gen) resultReg(v val, line int) (val, error) {
	if v.isTemp() {
		return v, nil
	}
	if v.fp {
		return g.allocFP(line)
	}
	return g.allocInt(line)
}

// scaleIndex multiplies an index register by the element size.
func (g *gen) scaleIndex(iv val, elemSize, line int) (val, error) {
	if elemSize == 1 {
		return iv, nil
	}
	out, err := g.resultReg(iv, line)
	if err != nil {
		return val{}, err
	}
	if elemSize&(elemSize-1) == 0 {
		g.emit("sll %s, %s, %d", g.rn(out), g.rn(iv), log2i(elemSize))
	} else {
		g.emit("li $t8, %d", elemSize)
		g.emit("mul %s, %s, $t8", g.rn(out), g.rn(iv))
	}
	if out != iv {
		g.free(iv)
	}
	return out, nil
}

func log2i(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}
