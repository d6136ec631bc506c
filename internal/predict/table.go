//lint:hotpath Predict and Train run once per issued memory access.

package predict

import (
	"repro/internal/fac"
	"repro/internal/ltb"
)

// Table machines predict from the access's PC history rather than its
// operands, so they cover addressing modes FAC cannot (a pointer loaded
// from memory one instruction earlier) and fail on ones FAC handles
// algebraically (a cold PC, a re-based pointer). Both delegate storage to
// internal/ltb's direct-mapped tagged table; they differ only in the
// prediction policy and the signal charged on a wrong address.

// pcaxMachine is PC-indexed last-address prediction (Murthy & Sohi's
// PCAX): predict that the access at this PC touches the same address it
// touched last time. A cold or tag-conflicting entry declines to predict.
type pcaxMachine struct {
	tbl *ltb.Predictor
}

// pcaxSignals: slot 0 is charged whenever verification finds the
// last-address guess wrong.
var pcaxSignals = []string{"wrongaddr"}

func (m *pcaxMachine) Name() string          { return "pcax" }
func (m *pcaxMachine) SignalNames() []string { return pcaxSignals }
func (m *pcaxMachine) OperandBased() bool    { return false }

func (m *pcaxMachine) Predict(pc, base, ofs uint32, isRegOffset bool) Result {
	addr, _, ok := m.tbl.Lookup(pc)
	if !ok {
		return Result{}
	}
	return Result{Addr: addr, Spec: true, Fail: fac.Failure(1) << 0}
}

func (m *pcaxMachine) Train(pc, actual uint32) { m.tbl.Update(pc, actual) }

// strideMachine generalizes internal/ltb's stride policy: last address
// plus a 2-bit-confidence-guarded stride. The signal charged on a wrong
// address records which path produced the guess, so the failure breakdown
// separates "the stride broke" from "the cold last-address guess missed".
type strideMachine struct {
	tbl *ltb.Predictor
}

var strideSignals = []string{"lastaddr", "stridebreak"}

func (m *strideMachine) Name() string          { return "stride" }
func (m *strideMachine) SignalNames() []string { return strideSignals }
func (m *strideMachine) OperandBased() bool    { return false }

func (m *strideMachine) Predict(pc, base, ofs uint32, isRegOffset bool) Result {
	addr, usedStride, ok := m.tbl.Lookup(pc)
	if !ok {
		return Result{}
	}
	sig := fac.Failure(1) << 0 // lastaddr path
	if usedStride {
		sig = fac.Failure(1) << 1 // stridebreak path
	}
	return Result{Addr: addr, Spec: true, Fail: sig}
}

func (m *strideMachine) Train(pc, actual uint32) { m.tbl.Update(pc, actual) }
