//lint:hotpath
package pipeline

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/predict"
)

// Source supplies the dynamic instruction stream in program order.
// NextBatch fills buf with as many traces as remain (up to len(buf)) and
// returns the count, 0 at end of stream. Pulling in bulk amortizes the
// per-instruction interface call. The stream is trace-driven and replayed
// as-is, so its producer may run ahead of the timing model: core's runs
// the emulator on its own goroutine.
type Source interface {
	NextBatch(buf []emu.Trace) (int, error)
}

// batchSize is the trace buffer length.
const batchSize = 256

// ringBits sizes the per-cycle cache-port reservation ring. Reservations
// only ever target the current or next cycle, so a small ring suffices.
const ringBits = 6

type sim struct {
	cfg     Config
	pred    predict.Predictor // nil = no address prediction
	opBased bool              // pred.OperandBased() (hoisted off the hot path)
	src     Source
	ctx     context.Context // nil = cancellation disabled

	icache *cache.Cache
	dcache *cache.Cache
	btb    *bpred.BTB

	stats Stats
	sink  obs.Sink // nil = observability disabled (no event allocations)

	// Fetch: the trace buffer (batch[batchPos:batchLen] is unconsumed).
	nextFetchCycle uint64
	batch          []emu.Trace
	batchPos       int
	batchLen       int
	srcDone        bool

	// Issue queue (fetched, not yet issued), in program order. A fixed
	// ring: capacity is the fetch guard's bound (2*FetchWidth+IssueWidth),
	// so the steady state allocates nothing.
	pending  []qent
	pendHead int
	pendLen  int

	// Scoreboard: cycle at which each unified register can be sourced.
	regReady [isa.NumURegs]uint64

	// Non-pipelined unit reservation.
	intMDFree uint64
	fpMDFree  uint64

	// Per-cycle cache port reservations.
	readsAt [1 << ringBits]uint8
	storeAt [1 << ringBits]bool

	// Store buffer (FIFO of entry-ready cycles), a fixed ring of
	// StoreBufferEntries.
	storeBuf []storeEnt
	sbHead   int
	sbLen    int

	// FAC replay rule: accesses in the cycle after a mispredict may not
	// speculate, except a load directly after a misspeculated load.
	lastMispredCycle   uint64
	lastMispredWasLoad bool
	haveMispred        bool

	nextCtxCheck uint64 // next cycle at which to poll ctx for cancellation
	lastEvent    uint64 // completion time of the latest activity seen
}

// qent is one issue-queue entry: the pre-decoded instruction plus the few
// trace fields the issue stage consumes.
type qent struct {
	pc       uint32
	effAddr  uint32 // architectural effective address (memory ops)
	base     uint32 // base register value at execute time
	offset   uint32 // offset value (constant or index register)
	memVal   uint32 // transferred value of an integer access (hasVal)
	isRegOff bool   // offset came from the register file
	hasVal   bool   // memVal valid
	pre      isa.Pre
	earliest uint64 // fetchCycle + 2 (IF, ID, then EX)
}

type storeEnt struct {
	addr    uint32
	entered uint64
}

// Issue-queue ring operations.

func (s *sim) pendHeadEnt() *qent { return &s.pending[s.pendHead] }

// pendSlot claims the next free ring slot and returns it for in-place
// construction, avoiding a queue-entry copy per fetched instruction.
func (s *sim) pendSlot() *qent {
	i := s.pendHead + s.pendLen
	if i >= len(s.pending) {
		i -= len(s.pending)
	}
	s.pendLen++
	return &s.pending[i]
}

func (s *sim) pendPop() {
	s.pendHead++
	if s.pendHead == len(s.pending) {
		s.pendHead = 0
	}
	s.pendLen--
}

// Store-buffer ring operations.

func (s *sim) sbPush(e storeEnt) {
	i := s.sbHead + s.sbLen
	if i >= len(s.storeBuf) {
		i -= len(s.storeBuf)
	}
	s.storeBuf[i] = e
	s.sbLen++
}

func (s *sim) sbPop() storeEnt {
	e := s.storeBuf[s.sbHead]
	s.sbHead++
	if s.sbHead == len(s.storeBuf) {
		s.sbHead = 0
	}
	s.sbLen--
	return e
}

// Run simulates the instruction stream and returns timing statistics.
func Run(cfg Config, src Source) (Stats, error) {
	return RunObserved(cfg, src, nil)
}

// RunObserved simulates the instruction stream with an event sink
// attached (nil disables the stream at zero cost). The sink receives
// every pipeline and cache event in simulation order.
func RunObserved(cfg Config, src Source, sink obs.Sink) (Stats, error) {
	return RunCtx(nil, cfg, src, sink)
}

// ctxCheckInterval spaces out cancellation checks: the context is polled
// every 4096 simulated cycles (fast-forwarded cycles count), so an abort
// costs at most a few microseconds of extra simulation while the
// steady-state loop pays one nil comparison per cycle.
const ctxCheckInterval = 1 << 12

// RunCtx is RunObserved with cancellation: when ctx is non-nil, its
// cancellation or deadline aborts the cycle loop promptly (checked every
// few thousand cycles) and the run returns an error wrapping ctx.Err().
// A nil ctx disables the checks entirely; timing is identical either way.
func RunCtx(ctx context.Context, cfg Config, src Source, sink obs.Sink) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	s := &sim{cfg: cfg, src: src, ctx: ctx, btb: bpred.New(cfg.BTBEntries), sink: sink}
	s.pending = make([]qent, 2*cfg.FetchWidth+cfg.IssueWidth)
	s.storeBuf = make([]storeEnt, cfg.StoreBufferEntries)
	s.batch = make([]emu.Trace, batchSize)
	if cfg.Predictor != "" {
		p, err := cfg.newPredictor()
		if err != nil {
			return Stats{}, fmt.Errorf("pipeline: %w", err)
		}
		s.pred = p
		s.opBased = p.OperandBased()
		s.stats.Predictor = cfg.Predictor
	}
	if !cfg.PerfectICache {
		s.icache = cache.New(cfg.ICache)
		s.icache.SetSink(sink)
	}
	if !cfg.PerfectDCache {
		s.dcache = cache.New(cfg.DCache)
		s.dcache.SetSink(sink)
	}
	if err := s.run(); err != nil {
		return Stats{}, err
	}
	if s.icache != nil {
		s.stats.ICache = s.icache.Stats()
	}
	if s.dcache != nil {
		s.stats.DCache = s.dcache.Stats()
	}
	return s.stats, nil
}

func (s *sim) run() error {
	var now uint64
	lastProgress := uint64(0)
	prevInsts, prevBuf := uint64(0), 0
	for {
		if s.srcDone && s.batchPos >= s.batchLen && s.pendLen == 0 && s.sbLen == 0 {
			break
		}
		if s.ctx != nil && now >= s.nextCtxCheck {
			s.nextCtxCheck = now + ctxCheckInterval
			if err := s.ctx.Err(); err != nil {
				return fmt.Errorf("pipeline: run canceled at cycle %d: %w", now, err)
			}
		}
		// Clear the reservation slot two cycles ahead (reservations only
		// target now or now+1).
		s.readsAt[(now+2)&(1<<ringBits-1)] = 0
		s.storeAt[(now+2)&(1<<ringBits-1)] = false

		if err := s.fetch(now); err != nil {
			return err
		}
		issued, cause, err := s.issue(now)
		if err != nil {
			return err
		}
		if issued > 0 {
			s.stats.IssueActiveCycles++
		} else {
			s.stats.StallCycles[cause]++
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindStall, Cause: cause, Cycle: now})
			}
		}
		s.retireStores(now)

		if s.stats.Insts != prevInsts || s.sbLen != prevBuf {
			prevInsts, prevBuf = s.stats.Insts, s.sbLen
			lastProgress = now
		}
		if now-lastProgress > 1_000_000 {
			return fmt.Errorf("pipeline: no progress for 1M cycles at cycle %d (%d pending, %d store buffer)",
				now, s.pendLen, s.sbLen)
		}

		// Stall fast-forwarding: when this cycle issued nothing and the
		// pipeline is provably quiescent until a known future cycle (a
		// miss fill, a long-latency result, a fetch redirect landing),
		// jump straight there. Timing, statistics, and the event stream
		// are bit-identical to walking the cycles one by one; see
		// docs/PERFORMANCE.md for the invariant argument.
		if issued == 0 && s.sbLen == 0 && !s.cfg.NoFastForward {
			if wake := s.ffWake(now); wake > now+1 {
				skipped := wake - now - 1
				s.stats.StallCycles[cause] += skipped
				if s.sink != nil {
					for c := now + 1; c < wake; c++ {
						s.sink.Event(obs.Event{Kind: obs.KindStall, Cause: cause, Cycle: c})
					}
				}
				// Every live port reservation targets a cycle <= now+1 <
				// wake, so the whole ring is stale at the resume cycle.
				s.readsAt = [1 << ringBits]uint8{}
				s.storeAt = [1 << ringBits]bool{}
				now = wake - 1
			}
		}
		now++
	}
	s.stats.Cycles = s.lastEvent
	return nil
}

// ffWake returns the cycle to which the simulation can provably
// fast-forward from the zero-issue cycle now: every skipped cycle would
// issue nothing for the same recorded cause, mutate no simulator state,
// and (stall events aside) emit nothing. It returns 0 when no such
// window exists. The caller guarantees the store buffer is empty, so
// retireStores is a no-op throughout the window.
func (s *sim) ffWake(now uint64) uint64 {
	const inf = ^uint64(0)
	wake := inf
	// Fetch next acts at nextFetchCycle — unless it is blocked on a full
	// issue queue, in which case it cannot act before issue drains the
	// queue (covered by the head examination below).
	if !s.srcDone || s.batchPos < s.batchLen {
		if s.pendLen+s.cfg.FetchWidth <= 2*s.cfg.FetchWidth+s.cfg.IssueWidth {
			if s.nextFetchCycle <= now {
				return 0 // fetch is active; no quiescent window
			}
			wake = s.nextFetchCycle
		}
	}
	if s.pendLen > 0 {
		q := s.pendHeadEnt()
		if q.earliest > now {
			if q.earliest < wake {
				wake = q.earliest
			}
		} else {
			// Mirror the issue stage's head examination exactly.
			off := uint64(0)
			if s.cfg.AGI {
				switch q.pre.Class {
				case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassSyscall:
					off = 1
				}
			}
			opWake := uint64(0)
			for _, u := range q.pre.Uses[:q.pre.NUses] {
				if r := s.regReady[u]; r > now+off && r-off > opWake {
					opWake = r - off
				}
			}
			if opWake != 0 {
				if opWake < wake {
					wake = opWake
				}
			} else {
				// Operands are ready, so the head is blocked on a
				// non-pipelined unit's issue interval; any other hazard
				// (cache port, store buffer slot) can clear within a
				// cycle and is not fast-forwarded.
				var free uint64
				switch q.pre.Class {
				case isa.ClassIntMul, isa.ClassIntDiv:
					free = s.intMDFree
				case isa.ClassFPMul, isa.ClassFPDiv:
					free = s.fpMDFree
				default:
					return 0
				}
				if free <= now {
					return 0
				}
				if free < wake {
					wake = free
				}
			}
		}
	}
	if wake == inf || wake <= now+1 {
		return 0
	}
	return wake
}

func (s *sim) note(cycle uint64) {
	if cycle > s.lastEvent {
		s.lastEvent = cycle
	}
}

// peekTrace exposes the next dynamic instruction without consuming it.
// The returned pointer is valid until the next peekTrace call that
// refills the batch buffer; nil means the stream has ended.
func (s *sim) peekTrace() (*emu.Trace, error) {
	if s.batchPos < s.batchLen {
		return &s.batch[s.batchPos], nil
	}
	if s.srcDone {
		return nil, nil
	}
	n, err := s.src.NextBatch(s.batch)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		s.srcDone = true
		return nil, nil
	}
	s.batchPos, s.batchLen = 0, n
	return &s.batch[0], nil
}

func (s *sim) takeTrace() { s.batchPos++ }

// fetch models the IF stage: up to FetchWidth contiguous instructions per
// cycle through the I-cache, ending early at predicted- or actually-taken
// control transfers, charging the BTB misprediction penalty.
func (s *sim) fetch(now uint64) error {
	if now < s.nextFetchCycle {
		return nil
	}
	if s.pendLen+s.cfg.FetchWidth > 2*s.cfg.FetchWidth+s.cfg.IssueWidth {
		return nil // issue queue full; fetch stalls
	}
	first, err := s.peekTrace()
	if err != nil {
		return err
	}
	if first == nil {
		return nil
	}
	firstPC := first.PC

	// I-cache access for the group's first block (and, if the group
	// crosses, its successor block, fetched the same cycle).
	groupReady := now
	if s.icache != nil {
		res := s.icache.Access(firstPC, false, now)
		if res.Ready > groupReady {
			groupReady = res.Ready
		}
	}
	blockMask := uint32(0)
	if s.icache != nil {
		blockMask = ^uint32(s.cfg.ICache.BlockSize - 1)
	}

	fetched := 0
	expectPC := firstPC
	redirected := false
	for fetched < s.cfg.FetchWidth {
		tr, err := s.peekTrace()
		if err != nil {
			return err
		}
		if tr == nil {
			break
		}
		if tr.PC != expectPC {
			break // discontiguous (should not happen: redirects end groups)
		}
		if s.icache != nil && tr.PC&blockMask != firstPC&blockMask {
			res := s.icache.Access(tr.PC, false, now)
			if res.Ready > groupReady {
				groupReady = res.Ready
			}
		}
		s.takeTrace()
		q := s.pendSlot()
		q.pc = tr.PC
		q.effAddr = tr.EffAddr
		q.base = tr.Base
		q.offset = tr.Offset
		q.isRegOff = tr.IsRegOffset
		q.memVal, q.hasVal = tr.MemVal, tr.HasMemVal
		q.earliest = groupReady + 2
		if tr.Pre != nil {
			q.pre = *tr.Pre // the producer's pre-decode table (the common case)
		} else {
			q.pre = isa.Predecode(tr.Inst) // hand-built trace: decode locally
		}
		fetched++
		expectPC = tr.PC + isa.InstBytes

		if q.pre.IsControl() {
			taken := tr.NextPC != tr.PC+isa.InstBytes
			predTaken, _ := s.btb.Predict(tr.PC)
			mis := s.btb.Update(tr.PC, taken, tr.NextPC)
			s.stats.BranchLookups++
			if mis {
				s.stats.BranchMispredicts++
				s.nextFetchCycle = groupReady + 1 + uint64(s.cfg.MispredictPenalty)
				redirected = true
				break
			}
			if taken || predTaken {
				// Correctly predicted taken: fetch resumes at the target
				// next cycle.
				s.nextFetchCycle = groupReady + 1
				redirected = true
				break
			}
			// Correctly predicted not-taken: the group continues.
		}
	}
	if !redirected {
		s.nextFetchCycle = groupReady + 1
	}
	if s.sink != nil && fetched > 0 {
		s.sink.Event(obs.Event{Kind: obs.KindFetch, Cycle: now, PC: firstPC, Val: uint64(fetched)})
	}
	return nil
}

// Cache port helpers ("up to two loads or one store each cycle").

func (s *sim) slot(c uint64) int { return int(c & (1<<ringBits - 1)) }

func (s *sim) readFree(c uint64) bool {
	i := s.slot(c)
	return !s.storeAt[i] && int(s.readsAt[i]) < s.cfg.DCacheReadsPerCycle
}

func (s *sim) useRead(c uint64) { s.readsAt[s.slot(c)]++ }

func (s *sim) storeFree(c uint64) bool {
	i := s.slot(c)
	return !s.storeAt[i] && s.readsAt[i] == 0
}

func (s *sim) useStore(c uint64) { s.storeAt[s.slot(c)] = true }

// dcacheAccess performs a data-cache access at the given cycle, retrying
// past MSHR-full conditions, and returns the cycle the data is available.
func (s *sim) dcacheAccess(addr uint32, write bool, c uint64) uint64 {
	if s.dcache == nil {
		return c // perfect cache
	}
	for {
		res := s.dcache.Access(addr, write, c)
		if !res.MSHRFull {
			return res.Ready
		}
		c = res.Ready
	}
}

// issue models the in-order issue stage: up to IssueWidth operations leave
// the queue per cycle, blocking on operand readiness, functional units, and
// memory structural hazards. It returns the number of instructions issued
// and, for zero-issue cycles, the stall cause blocking the queue head.
func (s *sim) issue(now uint64) (int, obs.StallCause, error) {
	issued := 0
	memIssued := 0
	aluUsed := 0
	fpAddUsed := 0
	cause := obs.StallFrontend

	if s.pendLen == 0 && s.srcDone && s.batchPos >= s.batchLen {
		cause = obs.StallDrain // program done; store buffer still draining
	}
	for issued < s.cfg.IssueWidth && s.pendLen > 0 {
		q := s.pendHeadEnt()
		if q.earliest > now {
			cause = obs.StallFrontend // head not yet through IF/ID
			break
		}

		// In the AGI organization ALU-class operations execute one stage
		// later than address generation: their operands are needed one
		// cycle later (hiding load-use latency) and their results arrive
		// one cycle later (the address-use hazard).
		needAt := now
		aluShift := uint64(0)
		if s.cfg.AGI {
			switch q.pre.Class {
			case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassSyscall:
				needAt = now + 1
				aluShift = 1
			}
		}

		// In-order issue: all source operands must be ready.
		ready := true
		for _, u := range q.pre.Uses[:q.pre.NUses] {
			if s.regReady[u] > needAt {
				ready = false
				break
			}
		}
		if !ready {
			cause = obs.StallOperand
			break
		}

		var resultReady uint64
		switch q.pre.Class {
		case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassSyscall:
			if aluUsed >= s.cfg.IntALUs {
				cause = obs.StallUnit
				goto stall
			}
			aluUsed++
			resultReady = now + uint64(s.cfg.IntALULat.Result) + aluShift
		case isa.ClassIntMul:
			if s.intMDFree > now {
				cause = obs.StallUnit
				goto stall
			}
			s.intMDFree = now + uint64(s.cfg.IntMulLat.Interval)
			resultReady = now + uint64(s.cfg.IntMulLat.Result)
		case isa.ClassIntDiv:
			if s.intMDFree > now {
				cause = obs.StallUnit
				goto stall
			}
			s.intMDFree = now + uint64(s.cfg.IntDivLat.Interval)
			resultReady = now + uint64(s.cfg.IntDivLat.Result)
		case isa.ClassFPAdd:
			if fpAddUsed >= s.cfg.FPAdders {
				cause = obs.StallUnit
				goto stall
			}
			fpAddUsed++
			resultReady = now + uint64(s.cfg.FPAddLat.Result)
		case isa.ClassFPMul:
			if s.fpMDFree > now {
				cause = obs.StallUnit
				goto stall
			}
			s.fpMDFree = now + uint64(s.cfg.FPMulLat.Interval)
			resultReady = now + uint64(s.cfg.FPMulLat.Result)
		case isa.ClassFPDiv:
			if s.fpMDFree > now {
				cause = obs.StallUnit
				goto stall
			}
			s.fpMDFree = now + uint64(s.cfg.FPDivLat.Interval)
			resultReady = now + uint64(s.cfg.FPDivLat.Result)
		case isa.ClassLoad:
			if memIssued >= s.cfg.LoadStore {
				cause = obs.StallMemPort
				goto stall
			}
			ok, rdy := s.scheduleLoad(q, now)
			if !ok {
				cause = obs.StallMemPort
				goto stall
			}
			memIssued++
			resultReady = rdy
			s.stats.Loads++
			s.stats.LoadLatency.Add(rdy - now)
			if s.pred != nil {
				s.pred.Train(q.pc, q.effAddr)
			}
		case isa.ClassStore:
			if memIssued >= s.cfg.LoadStore {
				cause = obs.StallMemPort
				goto stall
			}
			if !s.scheduleStore(q, now) {
				// Distinguish a full store buffer from a busy cache port.
				if s.sbLen >= s.cfg.StoreBufferEntries {
					cause = obs.StallStoreBuffer
				} else {
					cause = obs.StallMemPort
				}
				goto stall
			}
			memIssued++
			resultReady = now + 1 // post-increment base writeback
			s.stats.Stores++
			if s.pred != nil {
				s.pred.Train(q.pc, q.effAddr)
			}
		}

		// Update the scoreboard. Post-increment memory ops write their base
		// register from the AGU one cycle after issue regardless of the
		// access latency.
		for _, d := range q.pre.Defs[:q.pre.NDefs] {
			rdy := resultReady
			if q.pre.Flags&isa.PrePostInc != 0 && d == q.pre.BaseU {
				rdy = now + 1
			}
			s.regReady[d] = rdy
		}
		s.note(resultReady)
		s.stats.Insts++
		if s.sink != nil {
			var addr uint32
			if q.pre.IsMem() {
				addr = q.effAddr
			}
			s.sink.Event(obs.Event{Kind: obs.KindIssue, Cycle: now, PC: q.pc, Addr: addr, Val: resultReady})
		}
		s.pendPop()
		issued++
		continue

	stall:
		break
	}
	return issued, cause, nil
}

// facEligible reports whether the access may consult the prediction
// machine at this cycle. The register-offset gate models operand
// availability in the prediction circuit, so it applies only to
// operand-based machines; a PC-indexed table predicts from the PC alone.
func (s *sim) facEligible(q *qent, now uint64, isLoad bool) bool {
	if s.pred == nil {
		return false
	}
	if s.opBased && q.pre.Flags&isa.PreRegOffset != 0 && !s.cfg.SpeculateRegReg {
		return false
	}
	if !isLoad && !s.cfg.SpeculateStores {
		return false
	}
	// Accesses in the cycle after a mispredict stall to MEM — except a
	// load immediately after a misspeculated load (Section 5.5).
	if s.haveMispred && now == s.lastMispredCycle+1 {
		if !(isLoad && s.lastMispredWasLoad) {
			return false
		}
	}
	return true
}

func (s *sim) noteMispredict(now uint64, wasLoad bool) {
	s.lastMispredCycle = now
	s.lastMispredWasLoad = wasLoad
	s.haveMispred = true
}

// scheduleLoad books cache bandwidth and computes the cycle the loaded
// value becomes available. It returns ok=false when the load must stall
// this cycle for a structural hazard.
func (s *sim) scheduleLoad(q *qent, now uint64) (bool, uint64) {
	noPred := false
	if s.facEligible(q, now, true) {
		// Predict is pure, so calling it before the port check is safe: a
		// stalled load re-predicts identically next cycle (in-order issue
		// keeps the stalled head blocking, so no training intervenes).
		r := s.pred.Predict(q.pc, q.base, q.offset, q.isRegOff)
		if r.Spec {
			if !s.readFree(now) {
				return false, 0
			}
			ok, fail := resolve(r, q.effAddr)
			s.stats.LoadsSpeculated++
			s.useRead(now)
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindFACPredict, Flags: valFlags(q), Fail: fail, Cycle: now, PC: q.pc, Addr: r.Addr, Val: uint64(q.memVal)})
			}
			if ok {
				ready := s.dcacheAccess(q.effAddr, false, now)
				return true, maxU64(ready+1, now+1)
			}
			// Misprediction: the EX-cycle access is wasted; the load replays in
			// MEM with the architectural address (replays bypass the port
			// limit but are counted).
			s.stats.LoadSpecFailed++
			s.stats.ExtraAccesses++
			fail.CountInto(&s.stats.LoadFailKinds)
			s.noteMispredict(now, true)
			s.useRead(now + 1)
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindReplay, Cycle: now + 1, PC: q.pc, Addr: q.effAddr})
			}
			ready := s.dcacheAccess(q.effAddr, false, now+1)
			return true, maxU64(ready+1, now+2)
		}
		// The machine declined to predict: the load proceeds down the
		// ordinary non-speculative path, counted once it schedules.
		noPred = true
	}

	accessCycle := now + uint64(s.cfg.LoadLatency-1)
	if !s.readFree(accessCycle) {
		return false, 0
	}
	if noPred {
		s.stats.LoadsNoPredict++
		if s.sink != nil {
			s.sink.Event(obs.Event{Kind: obs.KindFACPredict, Flags: obs.FlagNoPredict | valFlags(q), Cycle: now, PC: q.pc, Val: uint64(q.memVal)})
		}
	}
	s.useRead(accessCycle)
	ready := s.dcacheAccess(q.effAddr, false, accessCycle)
	return true, maxU64(ready+1, accessCycle+1)
}

// valFlags marks KindFACPredict events whose Val field carries the
// architectural transferred value (integer accesses; see emu.Trace).
func valFlags(q *qent) obs.Flags {
	if q.hasVal {
		return obs.FlagHasVal
	}
	return 0
}

// resolve turns a prediction into its verification outcome: algebraic
// machines carry exact failure signals (correct iff none), table machines
// are checked against the architectural effective address and charge
// their predict-time signal set only when wrong.
func resolve(r predict.Result, effAddr uint32) (bool, fac.Failure) {
	ok := r.Fail == 0
	if !r.Algebraic {
		ok = r.Addr == effAddr
	}
	if ok {
		return true, 0
	}
	return false, r.Fail
}

// scheduleStore books the store's tag probe and a store-buffer entry.
func (s *sim) scheduleStore(q *qent, now uint64) bool {
	if s.sbLen >= s.cfg.StoreBufferEntries {
		// Full buffer stalls the pipeline while the oldest entry retires
		// (handled in retireStores via the forced path).
		s.stats.StoreBufferFullStalls++
		return false
	}
	noPred := false
	if s.facEligible(q, now, false) {
		r := s.pred.Predict(q.pc, q.base, q.offset, q.isRegOff)
		if r.Spec {
			if !s.storeFree(now) {
				return false
			}
			ok, fail := resolve(r, q.effAddr)
			s.stats.StoresSpeculated++
			s.useStore(now)
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindFACPredict, Flags: obs.FlagStore | valFlags(q), Fail: fail, Cycle: now, PC: q.pc, Addr: r.Addr, Val: uint64(q.memVal)})
			}
			if ok {
				s.sbPush(storeEnt{addr: q.effAddr, entered: now})
				return true
			}
			// Mispredicted store: re-probe next cycle with the architectural
			// address and fix up the buffered entry.
			s.stats.StoreSpecFailed++
			s.stats.ExtraAccesses++
			fail.CountInto(&s.stats.StoreFailKinds)
			s.noteMispredict(now, false)
			s.useStore(now + 1)
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindReplay, Flags: obs.FlagStore, Cycle: now + 1, PC: q.pc, Addr: q.effAddr})
			}
			s.sbPush(storeEnt{addr: q.effAddr, entered: now + 1})
			return true
		}
		noPred = true
	}

	probeCycle := now + 1 // MEM stage
	if !s.storeFree(probeCycle) {
		return false
	}
	if noPred {
		s.stats.StoresNoPredict++
		if s.sink != nil {
			s.sink.Event(obs.Event{Kind: obs.KindFACPredict, Flags: obs.FlagStore | obs.FlagNoPredict | valFlags(q), Cycle: now, PC: q.pc, Val: uint64(q.memVal)})
		}
	}
	s.useStore(probeCycle)
	s.sbPush(storeEnt{addr: q.effAddr, entered: probeCycle})
	return true
}

// retireStores drains the store buffer during cycles in which the data
// cache is otherwise unused, or forcibly when the buffer is full.
func (s *sim) retireStores(now uint64) {
	if s.sbLen == 0 {
		return
	}
	i := s.slot(now)
	idle := s.readsAt[i] == 0 && !s.storeAt[i]
	full := s.sbLen >= s.cfg.StoreBufferEntries
	if !idle && !full {
		return
	}
	if s.storeBuf[s.sbHead].entered >= now {
		return // entries need a cycle in the buffer before retiring
	}
	e := s.sbPop()
	if s.sink != nil {
		s.sink.Event(obs.Event{Kind: obs.KindStoreRetire, Flags: obs.FlagStore, Cycle: now, Addr: e.addr, Val: uint64(s.sbLen)})
	}
	ready := s.dcacheAccess(e.addr, true, now)
	s.note(ready)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
