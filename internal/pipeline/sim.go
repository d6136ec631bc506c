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

// Lender supplies the dynamic instruction stream in program order, in
// place: Lend returns the next traces in the lender's own storage, valid
// until its next call. An empty slice with a nil error ends the stream; a
// fault comes on the call after the traces before it, and the pipeline
// issues those and drains its store buffer before it returns the fault.
// Every trace carries its pre-decode (emu.Trace.Pre), the only form of
// the instruction the timing model reads. Core lends the chunks of its
// emulate-ahead ring, Replay a recorded stream; the stream is replayed
// as-is, so its producer may run ahead of the timing model.
type Lender interface {
	Lend() ([]emu.Trace, error)
}

// Replay lends a recorded stream in place: trs on the first Lend, then
// err, the fault that ended the recording (nil ends the stream). The
// pipeline never writes a trace, so one recording can be replayed under
// any number of machines, each through a Replay of its own.
func Replay(trs []emu.Trace, err error) Lender { return &replay{trs, err} }

type replay struct {
	trs []emu.Trace
	err error
}

func (r *replay) Lend() ([]emu.Trace, error) {
	if trs := r.trs; len(trs) > 0 {
		r.trs = nil
		return trs, nil
	}
	return nil, r.err
}

// Source supplies the stream by copy to Run, the entry the benchmark
// module's layer ledger still uses: NextBatch fills buf with up to
// len(buf) traces and returns the count, 0 at end of stream, or the
// traces before a fault with the fault, as an io.Reader may.
type Source interface {
	NextBatch(buf []emu.Trace) (int, error)
}

// batchSize is the length of the buffer through which a Source is lent.
const batchSize = 256

// batchLender lends a Source's traces from one buffer of its own, so
// every stream reaches fetch through Lend. A fault that comes with
// traces is kept for the next Lend.
type batchLender struct {
	src Source
	buf [batchSize]emu.Trace
	err error
}

func (b *batchLender) Lend() ([]emu.Trace, error) {
	if b.err != nil {
		return nil, b.err
	}
	n, err := b.src.NextBatch(b.buf[:])
	if n == 0 {
		return nil, err
	}
	b.err = err
	return b.buf[:n], nil
}

// ringBits sizes the per-cycle cache-port reservation ring. Reservations
// only ever target the current or next cycle, so a small ring suffices.
const ringBits = 6

type sim struct {
	cfg     Config
	pred    predict.Predictor // nil = no address prediction
	opBased bool              // pred.OperandBased() (hoisted off the hot path)
	src     Lender
	ctx     context.Context // nil = cancellation disabled

	icache *cache.Cache
	dcache *cache.Cache
	btb    *bpred.BTB

	stats Stats
	sink  obs.Sink // nil = observability disabled (no event allocations)

	// Fetch: the traces src lent last (batch[batchPos:] is unconsumed).
	nextFetchCycle uint64
	batch          []emu.Trace
	batchPos       int
	srcDone        bool  // src ended the stream or faulted; batch is empty
	srcErr         error // src's fault, returned once the pipeline drains

	// Issue queue (fetched, not yet issued), in program order. A fixed
	// ring whose length is the queue bound (see queueFull), so the steady
	// state allocates nothing.
	pending  []qent
	pendHead int
	pendLen  int

	// Scoreboard: cycle at which each unified register can be sourced.
	// Indexed by a uint8 id, so 256 entries need no bounds checks; ids
	// past isa.NumURegs and register 0 ($zero, in no op's Defs) stay 0.
	regReady [256]uint64

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

// queueFull reports whether the issue queue lacks room for a fetch group.
func (s *sim) queueFull() bool { return s.pendLen+s.cfg.FetchWidth > len(s.pending) }

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

// Run simulates a Source's stream and returns timing statistics.
func Run(cfg Config, src Source) (Stats, error) {
	return RunCtx(nil, cfg, &batchLender{src: src}, nil)
}

// ctxCheckInterval spaces out cancellation checks: the context is polled
// every 4096 simulated cycles (fast-forwarded cycles count), so an abort
// costs at most a few microseconds of extra simulation while the
// steady-state loop pays one nil comparison per cycle.
const ctxCheckInterval = 1 << 12

// RunCtx simulates a lent stream and returns timing statistics. A
// non-nil sink receives every pipeline and cache event in simulation
// order (nil disables the stream at zero cost). When ctx is non-nil, its
// cancellation or deadline aborts the cycle loop promptly (checked every
// few thousand cycles) and the run returns an error wrapping ctx.Err().
// A nil ctx disables the checks entirely; timing is identical either way.
func RunCtx(ctx context.Context, cfg Config, src Lender, sink obs.Sink) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	s := &sim{cfg: cfg, src: src, ctx: ctx, btb: bpred.New(cfg.BTBEntries), sink: sink}
	s.pending = make([]qent, 2*cfg.FetchWidth+cfg.IssueWidth)
	s.storeBuf = make([]storeEnt, cfg.StoreBufferEntries)
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
		if s.srcDone && s.pendLen == 0 && s.sbLen == 0 {
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

		if now >= s.nextFetchCycle {
			s.fetch(now)
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
		if s.sbLen > 0 {
			s.retireStores(now)
		}

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
	return s.srcErr
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
	if !s.srcDone {
		if !s.queueFull() {
			if s.nextFetchCycle <= now {
				return 0 // fetch is active; no quiescent window
			}
			wake = s.nextFetchCycle
		}
	}
	if s.pendLen > 0 {
		q := s.pendHeadEnt()
		if q.earliest > now {
			wake = min(wake, q.earliest)
		} else {
			// The head stalled on its operands, which the issue stage
			// needs shift cycles after issue, or, operands ready, on a
			// non-pipelined unit's issue interval; any other hazard (an
			// ALU, a cache port, a store buffer slot) can clear within a
			// cycle and is not fast-forwarded.
			sh := s.shift(q.pre.Class)
			head := uint64(0)
			if r := s.operandsReady(&q.pre); r > now+sh {
				head = r - sh
			}
			if head == 0 {
				free, _ := s.mdUnit(q.pre.Class)
				if free == nil || *free <= now {
					return 0
				}
				head = *free
			}
			wake = min(wake, head)
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

// operandsReady returns the cycle by which all of an op's source
// operands are ready. It reads all three Uses slots: isa.Predecode leaves
// the unused ones 0, and register 0's entry stays 0, so the padding never
// raises the maximum (TestPredecodePadding).
func (s *sim) operandsReady(p *isa.Pre) uint64 {
	return max(s.regReady[p.Uses[0]], s.regReady[p.Uses[1]], s.regReady[p.Uses[2]])
}

// refill borrows the source's next traces once the lent ones are spent.
// It reports false at the end of the stream or on a source fault, which
// it keeps for run to return once the instructions already fetched have
// issued. Any pointer into the previous batch is invalid after it.
func (s *sim) refill() bool {
	if s.srcDone {
		return false
	}
	b, err := s.src.Lend()
	s.batch, s.batchPos = b, 0
	s.srcDone, s.srcErr = len(b) == 0, err
	return !s.srcDone
}

// fetch models the IF stage: up to FetchWidth contiguous instructions per
// cycle through the I-cache, ending early at predicted- or actually-taken
// control transfers, charging the BTB misprediction penalty. The caller
// calls it only once now reaches nextFetchCycle.
func (s *sim) fetch(now uint64) {
	if s.queueFull() {
		return // fetch stalls
	}
	if s.batchPos == len(s.batch) && !s.refill() {
		return
	}
	firstPC := s.batch[s.batchPos].PC

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
		if s.batchPos == len(s.batch) && !s.refill() {
			break
		}
		tr := &s.batch[s.batchPos]
		if tr.PC != expectPC {
			break // discontiguous (should not happen: redirects end groups)
		}
		if s.icache != nil && tr.PC&blockMask != firstPC&blockMask {
			res := s.icache.Access(tr.PC, false, now)
			if res.Ready > groupReady {
				groupReady = res.Ready
			}
		}
		s.batchPos++
		q := s.pendSlot()
		q.pc = tr.PC
		q.effAddr = tr.EffAddr
		q.base = tr.Base
		q.offset = tr.Offset
		q.isRegOff = tr.IsRegOffset
		q.memVal, q.hasVal = tr.MemVal, tr.HasMemVal
		q.earliest = groupReady + 2
		q.pre = *tr.Pre
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
}

// Cache ports: up to DCacheReadsPerCycle loads, or one store, each cycle.

func (s *sim) slot(c uint64) int { return int(c & (1<<ringBits - 1)) }

// portFree reports whether cycle c can take one more load, or a store.
func (s *sim) portFree(c uint64, store bool) bool {
	i := s.slot(c)
	limit := s.cfg.DCacheReadsPerCycle
	if store {
		limit = 1
	}
	return !s.storeAt[i] && int(s.readsAt[i]) < limit
}

func (s *sim) usePort(c uint64, store bool) {
	if store {
		s.storeAt[s.slot(c)] = true
	} else {
		s.readsAt[s.slot(c)]++
	}
}

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

// aluClass reports whether ops of class c execute on an integer ALU.
func aluClass(c isa.OpClass) bool {
	switch c {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassSyscall:
		return true
	}
	return false
}

// shift is how many cycles later than issue an op of class c needs its
// operands and delivers its result. In the AGI organization ALU-class
// operations execute one stage after address generation, which hides
// load-use latency and exposes the address-use hazard.
func (s *sim) shift(c isa.OpClass) uint64 {
	if s.cfg.AGI && aluClass(c) {
		return 1
	}
	return 0
}

// mdUnit returns the non-pipelined unit an op of class c occupies, as
// the cycle that unit is busy until, and the op's latency; nil for a
// class that runs on a pipelined unit.
func (s *sim) mdUnit(c isa.OpClass) (*uint64, Latency) {
	switch c {
	case isa.ClassIntMul:
		return &s.intMDFree, s.cfg.IntMulLat
	case isa.ClassIntDiv:
		return &s.intMDFree, s.cfg.IntDivLat
	case isa.ClassFPMul:
		return &s.fpMDFree, s.cfg.FPMulLat
	case isa.ClassFPDiv:
		return &s.fpMDFree, s.cfg.FPDivLat
	}
	return nil, Latency{}
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

	if s.pendLen == 0 && s.srcDone {
		cause = obs.StallDrain // program done; store buffer still draining
	}
	for issued < s.cfg.IssueWidth && s.pendLen > 0 {
		q := s.pendHeadEnt()
		if q.earliest > now {
			cause = obs.StallFrontend // head not yet through IF/ID
			break
		}

		// In-order issue: all source operands must be ready, shift cycles
		// after issue.
		sh := s.shift(q.pre.Class)
		if s.operandsReady(&q.pre) > now+sh {
			cause = obs.StallOperand
			break
		}

		var resultReady uint64
		switch c := q.pre.Class; {
		case aluClass(c):
			if aluUsed >= s.cfg.IntALUs {
				cause = obs.StallUnit
				goto stall
			}
			aluUsed++
			resultReady = now + uint64(s.cfg.IntALULat.Result) + sh
		case c == isa.ClassLoad || c == isa.ClassStore:
			store := c == isa.ClassStore
			if memIssued >= s.cfg.LoadStore {
				cause = obs.StallMemPort
				goto stall
			}
			if store && s.sbLen >= s.cfg.StoreBufferEntries {
				// A full buffer stalls the pipeline while the oldest
				// entry retires (retireStores' forced path).
				s.stats.StoreBufferFullStalls++
				cause = obs.StallStoreBuffer
				goto stall
			}
			nonSpec := now + uint64(s.cfg.LoadLatency-1) // a load's cache read
			if store {
				nonSpec = now + 1 // a store's tag probe in MEM
			}
			at, ok := s.access(q, now, nonSpec, store)
			if !ok {
				cause = obs.StallMemPort
				goto stall
			}
			memIssued++
			if store {
				s.sbPush(storeEnt{addr: q.effAddr, entered: at})
				resultReady = now + 1 // post-increment base writeback
				s.stats.Stores++
			} else {
				resultReady = max(s.dcacheAccess(q.effAddr, false, at)+1, at+1)
				s.stats.Loads++
				s.stats.LoadLatency.Add(resultReady - now)
			}
			if s.pred != nil {
				s.pred.Train(q.pc, q.effAddr)
			}
		case c == isa.ClassFPAdd:
			if fpAddUsed >= s.cfg.FPAdders {
				cause = obs.StallUnit
				goto stall
			}
			fpAddUsed++
			resultReady = now + uint64(s.cfg.FPAddLat.Result)
		default:
			free, lat := s.mdUnit(c)
			if *free > now {
				cause = obs.StallUnit
				goto stall
			}
			*free = now + uint64(lat.Interval)
			resultReady = now + uint64(lat.Result)
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
func (s *sim) facEligible(q *qent, now uint64, store bool) bool {
	if s.pred == nil {
		return false
	}
	if s.opBased && q.pre.Flags&isa.PreRegOffset != 0 && !s.cfg.SpeculateRegReg {
		return false
	}
	if store && !s.cfg.SpeculateStores {
		return false
	}
	// Accesses in the cycle after a mispredict stall to MEM — except a
	// load immediately after a misspeculated load (Section 5.5).
	if s.haveMispred && now == s.lastMispredCycle+1 {
		if store || !s.lastMispredWasLoad {
			return false
		}
	}
	return true
}

// access books the data-cache port for a load or store issued at now and
// returns the cycle of its architectural access, at which a load reads
// the cache and a store enters the buffer, or false when a busy port
// stalls the op this cycle. An access the predictor speculates on uses
// the port in EX (now); when verification fails, the EX access is wasted
// and the op replays in MEM (now+1) with the architectural address, past
// the port limit but counted. Any other access, including one the
// machine declines to predict, waits for the non-speculative cycle
// nonSpec.
func (s *sim) access(q *qent, now, nonSpec uint64, store bool) (uint64, bool) {
	var flags obs.Flags
	speculated, failed, declined, kinds := &s.stats.LoadsSpeculated, &s.stats.LoadSpecFailed, &s.stats.LoadsNoPredict, &s.stats.LoadFailKinds
	if store {
		flags = obs.FlagStore
		speculated, failed, declined, kinds = &s.stats.StoresSpeculated, &s.stats.StoreSpecFailed, &s.stats.StoresNoPredict, &s.stats.StoreFailKinds
	}
	noPred := false
	if s.facEligible(q, now, store) {
		// Predict is pure, so calling it before the port check is safe: a
		// stalled op re-predicts identically next cycle (in-order issue
		// keeps the stalled head blocking, so no training intervenes).
		r := s.pred.Predict(q.pc, q.base, q.offset, q.isRegOff)
		if r.Spec {
			if !s.portFree(now, store) {
				return 0, false
			}
			ok, fail := resolve(r, q.effAddr)
			*speculated++
			s.usePort(now, store)
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindFACPredict, Flags: flags | valFlags(q), Fail: fail, Cycle: now, PC: q.pc, Addr: r.Addr, Val: uint64(q.memVal)})
			}
			if ok {
				return now, true
			}
			*failed++
			s.stats.ExtraAccesses++
			fail.CountInto(kinds)
			s.lastMispredCycle, s.lastMispredWasLoad, s.haveMispred = now, !store, true
			s.usePort(now+1, store)
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindReplay, Flags: flags, Cycle: now + 1, PC: q.pc, Addr: q.effAddr})
			}
			return now + 1, true
		}
		noPred = true
	}
	if !s.portFree(nonSpec, store) {
		return 0, false
	}
	if noPred {
		*declined++
		if s.sink != nil {
			s.sink.Event(obs.Event{Kind: obs.KindFACPredict, Flags: flags | obs.FlagNoPredict | valFlags(q), Cycle: now, PC: q.pc, Val: uint64(q.memVal)})
		}
	}
	s.usePort(nonSpec, store)
	return nonSpec, true
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

// retireStores drains the store buffer during cycles in which the data
// cache is otherwise unused, or forcibly when the buffer is full. The
// caller calls it only while the buffer holds entries.
func (s *sim) retireStores(now uint64) {
	full := s.sbLen >= s.cfg.StoreBufferEntries
	if !full && !s.portFree(now, true) {
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
