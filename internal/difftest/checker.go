package difftest

import (
	"fmt"

	"repro/internal/fac"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/predict"
)

// checker is an obs.Sink that cross-validates the pipeline's event stream
// against its run statistics and the FAC predictor's contract. It records
// the first violation; verify reports it (or any end-of-run mismatch).
//
// Invariants checked:
//
//   - A KindFACPredict with no failure signal is a *verified* prediction:
//     the instruction's KindIssue event must carry the identical address
//     (the predictor's OK ⟹ Predicted == base+ofs contract, observed
//     through the simulator rather than asserted in unit tests).
//   - A failed prediction must be followed by exactly one KindReplay in
//     the next cycle carrying the architectural address, and a verified
//     one by none, so total replays equal total verification failures.
//   - Every simulated cycle is either an issue cycle or carries exactly
//     one KindStall event, and the per-cause stall counts reproduce
//     Stats.StallCycles (the stall partition sums to no-issue cycles).
//   - Speculation and class counters in Stats equal the event counts.
type checker struct {
	name string
	cfg  pipeline.Config
	// sigMask covers the failure-signal slots the active prediction
	// machine may charge (per-machine accounting: an event raising a bit
	// outside the machine's own signal set is a bug).
	sigMask fac.Failure

	err error

	issueCycles map[uint64]bool
	stallCycles map[uint64]bool
	stallCounts [obs.NumStallCauses]uint64

	loadSpec, storeSpec     uint64
	loadFail, storeFail     uint64
	loadNoPred, storeNoPred uint64
	replays                 uint64
	loadKinds, storeKinds   [fac.NumFailureSignals]uint64

	// Pending predict → issue pairing (cleared by the access's own issue
	// event, which always follows within the same issue scan).
	havePred   bool
	predStore  bool
	predFail   fac.Failure
	predAddr   uint32
	predCycle  uint64
	haveReplay bool
	replayAddr uint32
}

func newChecker(m Machine) *checker {
	c := &checker{
		name:        m.Name,
		cfg:         m.Cfg,
		issueCycles: make(map[uint64]bool),
		stallCycles: make(map[uint64]bool),
	}
	if names := predict.SignalNamesFor(m.Cfg.Predictor); names != nil {
		c.sigMask = fac.Failure(1)<<len(names) - 1
	}
	return c
}

func (c *checker) fail(format string, args ...interface{}) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *checker) Event(e obs.Event) {
	switch e.Kind {
	case obs.KindFACPredict:
		if e.Flags&obs.FlagNoPredict != 0 {
			// A declined prediction: the access proceeds down the ordinary
			// non-speculative path, so it enters no predict→issue pairing.
			if e.Fail != 0 || e.Addr != 0 {
				c.fail("cycle %d pc %#x: no-predict event carries fail %v / addr %#x", e.Cycle, e.PC, e.Fail, e.Addr)
				return
			}
			if e.Flags&obs.FlagStore != 0 {
				c.storeNoPred++
			} else {
				c.loadNoPred++
			}
			return
		}
		if c.havePred {
			c.fail("cycle %d pc %#x: FAC predict while predict at cycle %d pc unresolved", e.Cycle, e.PC, c.predCycle)
			return
		}
		if e.Fail&^c.sigMask != 0 {
			c.fail("cycle %d pc %#x: failure %v outside the machine's signal slots (mask %#x)", e.Cycle, e.PC, e.Fail, c.sigMask)
			return
		}
		c.havePred = true
		c.predStore = e.Flags&obs.FlagStore != 0
		c.predFail = e.Fail
		c.predAddr = e.Addr
		c.predCycle = e.Cycle
		c.haveReplay = false
		if c.predStore {
			c.storeSpec++
			if e.Fail != 0 {
				c.storeFail++
				e.Fail.CountInto(&c.storeKinds)
			}
		} else {
			c.loadSpec++
			if e.Fail != 0 {
				c.loadFail++
				e.Fail.CountInto(&c.loadKinds)
			}
		}

	case obs.KindReplay:
		c.replays++
		if !c.havePred {
			c.fail("cycle %d pc %#x: replay without a pending prediction", e.Cycle, e.PC)
			return
		}
		if c.predFail == 0 {
			c.fail("cycle %d pc %#x: replay of a *verified* prediction (addr %#x)", e.Cycle, e.PC, c.predAddr)
			return
		}
		if c.haveReplay {
			c.fail("cycle %d pc %#x: second replay for one mispredict", e.Cycle, e.PC)
			return
		}
		if e.Cycle != c.predCycle+1 {
			c.fail("replay at cycle %d for a predict at cycle %d (want predict+1)", e.Cycle, c.predCycle)
			return
		}
		if isStore := e.Flags&obs.FlagStore != 0; isStore != c.predStore {
			c.fail("cycle %d: replay store-flag %v != predict store-flag %v", e.Cycle, isStore, c.predStore)
			return
		}
		c.haveReplay = true
		c.replayAddr = e.Addr

	case obs.KindIssue:
		c.issueCycles[e.Cycle] = true
		if !c.havePred {
			return
		}
		// This issue event is the speculated access itself; its Addr is
		// the architectural effective address.
		if e.Cycle != c.predCycle {
			c.fail("access predicted at cycle %d issued at cycle %d", c.predCycle, e.Cycle)
			return
		}
		if c.predFail == 0 {
			if e.Addr != c.predAddr {
				c.fail("cycle %d pc %#x: verified prediction %#x != architectural address %#x (fac OK-contract violated)",
					e.Cycle, e.PC, c.predAddr, e.Addr)
				return
			}
		} else {
			if !c.haveReplay {
				c.fail("cycle %d pc %#x: failed prediction (%v) issued without a replay", e.Cycle, e.PC, c.predFail)
				return
			}
			if e.Addr != c.replayAddr {
				c.fail("cycle %d pc %#x: replay address %#x != architectural address %#x",
					e.Cycle, e.PC, c.replayAddr, e.Addr)
				return
			}
		}
		c.havePred = false
		c.haveReplay = false

	case obs.KindStall:
		if c.stallCycles[e.Cycle] {
			c.fail("cycle %d: two stall events in one cycle", e.Cycle)
			return
		}
		if e.Cause >= obs.NumStallCauses {
			c.fail("cycle %d: unknown stall cause %d", e.Cycle, e.Cause)
			return
		}
		c.stallCycles[e.Cycle] = true
		c.stallCounts[e.Cause]++
	}
}

// verify checks the end-of-run relationships between the observed event
// stream, the run statistics, and the instruction-class counts of the
// source stream.
func (c *checker) verify(st pipeline.Stats, want streamCounts) error {
	if c.err != nil {
		return c.err
	}
	if c.havePred {
		return fmt.Errorf("run ended with a prediction at cycle %d never issued", c.predCycle)
	}

	// Stream composition.
	if st.Insts != want.insts {
		return fmt.Errorf("issued %d insts, stream has %d", st.Insts, want.insts)
	}
	if st.Loads != want.loads || st.Stores != want.stores {
		return fmt.Errorf("counted %d loads / %d stores, stream has %d / %d",
			st.Loads, st.Stores, want.loads, want.stores)
	}
	if st.BranchLookups != want.controls {
		return fmt.Errorf("%d branch lookups, stream has %d control transfers", st.BranchLookups, want.controls)
	}
	if st.LoadLatency.Count != st.Loads {
		return fmt.Errorf("load-latency histogram has %d samples, %d loads issued", st.LoadLatency.Count, st.Loads)
	}

	// Speculation accounting: stats mirror the event stream exactly, and
	// replays equal verification failures.
	if c.loadSpec != st.LoadsSpeculated || c.storeSpec != st.StoresSpeculated {
		return fmt.Errorf("event stream saw %d/%d speculated loads/stores, stats say %d/%d",
			c.loadSpec, c.storeSpec, st.LoadsSpeculated, st.StoresSpeculated)
	}
	if c.loadFail != st.LoadSpecFailed || c.storeFail != st.StoreSpecFailed {
		return fmt.Errorf("event stream saw %d/%d failed loads/stores, stats say %d/%d",
			c.loadFail, c.storeFail, st.LoadSpecFailed, st.StoreSpecFailed)
	}
	if c.replays != c.loadFail+c.storeFail {
		return fmt.Errorf("%d replays for %d verification failures", c.replays, c.loadFail+c.storeFail)
	}
	if st.ExtraAccesses != c.replays {
		return fmt.Errorf("stats count %d extra accesses, event stream saw %d replays", st.ExtraAccesses, c.replays)
	}
	if c.loadKinds != st.LoadFailKinds || c.storeKinds != st.StoreFailKinds {
		return fmt.Errorf("failure-kind breakdown diverged: events %v/%v, stats %v/%v",
			c.loadKinds, c.storeKinds, st.LoadFailKinds, st.StoreFailKinds)
	}
	if c.loadNoPred != st.LoadsNoPredict || c.storeNoPred != st.StoresNoPredict {
		return fmt.Errorf("event stream saw %d/%d declined loads/stores, stats say %d/%d",
			c.loadNoPred, c.storeNoPred, st.LoadsNoPredict, st.StoresNoPredict)
	}
	pred := c.cfg.Predictor
	if pred == "" && c.loadSpec+c.storeSpec+c.replays+c.loadNoPred+c.storeNoPred != 0 {
		return fmt.Errorf("machine without a predictor speculated (%d loads, %d stores, %d replays, %d/%d declined)",
			c.loadSpec, c.storeSpec, c.replays, c.loadNoPred, c.storeNoPred)
	}
	if pred != "" && !c.cfg.SpeculateStores && c.storeSpec+c.storeNoPred != 0 {
		// Ineligible stores never reach the prediction machine, so they can
		// neither speculate nor be declined.
		return fmt.Errorf("store speculation disabled but %d stores speculated, %d declined", c.storeSpec, c.storeNoPred)
	}
	if pred != "" && !c.cfg.SpeculateRegReg {
		// Without reg+reg speculation the conservative negative-index-
		// register signal can never fire on operand-based machines:
		// constant offsets take the negative-constant path. The slot only
		// exists on machines whose signal set includes it.
		for i, name := range predict.SignalNamesFor(pred) {
			if name != "negindexreg" {
				continue
			}
			if c.loadKinds[i] != 0 || c.storeKinds[i] != 0 {
				return fmt.Errorf("negindexreg failures (%d/%d) without reg+reg speculation",
					c.loadKinds[i], c.storeKinds[i])
			}
		}
	}

	// Stall partition: every simulated cycle either issued or carries
	// exactly one attributed stall event, and the per-cause counters
	// reproduce the stats.
	if got := uint64(len(c.issueCycles)); got != st.IssueActiveCycles {
		return fmt.Errorf("%d issue-active cycles in events, stats say %d", got, st.IssueActiveCycles)
	}
	if c.stallCounts != st.StallCycles {
		return fmt.Errorf("per-cause stall counts diverged: events %v, stats %v", c.stallCounts, st.StallCycles)
	}
	var maxCycle uint64
	for cy := range c.issueCycles {
		if c.stallCycles[cy] {
			return fmt.Errorf("cycle %d both issued and stalled", cy)
		}
		if cy > maxCycle {
			maxCycle = cy
		}
	}
	for cy := range c.stallCycles {
		if cy > maxCycle {
			maxCycle = cy
		}
	}
	n := uint64(len(c.issueCycles) + len(c.stallCycles))
	if n > 0 && maxCycle != n-1 {
		return fmt.Errorf("issue/stall cycles are not a contiguous partition: %d cycles seen, last is %d", n, maxCycle)
	}
	return nil
}
