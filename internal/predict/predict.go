// Package predict is the address-predictor zoo: pluggable machines that
// guess a memory access's effective address at issue, before the address
// adder has run, so the data cache can be probed a cycle early. The
// paper's carry-free fast address calculation (internal/fac) is one point
// in this design space; the related work contributes PC-indexed
// last-address prediction (Murthy & Sohi's PCAX) and stride prediction
// (Golden & Mudge's load target buffer, internal/ltb), and the paper's
// software/hardware hybrid becomes the `selective` machine, which consults
// internal/staticfac verdicts to speculate only where static analysis
// cannot prove failure.
//
// The pipeline calls Predict at issue with the PC and the operand values
// (base register + offset), resolves the prediction against the
// architectural effective address, and calls Train exactly once per issued
// access at EX. Per-signal failure accounting plugs into the same
// fixed-width counters obs.FACRecord uses for the FAC machine; each
// machine names its signals (SignalNames) and slot i corresponds to
// failure bit 1<<i, exactly as internal/fac numbers its four signals.
//
// docs/PREDICTORS.md describes the taxonomy and how to add a machine.
package predict

import (
	"fmt"

	"repro/internal/fac"
	"repro/internal/ltb"
)

// Result is one prediction, made at issue time.
type Result struct {
	// Addr is the predicted effective address (meaningful when Spec).
	Addr uint32
	// Spec reports that the machine made a prediction at all. When false
	// the access proceeds down the ordinary non-speculative path and is
	// counted as a no-predict, not a failure — the machine declined (cold
	// table entry, tag conflict, site proven failing) rather than guessed
	// wrong.
	Spec bool
	// Fail carries per-signal failure accounting, slot-compatible with
	// internal/fac: for algebraic machines it is the exact signal set (the
	// prediction is correct iff Fail == 0); for table machines it is the
	// signal set to charge if verification finds Addr wrong.
	Fail fac.Failure
	// Algebraic distinguishes the two verification styles above: true
	// means Fail is exact at predict time (fac, selective), false means
	// the pipeline must compare Addr against the architectural effective
	// address (pcax, stride).
	Algebraic bool
}

// Predictor is one address-prediction machine. Implementations live on the
// simulator's hot path: Predict must be pure (a stalled access retries the
// same cycle-by-cycle schedule and re-calls it), must not allocate, and
// Train is called exactly once per issued memory access.
type Predictor interface {
	// Name returns the machine's registry name ("fac", "pcax", ...).
	Name() string
	// SignalNames names the failure-accounting slots this machine charges;
	// slot i corresponds to failure bit 1<<i. At most fac.NumFailureSignals
	// slots (the fixed counter width shared with obs.FACRecord).
	SignalNames() []string
	// OperandBased reports that predictions derive from the access's
	// operands (base register + offset) rather than its PC history. The
	// pipeline applies the operand-availability gates — SpeculateRegReg —
	// only to operand-based machines; a PC-indexed table needs no operands
	// and predicts regardless of addressing mode.
	OperandBased() bool
	// Predict guesses the effective address for the access at pc with the
	// given base-register value and offset. Pure: no table state changes.
	Predict(pc, base, ofs uint32, isRegOffset bool) Result
	// Train observes the architectural effective address at EX. Called
	// exactly once per issued memory access while the machine is active,
	// whether or not the access speculated.
	Train(pc, actual uint32)
}

// Options configures machine construction. Zero values select defaults.
type Options struct {
	// Geom is the cache/adder geometry (fac and selective machines).
	Geom fac.Config
	// Entries sizes the prediction table (pcax, stride); default 1024.
	Entries int
	// TagBits truncates table tags (pcax, stride); default 8, matching a
	// cheap partial-tag hardware budget. Set to FullTags for full tags.
	TagBits int
	// Static supplies baked-in staticfac verdicts (selective machine).
	Static *StaticTable
}

// FullTags requests untruncated table tags (Options.TagBits).
const FullTags = -1

// DefaultEntries and DefaultTagBits are the table-machine defaults.
const (
	DefaultEntries = 1024
	DefaultTagBits = 8
)

func (o Options) entries() int {
	if o.Entries <= 0 {
		return DefaultEntries
	}
	return o.Entries
}

func (o Options) tagBits() uint {
	switch {
	case o.TagBits == FullTags:
		return 0 // ltb convention: 0 = full tag
	case o.TagBits <= 0:
		return DefaultTagBits
	default:
		return uint(o.TagBits)
	}
}

// table builds a table machine's storage, rejecting sizes internal/ltb
// cannot index.
func (o Options) table(stride bool) (*ltb.Predictor, error) {
	cfg := ltb.Config{Entries: o.entries(), Stride: stride, TagBits: o.tagBits()}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ltb.New(cfg), nil
}

// Names lists the registered machines in presentation order.
func Names() []string {
	return []string{"fac", "pcax", "stride", "selective"}
}

// SignalNamesFor returns the named machine's failure-accounting slot names
// without constructing it (nil for an unknown name). Serialization uses
// this to invert name-keyed failure maps back into slot-indexed counters.
func SignalNamesFor(name string) []string {
	switch name {
	case "fac", "selective":
		return fac.FailureSignalNames[:]
	case "pcax":
		return pcaxSignals
	case "stride":
		return strideSignals
	}
	return nil
}

// New constructs the named machine. The selective machine additionally
// requires Options.Static (built per linked program via BuildStaticTable);
// constructing it without one is an error so a missing bake step cannot
// silently degrade into plain FAC.
func New(name string, o Options) (Predictor, error) {
	switch name {
	case "fac":
		if err := o.Geom.Validate(); err != nil {
			return nil, err
		}
		return &facMachine{geom: o.Geom}, nil
	case "pcax":
		tbl, err := o.table(false)
		if err != nil {
			return nil, err
		}
		return &pcaxMachine{tbl: tbl}, nil
	case "stride":
		tbl, err := o.table(true)
		if err != nil {
			return nil, err
		}
		return &strideMachine{tbl: tbl}, nil
	case "selective":
		if err := o.Geom.Validate(); err != nil {
			return nil, err
		}
		if o.Static == nil {
			return nil, fmt.Errorf("predict: selective machine needs a static verdict table (predict.BuildStaticTable)")
		}
		return &selectiveMachine{geom: o.Geom, static: o.Static}, nil
	}
	return nil, fmt.Errorf("predict: unknown machine %q (have %v)", name, Names())
}
