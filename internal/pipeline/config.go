// Package pipeline implements the cycle-level timing model of the paper's
// baseline machine (Table 5): a 4-way in-order-issue superscalar with
// out-of-order completion, a 5-stage pipe (IF ID EX MEM WB), a BTB branch
// predictor, banked functional units, a non-blocking data cache with a
// non-merging store buffer — extended with fast address calculation
// (Section 5.5): loads and stores may access the data cache speculatively in
// EX using the predicted effective address, replaying in MEM on a
// misprediction.
//
// The model is trace-driven: a functional emulator supplies the dynamic
// instruction stream (with operand values for the predictor), and this
// package accounts time.
package pipeline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/fac"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/prog"
)

// Latency describes one operation class: Result is the number of cycles
// until a dependent may issue; Interval is the unit's issue interval
// (cycles until the unit accepts another operation).
type Latency struct {
	Result   int
	Interval int
}

// Config describes the machine. DefaultConfig matches the paper's Table 5.
type Config struct {
	FetchWidth int // contiguous instructions fetched per cycle
	IssueWidth int // in-order issue width

	IntALUs     int // pipelined single-cycle ALUs
	LoadStore   int // load/store (AGU) units
	FPAdders    int // pipelined FP add/compare/convert units
	IntALULat   Latency
	IntMulLat   Latency
	IntDivLat   Latency
	FPAddLat    Latency
	FPMulLat    Latency
	FPDivLat    Latency
	LoadLatency int // cycles from issue to use for a cache-hit load (2 = addr calc + access)

	BTBEntries        int
	MispredictPenalty int

	ICache cache.Config
	DCache cache.Config
	// PerfectICache / PerfectDCache force every access to hit.
	PerfectICache bool
	PerfectDCache bool

	// Cache bandwidth: each cycle the data cache services up to
	// DCacheReadsPerCycle loads or one store (Table 5), speculative or
	// otherwise.
	DCacheReadsPerCycle int

	StoreBufferEntries int

	// Fast address calculation.
	FACGeom         fac.Config // predictor geometry (derived from DCache if zero)
	SpeculateRegReg bool       // speculate register+register-mode accesses (operand-based machines)
	SpeculateStores bool       // speculate stores (enter buffer in EX)

	// Predictor selects an address-prediction machine from internal/predict
	// ("fac" for the paper's machine, "pcax", "stride", "selective"); empty
	// disables speculation. PredictorEntries sizes the table machines
	// (zero selects predict.DefaultEntries); their tags are always
	// predict.DefaultTagBits wide.
	Predictor        string `json:",omitempty"`
	PredictorEntries int    `json:",omitempty"`
	// StaticTable supplies the selective machine's baked per-site verdicts
	// (WithStaticTable builds them over the linked program). Excluded from
	// serialization: the verdicts are a pure function of the program and
	// geometry, both of which already key the result cache.
	StaticTable *predict.StaticTable `json:"-"`

	// NoFastForward disables stall fast-forwarding (the cycle loop then
	// visits every stall cycle individually). Timing, statistics, and the
	// event stream are identical either way — the flag exists so the
	// equivalence can be regression-tested (TestFastForwardExact) and so
	// anomalies can be bisected to the fast path.
	NoFastForward bool

	// AGI selects the alternative pipeline organization of Jouppi (1989)
	// discussed in the paper's Related Work: a dedicated address-generation
	// stage with ALU execution pushed to the cache-access stage. It removes
	// the load-use hazard (a load's consumer executes a stage later) but
	// introduces an address-use hazard (an ALU result feeding a base
	// register costs a bubble) and lengthens the branch resolution path;
	// callers should also raise MispredictPenalty by one (MachineConfig's
	// "agi" machine does). Mutually exclusive with address prediction.
	AGI bool
}

// DefaultConfig returns the paper's baseline machine. Values flagged as
// OCR-ambiguous in the source text are documented in DESIGN.md.
func DefaultConfig() Config {
	return Config{
		FetchWidth: 4,
		IssueWidth: 4,

		IntALUs:     4,
		LoadStore:   2,
		FPAdders:    2,
		IntALULat:   Latency{1, 1},
		IntMulLat:   Latency{3, 1},
		IntDivLat:   Latency{20, 19},
		FPAddLat:    Latency{2, 1},
		FPMulLat:    Latency{4, 1},
		FPDivLat:    Latency{12, 12},
		LoadLatency: 2,

		BTBEntries:        1024,
		MispredictPenalty: 2,

		ICache: cache.Config{Size: 16 << 10, BlockSize: 32, Assoc: 1, MissLatency: 16},
		DCache: cache.Config{Size: 16 << 10, BlockSize: 32, Assoc: 1, MissLatency: 16, MSHRs: 8},

		DCacheReadsPerCycle: 2,
		StoreBufferEntries:  16,

		SpeculateStores: true,
	}
}

// FACGeometry returns the predictor geometry the simulator will use:
// FACGeom when set, otherwise the geometry derived from the data cache
// (block-offset bits from the block size, set bits from the
// direct-mapped span). Exported so differential checkers can re-run the
// predictor the simulator ran.
func (c Config) FACGeometry() fac.Config {
	g := c.FACGeom
	if g.BlockBits == 0 && g.SetBits == 0 {
		g.BlockBits = log2(uint(c.DCache.BlockSize))
		g.SetBits = log2(uint(c.DCache.Size / c.DCache.Assoc))
	}
	return g
}

func log2(v uint) uint {
	n := uint(0)
	for 1<<n < v {
		n++
	}
	return n
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 {
		return fmt.Errorf("pipeline: non-positive widths")
	}
	if c.IntALUs <= 0 || c.LoadStore <= 0 || c.FPAdders <= 0 {
		return fmt.Errorf("pipeline: non-positive unit counts")
	}
	if c.LoadLatency < 1 || c.LoadLatency > 2 {
		return fmt.Errorf("pipeline: LoadLatency must be 1 or 2")
	}
	if !c.PerfectICache {
		if err := c.ICache.Validate(); err != nil {
			return err
		}
	}
	if !c.PerfectDCache {
		if err := c.DCache.Validate(); err != nil {
			return err
		}
	}
	if c.DCacheReadsPerCycle <= 0 {
		return fmt.Errorf("pipeline: DCacheReadsPerCycle must be positive")
	}
	if c.StoreBufferEntries <= 0 {
		return fmt.Errorf("pipeline: StoreBufferEntries must be positive")
	}
	if n := c.BTBEntries; n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("pipeline: BTBEntries %d not a positive power of two", n)
	}
	if c.Predictor != "" {
		if c.AGI {
			return fmt.Errorf("pipeline: address prediction and AGI are mutually exclusive")
		}
		// Constructing the machine checks its name, geometry and table
		// size exactly as the run will.
		if _, err := c.newPredictor(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	return nil
}

// WithStaticTable returns c ready to time p: a selective machine without
// a verdict table gets predict.BuildStaticTable over p under c's FAC
// geometry. Any other config comes back unchanged.
func (c Config) WithStaticTable(p *prog.Program) Config {
	if c.Predictor == "selective" && c.StaticTable == nil {
		c.StaticTable = predict.BuildStaticTable(p, c.FACGeometry())
	}
	return c
}

// newPredictor constructs the configured address-prediction machine.
func (c Config) newPredictor() (predict.Predictor, error) {
	static := c.StaticTable
	if c.Predictor == "selective" && static == nil {
		// No verdicts supplied (a raw-trace replay with no program
		// behind it): every site is unknown, so selective degrades to
		// plain FAC. WithStaticTable bakes the real table from a program.
		static = &predict.StaticTable{}
	}
	return predict.New(c.Predictor, predict.Options{
		Geom:    c.FACGeometry(),
		Entries: c.PredictorEntries,
		Static:  static,
	})
}

// Stats is the result of a timing run.
type Stats struct {
	Cycles uint64
	Insts  uint64
	Loads  uint64
	Stores uint64

	// Address-prediction outcome counts (FAC or any internal/predict
	// machine; the Predictor field below names which).
	LoadsSpeculated  uint64
	StoresSpeculated uint64
	LoadSpecFailed   uint64
	StoreSpecFailed  uint64
	// LoadsNoPredict / StoresNoPredict count eligible accesses for which
	// the machine declined to predict (cold table entry, tag conflict,
	// site statically proven failing); they proceed non-speculatively and
	// are neither speculated nor failed. Always zero for the FAC machine,
	// which predicts every eligible access.
	LoadsNoPredict  uint64
	StoresNoPredict uint64
	// ExtraAccesses is the number of data-cache accesses wasted on
	// mispredicted speculative attempts (Table 6's bandwidth overhead).
	ExtraAccesses uint64

	BranchLookups     uint64
	BranchMispredicts uint64

	StoreBufferFullStalls uint64

	// Stall accounting: StallCycles[c] counts simulated cycles in which
	// no instruction issued, attributed to the cause blocking the head of
	// the issue queue; IssueActiveCycles counts cycles with at least one
	// issue. Together they partition every cycle of the issue loop.
	StallCycles       [obs.NumStallCauses]uint64
	IssueActiveCycles uint64

	// LoadLatency is the issue-to-use latency distribution of every load.
	LoadLatency obs.Hist

	// Per-signal misprediction breakdown (indexed as fac.FailureSignals);
	// one misprediction may raise several signals.
	LoadFailKinds  [fac.NumFailureSignals]uint64
	StoreFailKinds [fac.NumFailureSignals]uint64

	// Predictor names the address-prediction machine the run speculated
	// with ("fac" for the paper's machine); empty when it did not.
	Predictor string

	ICache cache.Stats
	DCache cache.Stats
}

// StallTotal returns the total number of no-issue cycles; by
// construction it equals the sum of the per-cause counters.
func (s Stats) StallTotal() uint64 {
	var t uint64
	for _, n := range s.StallCycles {
		t += n
	}
	return t
}

// Record converts the statistics of one run into the canonical
// machine-readable RunRecord (see docs/OBSERVABILITY.md for the schema).
func (s Stats) Record(benchmark, class, toolchain, machine string) obs.RunRecord {
	r := obs.RunRecord{
		Schema:    obs.RunRecordSchema,
		Benchmark: benchmark,
		Class:     class,
		Toolchain: toolchain,
		Machine:   machine,

		Cycles: s.Cycles,
		Insts:  s.Insts,
		IPC:    s.IPC(),
		Loads:  s.Loads,
		Stores: s.Stores,

		IssueActiveCycles: s.IssueActiveCycles,
		StallCyclesTotal:  s.StallTotal(),

		BranchLookups:     s.BranchLookups,
		BranchMispredicts: s.BranchMispredicts,
		StoreBufFull:      s.StoreBufferFullStalls,

		LoadLatency: s.LoadLatency,
	}
	r.Stalls.FromCounts(s.StallCycles)
	if s.Predictor != "" {
		f := &obs.FACRecord{
			LoadsSpeculated:  s.LoadsSpeculated,
			LoadFails:        s.LoadSpecFailed,
			StoresSpeculated: s.StoresSpeculated,
			StoreFails:       s.StoreSpecFailed,
			ExtraAccesses:    s.ExtraAccesses,
		}
		if s.Predictor == "fac" {
			// The paper's machine keeps its original encoding — the four
			// named failure-breakdown fields and nothing else — so records
			// produced before the predictor zoo stay byte-identical.
			f.LoadFailKinds.FromCounts(s.LoadFailKinds)
			f.StoreFailKinds.FromCounts(s.StoreFailKinds)
		} else {
			names := predict.SignalNamesFor(s.Predictor)
			f.Predictor = s.Predictor
			f.LoadsNoPredict = s.LoadsNoPredict
			f.StoresNoPredict = s.StoresNoPredict
			f.LoadFailCauses = failCauses(names, s.LoadFailKinds)
			f.StoreFailCauses = failCauses(names, s.StoreFailKinds)
		}
		r.FAC = f
	}
	cacheRec := func(cs cache.Stats) *obs.CacheRecord {
		if cs.Accesses == 0 {
			return nil // perfect (modelled-absent) cache
		}
		return &obs.CacheRecord{
			Accesses:    cs.Accesses,
			Misses:      cs.Misses,
			DelayedHits: cs.DelayedHits,
			Evictions:   cs.Evictions,
			Writebacks:  cs.Writebacks,
			MSHROcc:     cs.MSHROcc,
		}
	}
	r.ICache = cacheRec(s.ICache)
	r.DCache = cacheRec(s.DCache)
	return r
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// LoadFailRate returns the fraction of speculated loads that mispredicted.
func (s Stats) LoadFailRate() float64 { return ratio(s.LoadSpecFailed, s.LoadsSpeculated) }

// StoreFailRate returns the fraction of speculated stores that mispredicted.
func (s Stats) StoreFailRate() float64 { return ratio(s.StoreSpecFailed, s.StoresSpeculated) }

// BandwidthOverhead returns extra cache accesses as a fraction of total
// memory references (the paper's Table 6 metric).
func (s Stats) BandwidthOverhead() float64 { return ratio(s.ExtraAccesses, s.Loads+s.Stores) }

// failCauses renders a slot-indexed failure-count array as a name-keyed
// map for serialization (nil when every slot is zero, so the field is
// omitted; JSON object keys marshal sorted, keeping records deterministic).
func failCauses(names []string, counts [fac.NumFailureSignals]uint64) map[string]uint64 {
	var m map[string]uint64
	for i, n := range names {
		if counts[i] != 0 {
			if m == nil {
				m = make(map[string]uint64, len(names))
			}
			m[n] = counts[i]
		}
	}
	return m
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
