// RunRecord is the canonical machine-readable result of one timing run,
// and Report the artifact format cmd/experiments -json and the
// BENCH_*.json benchmark files share. The encoding is deterministic:
// fixed field order, sorted records, trimmed histograms — two runs of the
// same (benchmark, toolchain, machine) produce byte-identical JSON.
package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"

	"repro/internal/fac"
)

// Schema identifiers, bumped on incompatible changes.
const (
	RunRecordSchema = "fac/run-record/v1"
	ReportSchema    = "fac/report/v1"
)

// MarshalJSON emits the histogram with trailing zero buckets trimmed.
func (h Hist) MarshalJSON() ([]byte, error) {
	n := len(h.Buckets)
	for n > 0 && h.Buckets[n-1] == 0 {
		n--
	}
	return json.Marshal(struct {
		Buckets []uint64 `json:"buckets"`
		Count   uint64   `json:"count"`
		Sum     uint64   `json:"sum"`
		Max     uint64   `json:"max"`
	}{h.Buckets[:n], h.Count, h.Sum, h.Max})
}

// StallBreakdown is the per-cause stall-cycle accounting. The fields sum
// to the total number of stall cycles (cycles in which no instruction
// issued while the simulation was active).
type StallBreakdown struct {
	Frontend    uint64 `json:"frontend"`
	Operand     uint64 `json:"operand"`
	Unit        uint64 `json:"unit"`
	MemPort     uint64 `json:"mem_port"`
	StoreBuffer uint64 `json:"store_buffer"`
	Drain       uint64 `json:"drain"`
}

// FromCounts converts the pipeline's per-cause counter array.
func (b *StallBreakdown) FromCounts(c [NumStallCauses]uint64) {
	b.Frontend = c[StallFrontend]
	b.Operand = c[StallOperand]
	b.Unit = c[StallUnit]
	b.MemPort = c[StallMemPort]
	b.StoreBuffer = c[StallStoreBuffer]
	b.Drain = c[StallDrain]
}

// Total sums the categories.
func (b StallBreakdown) Total() uint64 {
	return b.Frontend + b.Operand + b.Unit + b.MemPort + b.StoreBuffer + b.Drain
}

// FailureBreakdown counts raised verification-failure signals by kind.
// A single misprediction can raise several signals, so the fields may
// sum to more than the misprediction count.
type FailureBreakdown struct {
	Overflow      uint64 `json:"overflow"`
	GenCarry      uint64 `json:"gencarry"`
	LargeNegConst uint64 `json:"largenegconst"`
	NegIndexReg   uint64 `json:"negindexreg"`
}

// FromCounts converts a per-signal counter array (indexed as
// fac.FailureSignals).
func (b *FailureBreakdown) FromCounts(c [fac.NumFailureSignals]uint64) {
	b.Overflow = c[0]
	b.GenCarry = c[1]
	b.LargeNegConst = c[2]
	b.NegIndexReg = c[3]
}

// FACRecord is the predictor section of a RunRecord, present only when
// the run speculated.
type FACRecord struct {
	LoadsSpeculated  uint64           `json:"loads_speculated"`
	LoadFails        uint64           `json:"load_fails"`
	StoresSpeculated uint64           `json:"stores_speculated"`
	StoreFails       uint64           `json:"store_fails"`
	ExtraAccesses    uint64           `json:"extra_accesses"`
	LoadFailKinds    FailureBreakdown `json:"load_fail_kinds"`
	StoreFailKinds   FailureBreakdown `json:"store_fail_kinds"`

	// Predictor-zoo extension (internal/predict): absent for the paper's
	// FAC machine, whose records keep the original encoding above. For
	// other machines Predictor names the machine, the NoPredict counters
	// record eligible accesses the machine declined, and the fail-cause
	// maps replace the FAC-specific breakdown structs, keyed by the
	// machine's own signal names (map keys marshal sorted, so records
	// remain byte-deterministic).
	Predictor       string            `json:"predictor,omitempty"`
	LoadsNoPredict  uint64            `json:"loads_nopredict,omitempty"`
	StoresNoPredict uint64            `json:"stores_nopredict,omitempty"`
	LoadFailCauses  map[string]uint64 `json:"load_fail_causes,omitempty"`
	StoreFailCauses map[string]uint64 `json:"store_fail_causes,omitempty"`
}

// CacheRecord is one cache's section of a RunRecord.
type CacheRecord struct {
	Accesses    uint64 `json:"accesses"`
	Misses      uint64 `json:"misses"`
	DelayedHits uint64 `json:"delayed_hits"`
	Evictions   uint64 `json:"evictions"`
	Writebacks  uint64 `json:"writebacks"`
	MSHROcc     Hist   `json:"mshr_occupancy"`
}

// RunRecord is one (benchmark, toolchain, machine) timing result.
type RunRecord struct {
	Schema    string `json:"schema"`
	Benchmark string `json:"benchmark"`
	Class     string `json:"class,omitempty"`
	Toolchain string `json:"toolchain"`
	Machine   string `json:"machine"`

	Cycles uint64  `json:"cycles"`
	Insts  uint64  `json:"instructions"`
	IPC    float64 `json:"ipc"`
	Loads  uint64  `json:"loads"`
	Stores uint64  `json:"stores"`

	IssueActiveCycles uint64         `json:"issue_active_cycles"`
	StallCyclesTotal  uint64         `json:"stall_cycles_total"`
	Stalls            StallBreakdown `json:"stall_cycles"`

	BranchLookups     uint64 `json:"branch_lookups"`
	BranchMispredicts uint64 `json:"branch_mispredicts"`
	StoreBufFull      uint64 `json:"store_buffer_full_stalls"`

	LoadLatency Hist `json:"load_latency"`

	FAC    *FACRecord   `json:"fac,omitempty"`
	ICache *CacheRecord `json:"icache,omitempty"`
	DCache *CacheRecord `json:"dcache,omitempty"`
}

// RunAnswer is the body of facd's POST /v1/run answer: a run's record
// and whether a result cache served it.
type RunAnswer struct {
	CacheHit bool      `json:"cache_hit"`
	Record   RunRecord `json:"record"`
}

// Key orders records deterministically within a report.
func (r RunRecord) Key() string {
	return r.Benchmark + "|" + r.Toolchain + "|" + r.Machine
}

// Clone returns a deep copy of r: the copy shares no section and no map
// with r, so a change to either leaves the other as it was.
func (r RunRecord) Clone() RunRecord {
	if r.FAC != nil {
		f := *r.FAC
		f.LoadFailCauses = maps.Clone(f.LoadFailCauses)
		f.StoreFailCauses = maps.Clone(f.StoreFailCauses)
		r.FAC = &f
	}
	if r.ICache != nil {
		c := *r.ICache
		r.ICache = &c
	}
	if r.DCache != nil {
		c := *r.DCache
		r.DCache = &c
	}
	return r
}

// Report is a set of run records plus optional harness-level metrics
// (throughput numbers in BENCH_*.json files).
type Report struct {
	Schema  string             `json:"schema"`
	Tool    string             `json:"tool,omitempty"`    // producing command
	Go      string             `json:"go,omitempty"`      // toolchain version
	Metrics map[string]float64 `json:"metrics,omitempty"` // keys sorted by encoding/json
	Records []RunRecord        `json:"records"`
}

// NewReport builds an empty report with the current schema.
func NewReport(tool, goVersion string) *Report {
	return &Report{Schema: ReportSchema, Tool: tool, Go: goVersion}
}

// Add appends a record.
func (r *Report) Add(rec RunRecord) { r.Records = append(r.Records, rec) }

// Sort orders records by (benchmark, toolchain, machine).
func (r *Report) Sort() {
	sort.Slice(r.Records, func(i, j int) bool { return r.Records[i].Key() < r.Records[j].Key() })
}

// Encode renders the report as indented JSON with a trailing newline,
// records sorted. The output is byte-deterministic for identical runs.
func (r *Report) Encode() ([]byte, error) {
	if r.Records == nil {
		r.Records = []RunRecord{}
	}
	r.Sort()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeReport parses a report produced by Encode.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("obs: unknown report schema %q (want %q)", r.Schema, ReportSchema)
	}
	return &r, nil
}

// DiffLine is one regression-relevant difference between two reports.
type DiffLine struct {
	Key   string // benchmark|toolchain|machine
	Field string // "cycles", "ipc", ...
	Old   float64
	New   float64
	Delta float64 // (new-old)/old
}

func (d DiffLine) String() string {
	return fmt.Sprintf("%-40s %-12s %14.3f -> %14.3f  (%+.2f%%)", d.Key, d.Field, d.Old, d.New, 100*d.Delta)
}

// Diff compares two reports record-by-record and returns the cycle/IPC/
// stall-total changes whose relative magnitude exceeds tolerance, plus a
// line for every record present in only one report. This is the
// mechanical form of "diff two BENCH_*.json files to detect a
// regression" described in docs/OBSERVABILITY.md.
func Diff(old, new *Report, tolerance float64) []DiffLine {
	idx := make(map[string]RunRecord, len(old.Records))
	for _, r := range old.Records {
		idx[r.Key()] = r
	}
	var out []DiffLine
	seen := make(map[string]bool, len(new.Records))
	for _, n := range new.Records {
		seen[n.Key()] = true
		o, ok := idx[n.Key()]
		if !ok {
			out = append(out, DiffLine{Key: n.Key(), Field: "added"})
			continue
		}
		cmp := func(field string, ov, nv float64) {
			if ov == 0 && nv == 0 {
				return
			}
			var delta float64
			if ov != 0 {
				delta = (nv - ov) / ov
			} else {
				delta = 1
			}
			if delta >= tolerance || delta <= -tolerance {
				out = append(out, DiffLine{Key: n.Key(), Field: field, Old: ov, New: nv, Delta: delta})
			}
		}
		cmp("cycles", float64(o.Cycles), float64(n.Cycles))
		cmp("ipc", o.IPC, n.IPC)
		cmp("stall_total", float64(o.StallCyclesTotal), float64(n.StallCyclesTotal))
	}
	for _, o := range old.Records {
		if !seen[o.Key()] {
			out = append(out, DiffLine{Key: o.Key(), Field: "removed"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Field < out[j].Field
	})
	return out
}
