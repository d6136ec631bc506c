package main

import (
	"fmt"
	"math/rand"
)

// planOp is one operation of a run. A plan is a pure function of
// (workload, seed, seconds, goldens): every run of a seed executes the same
// multiset of operations in the same order.
//
// The seed draws the order of operations and the service's request mix,
// not the programs: each workload runs a fixed program set, so that runs
// with different seeds measure the same work and their spread is noise
// alone.
type planOp struct {
	// Kind groups repeats of the same work; each kind is scored by its
	// minimum latency. Service kinds are "hit|spec" or "miss|spec".
	Kind  string
	Round int // traced runs trace even rounds and leave odd rounds bare
	Prog  string
	TC    string // toolchain: base or fac
	Mach  string // machine name (sim and service)
	// Budget is a service write's max_insts, above the program's
	// instruction count so the run completes; 0 = the service default.
	Budget uint64
	Hit    bool // service: the response must carry cache_hit
}

var (
	// simPrograms are 2 integer and 2 FP programs of at most 1.4M
	// instructions. Few and short programs give each kind about 40
	// repeats in 25 seconds.
	simPrograms = []string{"compress", "hashp", "dct", "matmul"}
	simMachines = []string{"base32", "fac32", "stride"}
	toolchains  = []string{"base", "fac"}
	// hotProgs are the service's read-mostly programs.
	hotProgs = []string{"hashp", "dct"}
	// ledgerPrograms feed the traced run's layer ledger: the repository's
	// usual integer benchmark and an FP one.
	ledgerPrograms = []string{"compress", "dct"}
)

const (
	// missShare is the service's share of write requests.
	missShare = 0.1
	// hitNominalMS is the planning cost of one service read.
	hitNominalMS = 0.25
)

func recordKey(prog, tc, mach string) string { return prog + "|" + tc + "|" + mach }

// planFill is the share of --seconds a plan fills with nominal cost.
// Nominal costs are minima; counting typical repeats, the collection
// before each operation and the set-up repeats, a run on the reference
// host takes 1.1 (service) to 1.5 (regen) times its nominal cost.
const planFill = 0.85

// roundCount fills about seconds with rounds of the given nominal cost.
func roundCount(seconds int, roundMS float64, lo, hi int) int {
	n := int(planFill*float64(seconds)*1000/roundMS + 0.5)
	return min(max(n, lo), hi)
}

// rounds repeats kinds n times, each round in a fresh seeded order.
func rounds(r *rand.Rand, kinds []planOp, n int) []planOp {
	out := make([]planOp, 0, n*len(kinds))
	for i := 0; i < n; i++ {
		for _, j := range r.Perm(len(kinds)) {
			op := kinds[j]
			op.Round = i
			out = append(out, op)
		}
	}
	return out
}

func lookup(table map[string]goldenEntry, key string) (goldenEntry, error) {
	e, ok := table[key]
	if !ok {
		return goldenEntry{}, fmt.Errorf("no golden for %s (regenerate with -write-goldens)", key)
	}
	return e, nil
}

// makePlan returns the operations of one run.
func makePlan(workload string, seed int64, seconds int, g *goldens) ([]planOp, error) {
	switch workload {
	case "sim":
		return planSim(seed, seconds, g)
	case "regen":
		return planRegen(seconds, g)
	case "service":
		return planService(seed, seconds, g, 0)
	}
	return nil, fmt.Errorf("unknown workload %q (want sim, regen or service)", workload)
}

func planSim(seed int64, seconds int, g *goldens) ([]planOp, error) {
	r := rand.New(rand.NewSource(seed))
	var kinds []planOp
	var cost float64
	for _, p := range simPrograms {
		for _, m := range simMachines {
			k := recordKey(p, "base", m)
			e, err := lookup(g.Records, k)
			if err != nil {
				return nil, err
			}
			cost += e.NominalMS
			kinds = append(kinds, planOp{Kind: k, Prog: p, TC: "base", Mach: m})
		}
	}
	return rounds(r, kinds, roundCount(seconds, cost, 3, 400)), nil
}

func planRegen(seconds int, g *goldens) ([]planOp, error) {
	if g.LTB.SHA256 == "" {
		return nil, fmt.Errorf("no golden for the LTB rows (regenerate with -write-goldens)")
	}
	n := roundCount(seconds, g.LTB.NominalMS, 2, 40)
	out := make([]planOp, n)
	for i := range out {
		out[i] = planOp{Kind: "ltb", Round: i}
	}
	return out, nil
}

// hotSpecs are the service's 12 read-mostly specs.
func hotSpecs() []planOp {
	var out []planOp
	for _, p := range hotProgs {
		for _, tc := range toolchains {
			for _, m := range simMachines {
				out = append(out, planOp{Kind: recordKey(p, tc, m), Prog: p, TC: tc, Mach: m})
			}
		}
	}
	return out
}

// serviceBlock is the number of service requests per round.
const serviceBlock = 50

// planService draws the request mix: about 1 in 10 requests is a write
// of a spec made unique by its budget; the rest read one of the hot
// specs, whose first touch fills the cache. requests > 0 fixes the
// request count instead of deriving it from seconds.
func planService(seed int64, seconds int, g *goldens, requests int) ([]planOp, error) {
	r := rand.New(rand.NewSource(seed))
	hot := hotSpecs()
	var missMS float64
	for _, h := range hot {
		e, err := lookup(g.Records, h.Kind)
		if err != nil {
			return nil, err
		}
		missMS += e.NominalMS / float64(len(hot))
	}
	if requests <= 0 {
		perReq := (1-missShare)*hitNominalMS + missShare*missMS
		requests = roundCount(seconds, perReq, serviceBlock, 200000)
	}
	touched := make(map[string]bool)
	var writes uint64
	out := make([]planOp, requests)
	for i := range out {
		op := hot[r.Intn(len(hot))]
		spec := op.Kind
		if r.Float64() < missShare {
			writes++
			op.Budget = g.Records[spec].Insts + writes
		} else {
			op.Hit = touched[spec]
			touched[spec] = true
		}
		if op.Hit {
			op.Kind = "hit|" + spec
		} else {
			op.Kind = "miss|" + spec
		}
		op.Round = i / serviceBlock
		out[i] = op
	}
	return out, nil
}
