package main

import (
	"reflect"
	"sort"
	"testing"
)

func testGoldens(t *testing.T) *goldens {
	t.Helper()
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var workloads = []string{"sim", "regen", "service"}

func TestPlanSameSeedSameSequence(t *testing.T) {
	g := testGoldens(t)
	for _, w := range workloads {
		for seed := int64(1); seed <= 5; seed++ {
			a, err := makePlan(w, seed, 20, g)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := makePlan(w, seed, 20, g)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: two plans differ", w, seed)
			}
		}
		if w == "regen" {
			continue // one operation kind: the seed has nothing to choose
		}
		a, _ := makePlan(w, 1, 20, g)
		b, _ := makePlan(w, 2, 20, g)
		if reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seeds 1 and 2 give the same plan", w)
		}
	}
}

func kinds(ops []planOp) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.Kind
	}
	sort.Strings(out)
	return out
}

// TestPlanFixedMultiset checks that every round of a sim plan runs the
// same kinds once each, so a seed's multiset of operations is rounds x
// kinds however the rounds are ordered.
func TestPlanFixedMultiset(t *testing.T) {
	g := testGoldens(t)
	for seed := int64(1); seed <= 10; seed++ {
		plan, err := makePlan("sim", seed, 20, g)
		if err != nil {
			t.Fatal(err)
		}
		byRound := map[int][]planOp{}
		for _, op := range plan {
			byRound[op.Round] = append(byRound[op.Round], op)
		}
		first := kinds(byRound[0])
		if len(first) != 12 {
			t.Fatalf("seed %d: %d kinds per round, want 12", seed, len(first))
		}
		for i := 1; i < len(first); i++ {
			if first[i] == first[i-1] {
				t.Fatalf("seed %d: kind %s twice in a round", seed, first[i])
			}
		}
		for r, ops := range byRound {
			if !reflect.DeepEqual(kinds(ops), first) {
				t.Fatalf("seed %d: round %d runs other kinds", seed, r)
			}
		}
	}
}

func TestServiceBudgetsAndHits(t *testing.T) {
	g := testGoldens(t)
	var n int
	for seed := int64(1); seed <= 20; seed++ {
		plan, err := makePlan("service", seed, 20, g)
		if err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			n = len(plan)
		} else if len(plan) != n {
			t.Fatalf("seed %d: %d requests, seed 1 has %d", seed, len(plan), n)
		}
		written := map[planOp]bool{}
		touched := map[string]bool{}
		writes := 0
		for _, op := range plan {
			spec := recordKey(op.Prog, op.TC, op.Mach)
			if op.Budget != 0 {
				writes++
				if insts := g.Records[spec].Insts; op.Budget <= insts {
					t.Fatalf("seed %d: budget %d of %s does not exceed its %d instructions", seed, op.Budget, spec, insts)
				}
				w := planOp{Prog: op.Prog, TC: op.TC, Mach: op.Mach, Budget: op.Budget}
				if written[w] {
					t.Fatalf("seed %d: %s written twice with budget %d", seed, spec, op.Budget)
				}
				written[w] = true
				if op.Hit {
					t.Fatalf("seed %d: a write expects a cache hit", seed)
				}
				continue
			}
			if op.Hit != touched[spec] {
				t.Fatalf("seed %d: read of %s expects hit=%v after touched=%v", seed, spec, op.Hit, touched[spec])
			}
			touched[spec] = true
		}
		if share := float64(writes) / float64(len(plan)); share < 0.07 || share > 0.13 {
			t.Fatalf("seed %d: write share %.3f, want about %.2f", seed, share, missShare)
		}
	}
}
