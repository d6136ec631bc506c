package main

import (
	"bytes"
	"strings"
	"testing"
)

func runOnce(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("faclint %v exited %d: %s", args, code, errb.String())
	}
	return out.String()
}

// TestSuiteDeterministic pins the parallel suite path: per-program builds
// and analyses fan out over a worker pool, but the report must be
// byte-identical run to run (and identical for the JSON schema too) —
// goroutine scheduling must never reorder or interleave output.
func TestSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full suite twice")
	}
	for _, args := range [][]string{
		{"-suite"},
		{"-suite", "-json"},
		{"-suite", "-falign"},
	} {
		a := runOnce(t, args...)
		b := runOnce(t, args...)
		if a != b {
			t.Errorf("faclint %v output differs between runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", args, a, b)
		}
		if a == "" {
			t.Errorf("faclint %v produced no output", args)
		}
	}
}

// TestSuiteTotalLine sanity-checks that the parallel path still aggregates
// across programs: the TOTAL line exists and counts a plausible site count.
func TestSuiteTotalLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full suite")
	}
	out := runOnce(t, "-suite")
	if !strings.Contains(out, "TOTAL") {
		t.Fatalf("no TOTAL line in suite output:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "TOTAL") && !strings.Contains(line, "sites 2525") {
			t.Errorf("unexpected TOTAL line (site count moved — update this test and the CI gate deliberately): %s", line)
		}
	}
}

// TestExplainFirstDeterministic pins blame chains end to end through the
// CLI: -explain-first on a real benchmark names a root cause, twice,
// byte-identically.
func TestExplainFirstDeterministic(t *testing.T) {
	args := []string{"-benchmark", "queens", "-explain-first"}
	a := runOnce(t, args...)
	b := runOnce(t, args...)
	if a != b {
		t.Errorf("explain output differs between runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "verdict=unknown") {
		t.Errorf("explain-first did not land on an unknown site:\n%s", a)
	}
	if !strings.Contains(a, "poisoned") && !strings.Contains(a, "untracked") &&
		!strings.Contains(a, "clobbered") && !strings.Contains(a, "escaped") &&
		!strings.Contains(a, "control flow joins") && !strings.Contains(a, "entry hypothesis") {
		t.Errorf("blame chain names no root cause:\n%s", a)
	}
}

// TestBlockSizeSetsGeometry: -block takes any power of two and analyses
// that block size, and rejects every other value.
func TestBlockSizeSetsGeometry(t *testing.T) {
	out := runOnce(t, "-benchmark", "queens", "-block", "64", "-json")
	if !strings.Contains(out, `"block_bits": 6`) {
		t.Errorf("-block 64 did not analyse 64-byte blocks:\n%.300s", out)
	}
	for _, block := range []string{"7", "48"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-benchmark", "queens", "-block", block}, &stdout, &stderr); code == 0 {
			t.Errorf("-block %s exited 0:\n%s", block, stdout.String())
		}
	}
}

// TestMinClassifiedUnderExplain: the -min-classified gate holds when the
// output is a blame chain too. queens classifies 56.2% of its sites.
func TestMinClassifiedUnderExplain(t *testing.T) {
	for _, tc := range []struct {
		min  string
		want int
	}{{"0.5", 0}, {"0.99", 1}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-benchmark", "queens", "-explain-first", "-min-classified", tc.min}
		if code := run(args, &stdout, &stderr); code != tc.want {
			t.Errorf("faclint %v exited %d, want %d: %s", args, code, tc.want, stderr.String())
		}
		if !strings.Contains(stdout.String(), "verdict=unknown") {
			t.Errorf("faclint %v printed no blame chain:\n%s", args, stdout.String())
		}
	}
}
