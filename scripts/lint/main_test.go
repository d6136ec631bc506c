package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestSamplePackage checks all three rules against the fixture package:
// the two order-dependent loops, the three hot-path allocation idioms
// (plus one in a file whose marker carries a reason), and the two raw
// schema/verdict strings are found; the clean and marker-suppressed cases
// are not.
func TestSamplePackage(t *testing.T) {
	dir, err := filepath.Abs("testdata/sample")
	if err != nil {
		t.Fatal(err)
	}
	l := newLinter(dir, "sample.test/mod")
	findings, err := l.lintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 8 {
		t.Fatalf("got %d findings, want 8:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	all := strings.Join(findings, "\n")
	for _, want := range []string{
		"append", "map literal", "make(map)", "appends to a slice", "calls Println",
		`"fac/sample/v1"`, `"proven_failing"`, "hotreason.go:9: make(map)",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("no finding mentions %q:\n%s", want, all)
		}
	}
	if n := strings.Count(all, "schema/verdict"); n != 2 {
		t.Errorf("got %d schema/verdict findings, want 2 (const decl, struct tag, marker, and %q must stay exempt):\n%s",
			n, "unknown", all)
	}
	for _, f := range findings {
		if strings.Contains(f, "SortedKeys") || strings.Contains(f, ":47:") {
			t.Errorf("marker-suppressed loop was reported: %q", f)
		}
		if strings.Contains(f, "hotSetupOK") || strings.Contains(f, "hotSliceOK") {
			t.Errorf("suppressed or benign hot-path case was reported: %q", f)
		}
	}
}

// TestRepoTargets lints the real target packages: the tree must stay clean
// (CI runs the same check ahead of go vet).
func TestRepoTargets(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	l := newLinter(root, mod)
	for _, dir := range defaultTargets {
		findings, err := l.lintDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if len(findings) > 0 {
			t.Errorf("%s:\n%s", dir, strings.Join(findings, "\n"))
		}
	}
}
