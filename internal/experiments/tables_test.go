package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simsvc"
	"repro/internal/stats"
)

// readGolden reads a testdata file of "name sha256" lines into a map.
func readGolden(t *testing.T, file string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		golden[name] = sum
	}
	return golden
}

// TestTablesGolden pins every rendered table: the SHA-256 of each of the
// 12 experiments' Table().String() is compared with testdata/tables.golden,
// one "experiment sha256" line each. A table depends only on the runs its
// experiment declares, so the shared suite serves. An intended change
// regenerates the file from the lines this test reports.
//
// The "records" line pins the records `cmd/experiments -json` writes
// (the report without its Go version) together with simsvc.Version,
// which addresses cached records: records that move under an unchanged
// Version would be served stale from every result cache.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the full grid")
	}
	golden := readGolden(t, "tables.golden")
	type tabler interface{ Table() *stats.Table }
	experiments := []struct {
		name string
		run  func() (tabler, error)
	}{
		{"Table1", func() (tabler, error) { return shared.Table1() }},
		{"Figure2", func() (tabler, error) { return shared.Figure2() }},
		{"Figure3", func() (tabler, error) { return shared.Figure3() }},
		{"Table3", func() (tabler, error) { return shared.Table3() }},
		{"Table4", func() (tabler, error) { return shared.Table4() }},
		{"Figure6", func() (tabler, error) { return shared.Figure6() }},
		{"Table6", func() (tabler, error) { return shared.Table6() }},
		{"Ablations", func() (tabler, error) { return shared.Ablations() }},
		{"CompareLTB", func() (tabler, error) { return shared.CompareLTB() }},
		{"CompareAGI", func() (tabler, error) { return shared.CompareAGI() }},
		{"ComparePredictors", func() (tabler, error) { return shared.ComparePredictors() }},
		{"CacheSweep", func() (tabler, error) { return shared.CacheSweep() }},
	}
	for _, e := range experiments {
		r, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Table().String())))
		if golden[e.name] != sum {
			t.Errorf("%s: table differs from the golden; the new line is %q", e.name, e.name+" "+sum)
		}
	}
	rep := shared.Report("cmd/experiments")
	rep.Go = ""
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sum := fmt.Sprintf("%x", sha256.Sum256(data))
	version, want, _ := strings.Cut(golden["records"], " ")
	switch {
	case sum != want && version == simsvc.Version:
		t.Errorf("the records moved under simsvc.Version %q: bump simsvc.Version, then golden's records line is %q",
			version, "records <new version> "+sum)
	case sum != want || version != simsvc.Version:
		t.Errorf("records differ from the golden; the new line is %q", "records "+simsvc.Version+" "+sum)
	}
	if len(experiments)+1 != len(golden) {
		t.Errorf("%d experiments and the records, golden has %d lines", len(experiments), len(golden))
	}
}
