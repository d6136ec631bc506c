package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// divideByZero sums 0..9, prints the sum, then faults.
const divideByZero = `
int main() {
	int i; int s; int z;
	s = 0;
	for (i = 0; i < 10; i++) s += i;
	print_int(s);
	z = 0;
	print_int(s / z);
	return 0;
}`

// issuePCs records the PC of each issue event.
type issuePCs []uint32

func (p *issuePCs) Event(e obs.Event) {
	if e.Kind == obs.KindIssue {
		*p = append(*p, e.PC)
	}
}

// TestPrintTraceBeforeFault: on a program that faults, the run issues
// every instruction the emulator stepped before the fault, and -trace
// prints them, the same ones core.RunWithSink reports issued before its
// error, and then returns that error.
func TestPrintTraceBeforeFault(t *testing.T) {
	tc := workload.BaseToolchain()
	text, err := minic.Compile(divideByZero, tc.Opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(text, tc.Link)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Predictor = "fac"

	var want issuePCs
	_, wantErr := core.RunWithSink(p, cfg, 0, &want)
	if wantErr == nil || !strings.Contains(wantErr.Error(), "division by zero") {
		t.Fatalf("core.RunWithSink: err = %v, want the division fault", wantErr)
	}
	e, err := core.RunFunctional(p, 0)
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("core.RunFunctional: err = %v, want %v", err, wantErr)
	}
	if uint64(len(want)) != e.InstCount {
		t.Fatalf("core.RunWithSink issued %d instructions, the emulator stepped %d before the fault", len(want), e.InstCount)
	}

	var out bytes.Buffer
	if err := printTrace(&out, p, cfg, 400); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("printTrace: err = %v, want %v", err, wantErr)
	}
	lines := strings.FieldsFunc(out.String(), func(r rune) bool { return r == '\n' })
	if len(lines) != len(want) {
		t.Fatalf("printTrace printed %d lines, core.RunWithSink issued %d instructions", len(lines), len(want))
	}
	for i, pc := range want {
		if f := strings.Fields(lines[i]); len(f) < 2 || f[0] != fmt.Sprint(i) || f[1] != fmt.Sprintf("%#08x", pc) {
			t.Fatalf("line %d is %q, want issue %d at pc %#08x", i, lines[i], i, pc)
		}
	}
}

// TestRecordMatchesSuite: -json writes the record the experiments suite
// returns for the same run, under the machine table's name and with the
// workload's class, so experiments -diff pairs the two.
func TestRecordMatchesSuite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-machine", "stride", "-benchmark", "hashp", "-show-output=false", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("hashp")
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.NewSuite().Timing(w, workload.BaseToolchain().Name, experiments.MStride)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 || !reflect.DeepEqual(rep.Records[0], want) {
		t.Fatalf("facsim wrote %+v\nthe suite returns %+v", rep.Records, want)
	}
}
