package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/prog"
)

// TestWithStaticTable: only a selective machine without a verdict table
// gets one, built over the program under the machine's FAC geometry.
func TestWithStaticTable(t *testing.T) {
	p, err := prog.Link(&prog.Object{
		Text:    []isa.Inst{{Op: isa.LW, Rd: isa.T0, Rs: isa.SP, Imm: 4}, {Op: isa.JR, Rs: isa.RA}},
		Symbols: map[string]prog.Symbol{"main": {Name: "main"}},
	}, prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel := DefaultConfig()
	sel.Predictor = "selective"
	got := sel.WithStaticTable(p).StaticTable
	if want := predict.BuildStaticTable(p, sel.FACGeometry()); got == nil || !reflect.DeepEqual(got, want) {
		t.Errorf("selective table = %+v, want %+v", got, want)
	}
	sel.StaticTable = &predict.StaticTable{}
	if got := sel.WithStaticTable(p).StaticTable; got != sel.StaticTable {
		t.Error("WithStaticTable replaced the table the config supplied")
	}
	fac := DefaultConfig()
	fac.Predictor = "fac"
	if got := fac.WithStaticTable(p).StaticTable; got != nil {
		t.Error("WithStaticTable gave a fac machine a verdict table")
	}
}
