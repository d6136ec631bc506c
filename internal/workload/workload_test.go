package workload

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minic"
)

func runFunctional(t *testing.T, w Workload, tc Toolchain) *emu.Emulator {
	t.Helper()
	p, err := Build(w, tc)
	if err != nil {
		t.Fatalf("Build(%s, %s): %v", w.Name, tc.Name, err)
	}
	e := emu.New(p)
	e.MaxInsts = 200_000_000
	if err := e.Run(); err != nil {
		t.Fatalf("Run(%s, %s): %v\noutput: %q", w.Name, tc.Name, err, e.Out.String())
	}
	return e
}

func TestSuiteComplete(t *testing.T) {
	ws := All()
	if len(ws) != 19 {
		t.Fatalf("suite has %d workloads, want 19", len(ws))
	}
	ints, fps := 0, 0
	for _, w := range ws {
		if w.Class == Int {
			ints++
		} else {
			fps++
		}
		if w.Expected == "" || w.Source == "" || w.Analogue == "" {
			t.Errorf("%s: incomplete workload definition", w.Name)
		}
	}
	if ints != 10 || fps != 9 {
		t.Errorf("class split = %d int, %d fp; want 10/9", ints, fps)
	}
	// Integer programs come first, as in the paper's tables.
	for i := 1; i < len(ws); i++ {
		if ws[i-1].Class == FP && ws[i].Class == Int {
			t.Error("ordering: FP before Int")
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("compress")
	if err != nil || w.Name != "compress" {
		t.Errorf("ByName(compress) = %v, %v", w.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
	if len(Names()) != 19 {
		t.Error("Names() length wrong")
	}
}

// TestOutputsBaseToolchain pins every workload's checksum under the stock
// toolchain.
func TestOutputsBaseToolchain(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			e := runFunctional(t, w, BaseToolchain())
			if got := e.Out.String(); got != w.Expected {
				t.Errorf("output = %q, want %q", got, w.Expected)
			}
			if e.ExitCode != 0 {
				t.Errorf("exit code = %d", e.ExitCode)
			}
		})
	}
}

// TestOutputsInvariantAcrossToolchains: the software-support optimizations
// (and disabling strength reduction) must never change program results.
func TestOutputsInvariantAcrossToolchains(t *testing.T) {
	noSR := func(tc Toolchain) Toolchain {
		tc.Name += "-nosr"
		tc.Opts.StrengthReduce = false
		return tc
	}
	chains := []Toolchain{FACToolchain(), noSR(BaseToolchain()), noSR(FACToolchain())}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, tc := range chains {
				e := runFunctional(t, w, tc)
				if got := e.Out.String(); got != w.Expected {
					t.Errorf("toolchain %s: output = %q, want %q", tc.Name, got, w.Expected)
				}
			}
		})
	}
}

func TestToolchainOptionWiring(t *testing.T) {
	base := BaseToolchain()
	if base.Opts.AlignStack || base.Link.AlignGP || base.Opts.MallocAlign != 8 {
		t.Errorf("base toolchain has FAC options: %+v", base.Opts)
	}
	if !base.Opts.StrengthReduce {
		t.Error("base toolchain must optimize (strength reduction on)")
	}
	fac := FACToolchain()
	if !fac.Opts.AlignStack || !fac.Opts.AlignStatics || !fac.Opts.AlignStructs ||
		!fac.Link.AlignGP || fac.Opts.MallocAlign != 32 {
		t.Errorf("fac toolchain missing options: %+v", fac.Opts)
	}
}

func TestBuildErrorsSurface(t *testing.T) {
	w := Workload{Name: "bad", Source: "int main() { return x; }"}
	if _, err := Build(w, BaseToolchain()); err == nil {
		t.Error("Build of broken source succeeded")
	}
	_ = minic.BaseOptions() // keep import for the options sanity check above
}

// TestEncodedTextDecodesBack: for every workload binary, the encoded text
// words decode to exactly the linked instruction stream — the binary image
// is a faithful alternate representation.
func TestEncodedTextDecodesBack(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p, err := Build(w, FACToolchain())
			if err != nil {
				t.Fatal(err)
			}
			for i, word := range p.Words {
				pc := p.TextBase + uint32(i*4)
				in, err := isa.Decode(word, pc)
				if err != nil {
					t.Fatalf("word %d (%#08x): %v", i, word, err)
				}
				if in != p.Insts[i] {
					t.Fatalf("word %d: decoded %+v, linked %+v", i, in, p.Insts[i])
				}
			}
		})
	}
}

// TestLoad: a benchmark name, its MiniC source in a file, and the file of
// its compiled assembly all load the program Build links.
func TestLoad(t *testing.T) {
	w, err := ByName("queens")
	if err != nil {
		t.Fatal(err)
	}
	tc := FACToolchain()
	want, err := Build(w, tc)
	if err != nil {
		t.Fatal(err)
	}
	asmText, err := minic.Compile(w.Source, tc.Opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, text := range map[string]string{"queens.c": w.Source, "queens.s": asmText} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range [][2]string{{"queens", ""}, {"", filepath.Join(dir, "queens.c")}, {"", filepath.Join(dir, "queens.s")}} {
		got, err := Load(in[0], in[1], tc)
		if err != nil {
			t.Fatalf("Load(%q, %q): %v", in[0], in[1], err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Load(%q, %q) differs from Build", in[0], in[1])
		}
	}
	if _, err := Load("", filepath.Join(dir, "missing.c"), tc); err == nil {
		t.Error("Load of a missing file succeeded")
	}
}
