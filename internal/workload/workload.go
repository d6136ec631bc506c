// Package workload provides the benchmark suite used throughout the
// reproduction. The paper evaluated 15 SPEC92 programs plus four other
// codes; those inputs and binaries are not reproducible here, so the suite
// substitutes MiniC programs spanning the same reference-behavior classes
// the paper's analysis depends on (Section 2): compression, logic
// minimization, recursive search, string matching, pointer-chasing hash
// tables (including a GCC-style domain-specific arena allocator), struct
// sorting, channel routing, and FP stencil / n-body / filter / Monte-Carlo
// / dense and sparse linear algebra kernels. Every program prints a
// checksum that the validation tests pin.
package workload

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/minic"
	"repro/internal/prog"
)

// Class tags a workload as integer or floating-point, mirroring the paper's
// grouping when averaging results.
type Class uint8

const (
	Int Class = iota
	FP
)

func (c Class) String() string {
	if c == FP {
		return "fp"
	}
	return "int"
}

// Workload is one benchmark program.
type Workload struct {
	Name string
	// Analogue names the paper benchmark(s) whose reference behaviour this
	// program stands in for.
	Analogue string
	Class    Class
	Source   string
	// Expected is the program's full output (checksum); runs are validated
	// against it.
	Expected string
}

var registry []Workload

func register(w Workload) { registry = append(registry, w) }

// All returns the full suite, integer programs first (the paper's table
// ordering), each class alphabetical.
func All() []Workload {
	out := append([]Workload(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByName returns one workload.
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names lists the suite's benchmark names in All() order.
func Names() []string {
	ws := All()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// Toolchain bundles compiler options with the matching linker config: the
// two halves of the paper's "software support" axis.
type Toolchain struct {
	Name string
	Opts minic.Options
	Link prog.Config
}

// BaseToolchain is the paper's stock GCC 2.6 analogue: optimizing, no
// fast-address-calculation alignment support.
func BaseToolchain() Toolchain {
	return Toolchain{Name: "base", Opts: minic.BaseOptions(), Link: prog.DefaultConfig()}
}

// FACToolchain enables all Section 4 software support (compiler alignment
// options plus linker global-pointer alignment).
func FACToolchain() Toolchain {
	link := prog.DefaultConfig()
	link.AlignGP = true
	return Toolchain{Name: "fac", Opts: minic.FACOptions(), Link: link}
}

// ToolchainByName returns the toolchain a name selects: "base" or "fac".
func ToolchainByName(name string) (Toolchain, error) {
	switch name {
	case "base":
		return BaseToolchain(), nil
	case "fac":
		return FACToolchain(), nil
	}
	return Toolchain{}, fmt.Errorf("workload: unknown toolchain %q (want base or fac)", name)
}

// Build compiles and links a workload with the given toolchain.
func Build(w Workload, tc Toolchain) (*prog.Program, error) {
	asmText, err := minic.Compile(w.Source, tc.Opts)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	obj, err := asm.Assemble(asmText)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	p, err := prog.Link(obj, tc.Link)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return p, nil
}

// Load builds a command's input program: the named benchmark when bench
// is set, else the file at path, a MiniC source or (*.s) assembly, which
// is compiled and linked with tc as Build does.
func Load(bench, path string, tc Toolchain) (*prog.Program, error) {
	if bench != "" {
		w, err := ByName(bench)
		if err != nil {
			return nil, err
		}
		return Build(w, tc)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	asmText := string(src)
	if !strings.HasSuffix(path, ".s") {
		if asmText, err = minic.Compile(asmText, tc.Opts); err != nil {
			return nil, err
		}
	}
	obj, err := asm.Assemble(asmText)
	if err != nil {
		return nil, err
	}
	return prog.Link(obj, tc.Link)
}
