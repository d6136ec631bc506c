package workload

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/minic"
	"repro/internal/prog"
)

// objectDigest hashes everything asm.Assemble reports: the text, sdata
// and data images, the BSS size, the relocations, the source lines and
// the symbols in name order.
func objectDigest(o *prog.Object) string {
	h := sha256.New()
	for _, in := range o.Text {
		fmt.Fprintf(h, "i %d %d %d %d %d\n", in.Op, in.Rd, in.Rs, in.Rt, in.Imm)
	}
	fmt.Fprintf(h, "sdata %x\ndata %x\nbss %d\n", o.SData, o.Data, o.BSSSize)
	for _, r := range o.Relocs {
		fmt.Fprintf(h, "r %d %q %d %d %d %d\n", r.Kind, r.Sym, r.Addend, r.InstIndex, r.Section, r.Off)
	}
	fmt.Fprintf(h, "lines %v\n", o.SrcLines)
	names := make([]string, 0, len(o.Symbols))
	for name := range o.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := o.Symbols[name]
		fmt.Fprintf(h, "s %q %q %d %d %d\n", name, s.Name, s.Section, s.Off, s.Size)
	}
	return hexSum(h)
}

// imageDigest hashes the linked image: the encoded text words, the
// global pointer, the heap base and the entry address.
func imageDigest(p *prog.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "words %x\ngp %d\nheap %d\nentry %d\n", p.Words, p.GP, p.HeapBase, p.Entry)
	return hexSum(h)
}

func hexSum(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

// TestObjectsGolden pins the assembler and the linker byte for byte. For
// every workload under both toolchains it compares two SHA-256 digests
// with testdata/objects.golden, one "name object image" line each: the
// assembled object (objectDigest) and the linked image (imageDigest). A
// refactor of the assembler or the linker must leave every line
// unchanged; an intended change of output regenerates the file from the
// lines this test reports.
func TestObjectsGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "objects.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sums, _ := strings.Cut(line, " ")
		golden[name] = sums
	}
	seen := 0
	for _, w := range All() {
		for _, tc := range []Toolchain{BaseToolchain(), FACToolchain()} {
			name := w.Name + "/" + tc.Name
			text, err := minic.Compile(w.Source, tc.Opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			o, err := asm.Assemble(text)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			obj := objectDigest(o)
			p, err := prog.Link(o, tc.Link)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			seen++
			if sums := obj + " " + imageDigest(p); golden[name] != sums {
				t.Errorf("%s: build differs from the golden; the new line is %q", name, name+" "+sums)
			}
		}
	}
	if seen != len(golden) {
		t.Errorf("%d builds, golden has %d lines", seen, len(golden))
	}
}
