// Command facasm assembles and links one assembly translation unit and
// prints a listing of the linked program: sections, symbols, and the
// disassembled, relocated text.
//
// Usage:
//
//	facasm [-align-gp] [-locals] input.s
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/prog"
)

func main() {
	alignGP := flag.Bool("align-gp", false, "align the global pointer region (paper Section 4 linker support)")
	locals := flag.Bool("locals", false, "include local (dot-prefixed) labels in the symbol listing")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: facasm [-align-gp] [-locals] input.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	obj, err := asm.Assemble(string(src))
	if err != nil {
		fatal(err)
	}
	cfg := prog.DefaultConfig()
	cfg.AlignGP = *alignGP
	p, err := prog.Link(obj, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("entry    %#08x\n", p.Entry)
	fmt.Printf("gp       %#08x\n", p.GP)
	fmt.Printf("sp       %#08x\n", p.SP)
	fmt.Printf("heap     %#08x\n", p.HeapBase)
	fmt.Printf("text     %#08x..%#08x (%d instructions)\n\n", p.TextBase, p.TextEnd(), len(p.Insts))

	fmt.Println("symbols:")
	for _, name := range p.SymbolNames() {
		if !*locals && name[0] == '.' {
			continue
		}
		fmt.Printf("  %#08x  %s\n", p.Symbols[name], name)
	}
	fmt.Println("\ntext:")
	for i, in := range p.Insts {
		pc := p.TextBase + uint32(i*isa.InstBytes)
		fmt.Printf("  %#08x:  %08x  %v\n", pc, p.Words[i], in)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "facasm:", err)
	os.Exit(1)
}
