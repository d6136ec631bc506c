package minic

// Options selects optimization and alignment behaviour. The alignment
// options implement the paper's Section 4 software support; StrengthReduce
// is the loop optimization whose success determines whether array accesses
// become zero-offset pointer walks or register+register indexing.
type Options struct {
	// StrengthReduce rewrites for-loops so that induction-variable array
	// accesses become pointer increments (zero-offset loads and stores).
	StrengthReduce bool

	// AlignStack rounds stack frames to a multiple of 64 bytes so the
	// stack pointer keeps a program-wide 64-byte alignment.
	AlignStack bool
	// AlignStatics raises static (and local aggregate) alignments to the
	// next power of two of their size, capped at 32 bytes.
	AlignStatics bool
	// AlignStructs rounds structure sizes to the next power of two when the
	// padding does not exceed maxStructPad bytes.
	AlignStructs bool
	// MallocAlign is the dynamic allocation alignment (default 8; the
	// paper's software support raises it to 32).
	MallocAlign int

	// Peephole enables window-local assembly cleanups (store-to-load
	// forwarding, dead moves, jumps to the next line). Off by default so
	// the default toolchains produce exactly the code shapes the paper's
	// experiments analyse.
	Peephole bool
}

const (
	// maxStructPad caps AlignStructs' padding: the paper's 16 bytes.
	maxStructPad = 16
	// smallDataMax is the size of the largest global placed in the
	// gp-addressed small data region.
	smallDataMax = 8
	// defaultMallocAlign is the stock allocator's alignment, and the one
	// a zero Options.MallocAlign selects.
	defaultMallocAlign = 8
)

// BaseOptions is the paper's baseline toolchain: optimizing (strength
// reduction on) but with no fast-address-calculation-specific alignment.
func BaseOptions() Options {
	return Options{StrengthReduce: true, MallocAlign: defaultMallocAlign}
}

// staticAlign is the alignment of a global, or of a local in the frame,
// of type t: its own, raised under AlignStatics to the next power of two
// of its size, capped at 32 bytes. A scalar's size is its alignment, so
// the rule moves aggregates only.
func (o Options) staticAlign(t *ctype) int {
	if !o.AlignStatics {
		return t.alignment()
	}
	return max(t.alignment(), min(pow2Ceil(t.size()), 32))
}

// FACOptions is the paper's software-support toolchain: baseline plus all
// Section 4 alignment optimizations (the matching linker option is
// prog.Config.AlignGP).
func FACOptions() Options {
	o := BaseOptions()
	o.AlignStack = true
	o.AlignStatics = true
	o.AlignStructs = true
	o.MallocAlign = 32
	return o
}

// Compile translates a MiniC translation unit, prefixed with the runtime
// library, to assembly text.
func Compile(src string, opts Options) (string, error) {
	if opts.MallocAlign == 0 {
		opts.MallocAlign = defaultMallocAlign
	}
	u, err := parse(runtimePrelude(opts.MallocAlign), src, opts)
	if err != nil {
		return "", err
	}
	if err := analyze(u); err != nil {
		return "", err
	}
	if opts.StrengthReduce {
		strengthReduce(u)
	}
	asmText, err := generate(u, opts)
	if err != nil {
		return "", err
	}
	if opts.Peephole {
		asmText = peephole(asmText)
	}
	return asmText + startStub, nil
}

// startStub is the only hand-written assembly in the runtime: the program
// entry point, which calls main and exits with its return value.
const startStub = `
	.text
	.globl _start
_start:
	jal main
	move $a0, $v0
	li $v0, 10
	syscall
`
