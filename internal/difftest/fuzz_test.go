package difftest

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/fac"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/prog"
)

// facGeoFrom maps arbitrary fuzz bytes onto a valid predictor geometry.
func facGeoFrom(bbRaw, sbRaw uint32, tagAdder bool) fac.Config {
	bb := uint(2 + bbRaw%11)           // 2..12
	sb := bb + 1 + uint(sbRaw)%(28-bb) // bb+1..28
	return fac.Config{BlockBits: bb, SetBits: sb, TagAdder: tagAdder}
}

// FuzzFACPredict checks the predictor's contract for arbitrary operands
// under arbitrary geometries:
//
//   - OK ⟺ no failure signal, and only the four defined signals appear.
//   - OK ⟹ Predicted == base+ofs (mod 2^32), the paper's soundness
//     invariant.
//   - Unless the conservative negative-index-register path is taken, the
//     verification circuit is *exact*: it fails iff the prediction is
//     wrong (Section 3's signals are necessary as well as sufficient).
//   - The block-offset field is always architecturally correct (it comes
//     from a full adder).
//   - The tag-adder variant agrees with the plain geometry on the
//     index+offset fields, and its failure signals are a subset (the tag
//     adder can only remove tag-carry failures).
func FuzzFACPredict(f *testing.F) {
	f.Add(uint32(0x7fff5b84), uint32(364), false, uint32(5), uint32(14), false)
	f.Add(uint32(0x10003fe0), uint32(0x20), false, uint32(5), uint32(14), false)
	f.Add(uint32(0x10000000), uint32(0xFFFFFFFC), false, uint32(5), uint32(14), false) // ofs = -4
	f.Add(uint32(0x10000000), uint32(0xFFFF8000), true, uint32(4), uint32(12), true)   // negative index reg
	f.Add(uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), false, uint32(2), uint32(3), true)
	f.Fuzz(func(t *testing.T, base, ofs uint32, isReg bool, bbRaw, sbRaw uint32, tagAdder bool) {
		geo := facGeoFrom(bbRaw, sbRaw, tagAdder)
		if err := geo.Validate(); err != nil {
			t.Fatalf("derived geometry %+v invalid: %v", geo, err)
		}
		res := geo.Predict(base, ofs, isReg)
		actual := base + ofs

		if res.OK != (res.Failure == 0) {
			t.Fatalf("%+v Predict(%#x,%#x,%v): OK=%v but Failure=%v", geo, base, ofs, isReg, res.OK, res.Failure)
		}
		allSignals := fac.FailOverflow | fac.FailGenCarry | fac.FailLargeNegConst | fac.FailNegIndexReg
		if res.Failure&^allSignals != 0 {
			t.Fatalf("%+v Predict(%#x,%#x,%v): undefined failure bits %#x", geo, base, ofs, isReg, uint8(res.Failure))
		}
		if res.OK && res.Predicted != actual {
			t.Fatalf("%+v Predict(%#x,%#x,%v): verified but predicted %#x != actual %#x",
				geo, base, ofs, isReg, res.Predicted, actual)
		}
		negReg := isReg && ofs&0x80000000 != 0
		if negReg != (res.Failure&fac.FailNegIndexReg != 0) {
			t.Fatalf("%+v Predict(%#x,%#x,%v): FailNegIndexReg=%v, want %v",
				geo, base, ofs, isReg, !negReg, negReg)
		}
		if !negReg && res.OK != (res.Predicted == actual) {
			t.Fatalf("%+v Predict(%#x,%#x,%v): verification is inexact: OK=%v, predicted %#x, actual %#x",
				geo, base, ofs, isReg, res.OK, res.Predicted, actual)
		}
		if got, want := geo.BlockOffset(res.Predicted), geo.BlockOffset(actual); got != want {
			t.Fatalf("%+v Predict(%#x,%#x,%v): block offset %#x != architectural %#x",
				geo, base, ofs, isReg, got, want)
		}

		// Tag-adder agreement on the shared fields.
		plainGeo, tagGeo := geo, geo
		plainGeo.TagAdder, tagGeo.TagAdder = false, true
		plain := plainGeo.Predict(base, ofs, isReg)
		tagged := tagGeo.Predict(base, ofs, isReg)
		sm := uint32(1)<<geo.SetBits - 1
		if plain.Predicted&sm != tagged.Predicted&sm {
			t.Fatalf("%+v Predict(%#x,%#x,%v): index+offset fields disagree across tag-adder variants: %#x vs %#x",
				geo, base, ofs, isReg, plain.Predicted&sm, tagged.Predicted&sm)
		}
		if tagged.Failure&^plain.Failure != 0 {
			t.Fatalf("%+v Predict(%#x,%#x,%v): tag adder raised new signals: %v not in %v",
				geo, base, ofs, isReg, tagged.Failure, plain.Failure)
		}
		if plain.Failure&^tagged.Failure&^fac.FailGenCarry != 0 {
			t.Fatalf("%+v Predict(%#x,%#x,%v): tag adder removed non-tag-carry signals: plain %v, tagged %v",
				geo, base, ofs, isReg, plain.Failure, tagged.Failure)
		}
	})
}

// opSeeds returns one encodable instruction per op, with every operand
// of its assembly syntax filled in.
func opSeeds() []isa.Inst {
	var insts []isa.Inst
	for op := isa.Op(1); op < isa.NumOps; op++ {
		in := isa.Inst{Op: op}
		for i, o := range op.Syntax() {
			switch o {
			case isa.OpndImm:
				in.Imm = 4
			case isa.OpndHi:
				in.Imm = 0x1000
			case isa.OpndDisp:
				in.Imm = -8
			case isa.OpndTarget:
				in.Imm = 0x00400008
			case isa.OpndMem:
				in.Rs = 29
				if op.Mode() == isa.AMReg {
					in.Rt = 10
				} else {
					in.Imm = -4
				}
			default:
				in.SetField(o, isa.Reg(8+i))
			}
		}
		insts = append(insts, in)
	}
	return insts
}

// FuzzEncodeDecode checks the binary fixpoint: any word that decodes must
// re-encode, and the re-encoded word must decode to the identical
// instruction (one canonicalization step at most). It is seeded with one
// word per op.
func FuzzEncodeDecode(f *testing.F) {
	pcs := []uint32{0x00400000, 0x00400abc}
	for _, in := range opSeeds() {
		w, err := isa.Encode(in, pcs[0])
		if err != nil {
			f.Fatalf("seed %v does not encode: %v", in, err)
		}
		f.Add(w, uint32(0))
	}
	f.Add(uint32(0), uint32(0))
	f.Add(^uint32(0), uint32(1))
	f.Fuzz(func(t *testing.T, word, pcSel uint32) {
		pc := pcs[pcSel%uint32(len(pcs))]
		in, err := isa.Decode(word, pc)
		if err != nil {
			return // not every word is an instruction
		}
		w2, err := isa.Encode(in, pc)
		if err != nil {
			t.Fatalf("decode(%#08x) = %v, which does not re-encode: %v", word, in, err)
		}
		in2, err := isa.Decode(w2, pc)
		if err != nil {
			t.Fatalf("re-encoding %#08x of %v does not decode: %v", w2, in, err)
		}
		if in2 != in {
			t.Fatalf("decode/encode is not a fixpoint: %#08x -> %v -> %#08x -> %v", word, in, w2, in2)
		}
	})
}

// FuzzAsmRoundtrip checks the text fixpoint: any source the assembler
// accepts must disassemble (instruction by instruction) into text the
// assembler re-accepts, producing the identical instruction sequence.
// Relocated immediates are zero placeholders in both generations, so the
// comparison is exact even for symbol-bearing source.
func FuzzAsmRoundtrip(f *testing.F) {
	f.Add("main:\n\tli $t0, 42\n\tlw $t1, 4($t0)\n\tjr $ra\n")
	f.Add(".data\nx: .word 7\n.text\nmain:\n\tla $t0, x\n\tlw $t1, 0($t0)\n\tsw $t1, 8($sp)\n\tjr $ra\n")
	f.Add("main:\n\tlwx $t2, ($t0+$t1)\n\tswx $t2, ($t1+$t0)\n\tlw $t3, ($t0)+4\n\tsw $t3, ($t0)+-4\n")
	f.Add("loop:\n\taddi $t0, $t0, -1\n\tbgtz $t0, loop\n\tbeq $zero, $zero, 8\n\tnop\n\tsyscall\n")
	f.Add("main:\n\tlfd $f2, 8($sp)\n\tfadd $f4, $f2, $f2\n\tsfd $f4, ($sp)+8\n\tmtc1 $f1, $t0\n\tmfc1 $t1, $f1\n")
	f.Add(".sdata\ns: .asciiz \"hi\"\n.text\nmain:\n\tlui $at, %hi(s)\n\taddi $a0, $at, %lo(s)\n\tjal 0x400000\n")
	// Predictor-adversarial seed programs (see TestAdversarialSeeds): a
	// pointer chase that defeats stride prediction and an alternating-base
	// loop that defeats PC-indexed last-address prediction.
	f.Add(chaseSeedSrc)
	f.Add(alternateSeedSrc)
	// The disassembly of every op.
	all := "main:\n"
	for _, in := range opSeeds() {
		all += "\t" + in.String() + "\n"
	}
	f.Add(all)
	// Memory-domain seed programs (see TestMemoryDomainCorpus): a
	// memory-resident global loop limit, a spilled-local limit, and an
	// address-taken escape — mutations explore the store/load/escape
	// shapes the staticfac memory domain reasons about.
	for _, name := range []string{"memglobal.s", "memstack.s", "memescape.s"} {
		if b, err := os.ReadFile(filepath.Join("testdata", "staticfac", name)); err == nil {
			f.Add(string(b))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8<<10 {
			return // bound assembly time, not coverage
		}
		o, err := asm.Assemble(src)
		if err != nil {
			return // rejected source is fine; we check accepted source
		}
		var b []byte
		b = append(b, ".text\n"...)
		for _, in := range o.Text {
			b = append(b, in.String()...)
			b = append(b, '\n')
		}
		o2, err := asm.Assemble(string(b))
		if err != nil {
			t.Fatalf("disassembly of accepted source does not reassemble: %v\ndisassembly:\n%s", err, b)
		}
		if len(o2.Text) != len(o.Text) {
			t.Fatalf("reassembly produced %d insts, want %d\ndisassembly:\n%s", len(o2.Text), len(o.Text), b)
		}
		for i := range o.Text {
			if o2.Text[i] != o.Text[i] {
				t.Fatalf("inst %d: reassembled %q to %v, want %v", i, o.Text[i].String(), o2.Text[i], o.Text[i])
			}
		}
	})
}

// buildMiniC compiles, assembles, and links one generated program under
// one toolchain.
func buildMiniC(t *testing.T, src string, opts minic.Options, cfg prog.Config) *prog.Program {
	t.Helper()
	asmText, err := minic.Compile(src, opts)
	if err != nil {
		t.Fatalf("generated program does not compile: %v\nsource:\n%s", err, src)
	}
	o, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatalf("compiler output does not assemble: %v\nsource:\n%s", err, src)
	}
	p, err := prog.Link(o, cfg)
	if err != nil {
		t.Fatalf("object does not link: %v\nsource:\n%s", err, src)
	}
	return p
}

// FuzzEmuVsPipeline is the whole-stack oracle: a generated MiniC program
// goes through both toolchains (baseline and the paper's FAC-aligned
// software support), executes on the functional emulator, and replays
// through the timing pipeline under every machine in Machines(), with the
// event-stream checker attached.
func FuzzEmuVsPipeline(f *testing.F) {
	for s := int64(1); s <= 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := RandomMiniC(rand.New(rand.NewSource(seed)))
		toolchains := []struct {
			name string
			opts minic.Options
			cfg  prog.Config
		}{
			{"base", minic.BaseOptions(), prog.DefaultConfig()},
			{"fac", minic.FACOptions(), func() prog.Config { c := prog.DefaultConfig(); c.AlignGP = true; return c }()},
		}
		for _, tc := range toolchains {
			p := buildMiniC(t, src, tc.opts, tc.cfg)
			if err := Run(p, 2_000_000); err != nil {
				t.Fatalf("toolchain %s: %v\nsource:\n%s", tc.name, err, src)
			}
		}
	})
}
