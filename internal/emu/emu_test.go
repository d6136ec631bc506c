package emu

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/prog"
)

func run(t *testing.T, src string) *Emulator {
	t.Helper()
	e := load(t, src)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e
}

func load(t *testing.T, src string) *Emulator {
	t.Helper()
	o, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	p, err := prog.Link(o, prog.DefaultConfig())
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	e := New(p)
	e.MaxInsts = 10_000_000
	return e
}

func TestArithmetic(t *testing.T) {
	e := run(t, `
main:
	li  $t0, 6
	li  $t1, 7
	mul $a0, $t0, $t1
	li  $v0, 1
	syscall
	jr  $ra
`)
	if got := e.Out.String(); got != "42" {
		t.Errorf("output = %q, want 42", got)
	}
	if e.ExitCode != 42 { // v0 still holds 1? no: exit via jr $ra, code = $v0
		// After syscall 1, $v0 unchanged (1). Return through $ra halts with $v0.
		if e.ExitCode != 1 {
			t.Errorf("exit code = %d", e.ExitCode)
		}
	}
}

func TestSignedOps(t *testing.T) {
	e := run(t, `
main:
	li  $t0, -15
	li  $t1, 4
	div $t2, $t0, $t1     # -3
	rem $t3, $t0, $t1     # -3
	add $a0, $t2, $t3     # -6
	li  $v0, 1
	syscall
	li  $a0, 10
	li  $v0, 11
	syscall
	li  $t0, -8
	sra $a0, $t0, 2       # -2
	li  $v0, 1
	syscall
	li  $v0, 10
	syscall
`)
	if got := e.Out.String(); got != "-6\n-2" {
		t.Errorf("output = %q", got)
	}
}

func TestLoadsStores(t *testing.T) {
	e := run(t, `
	.data
arr:	.word 10, 20, 30, 40
b:	.byte 0xFF
h:	.half 0x8000
	.text
main:
	la   $t0, arr
	lw   $a0, 4($t0)        # 20
	li   $v0, 1
	syscall
	lb   $a0, b             # -1 sign extended
	li   $v0, 1
	syscall
	lbu  $a0, b             # 255
	li   $v0, 1
	syscall
	lh   $a0, h             # -32768
	li   $v0, 1
	syscall
	lhu  $a0, h             # 32768
	li   $v0, 1
	syscall
	# store then reload
	li   $t1, 99
	sw   $t1, 12($t0)
	lw   $a0, 12($t0)
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`)
	if got := e.Out.String(); got != "20-1255-327683276899" {
		t.Errorf("output = %q", got)
	}
}

func TestAddressingModesExec(t *testing.T) {
	e := run(t, `
	.data
arr:	.word 5, 6, 7, 8
	.text
main:
	la   $t0, arr
	li   $t1, 8
	lw   $a0, ($t0+$t1)     # arr[2] = 7
	li   $v0, 1
	syscall
	# post-increment walk
	lw   $a0, ($t0)+4       # 5, t0 -> arr+4
	li   $v0, 1
	syscall
	lw   $a0, ($t0)+4       # 6
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`)
	if got := e.Out.String(); got != "756" {
		t.Errorf("output = %q", got)
	}
}

func TestBranchesLoops(t *testing.T) {
	// sum 1..10 = 55
	e := run(t, `
main:
	li   $t0, 0     # sum
	li   $t1, 1     # i
loop:
	add  $t0, $t0, $t1
	addi $t1, $t1, 1
	ble  $t1, $t2, loop   # t2 = 0, never
	li   $t2, 10
	ble  $t1, $t2, loop
	move $a0, $t0
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`)
	if got := e.Out.String(); got != "55" {
		t.Errorf("output = %q", got)
	}
}

func TestFunctionCalls(t *testing.T) {
	// Recursive factorial via stack.
	e := run(t, `
main:
	li   $a0, 6
	jal  fact
	move $a0, $v0
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
fact:
	addi $sp, $sp, -16
	sw   $ra, 12($sp)
	sw   $a0, 8($sp)
	li   $t0, 2
	blt  $a0, $t0, base
	addi $a0, $a0, -1
	jal  fact
	lw   $a0, 8($sp)
	mul  $v0, $v0, $a0
	j    done
base:
	li   $v0, 1
done:
	lw   $ra, 12($sp)
	addi $sp, $sp, 16
	jr   $ra
`)
	if got := e.Out.String(); got != "720" {
		t.Errorf("output = %q, want 720", got)
	}
}

func TestFloatingPoint(t *testing.T) {
	e := run(t, `
	.data
pi:	.double 3.25
two:	.double 2.0
	.text
main:
	lfd  $f2, pi
	lfd  $f4, two
	fmul $f12, $f2, $f4
	li   $v0, 3
	syscall            # 6.5
	li   $a0, 32
	li   $v0, 11
	syscall
	fclt $f2, $f4      # 3.25 < 2.0 = false
	bc1t wrong
	fclt $f4, $f2
	bc1f wrong
	li   $t0, 7
	mtc1 $f6, $t0
	cvtdw $f6, $f6
	fadd $f12, $f6, $f6
	li   $v0, 3
	syscall            # 14
	li   $v0, 10
	syscall
wrong:
	li   $a0, 120      # 'x'
	li   $v0, 11
	syscall
	li   $v0, 10
	syscall
`)
	if got := e.Out.String(); got != "6.5 14" {
		t.Errorf("output = %q", got)
	}
}

func TestCvtWD(t *testing.T) {
	e := run(t, `
	.data
v:	.double 42.9
	.text
main:
	lfd   $f2, v
	cvtwd $f2, $f2
	mfc1  $a0, $f2
	li    $v0, 1
	syscall
	li    $v0, 10
	syscall
`)
	if got := e.Out.String(); got != "42" {
		t.Errorf("output = %q", got)
	}
}

func TestSbrkAndStrings(t *testing.T) {
	e := run(t, `
	.data
msg:	.asciiz "hi "
	.text
main:
	la  $a0, msg
	li  $v0, 4
	syscall
	li  $a0, 64
	li  $v0, 9
	syscall             # sbrk(64)
	move $t0, $v0
	li  $t1, 104        # 'h'
	sb  $t1, 0($t0)
	li  $t1, 112        # 'p'
	sb  $t1, 1($t0)
	sb  $zero, 2($t0)
	move $a0, $t0
	li  $v0, 4
	syscall
	li  $v0, 10
	syscall
`)
	if got := e.Out.String(); got != "hi hp" {
		t.Errorf("output = %q", got)
	}
	if e.Brk == e.Prog.HeapBase {
		t.Error("sbrk did not move the break")
	}
}

func TestTraceRecords(t *testing.T) {
	e := load(t, `
main:
	li   $t0, 0x1000
	li   $t1, 0x20
	lw   $t2, 8($t0)
	lw   $t3, ($t0+$t1)
	beq  $zero, $zero, skip
	add  $t4, $t4, $t4
skip:
	jr   $ra
`)
	var traces []Trace
	for !e.Halted {
		tr, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	if len(traces) != 6 {
		t.Fatalf("executed %d insts, want 6 (branch skips the add)", len(traces))
	}
	lw1 := traces[2]
	if lw1.EffAddr != 0x1008 || lw1.Base != 0x1000 || lw1.Offset != 8 || lw1.IsRegOffset {
		t.Errorf("lw const trace = %+v", lw1)
	}
	lw2 := traces[3]
	if lw2.EffAddr != 0x1020 || lw2.Base != 0x1000 || lw2.Offset != 0x20 || !lw2.IsRegOffset {
		t.Errorf("lw reg trace = %+v", lw2)
	}
	br := traces[4]
	if !br.Taken || br.NextPC != br.PC+8 {
		t.Errorf("branch trace = %+v", br)
	}
}

// TestStepIntoOverwritesEveryField: StepInto assigns each field of the
// trace rather than zeroing the slot first, so a slot still holding a
// stale trace, every field nonzero, must come out exactly as a zeroed one
// does, on every kind of instruction.
func TestStepIntoOverwritesEveryField(t *testing.T) {
	src := `
	.data
arr:	.word 1, 2, 3, 4
d:	.double 1.5
	.text
main:
	la   $t0, arr
	li   $t1, 4
	lw   $t2, 0($t0)
	lw   $t3, ($t0+$t1)
	lw   $t4, ($t0)+4
	sw   $t2, 8($t0)
	lbu  $t5, 1($t0)
	lfd  $f2, d
	fadd $f4, $f2, $f2
	beq  $t2, $t3, main
	bne  $t2, $t3, skip
	add  $t6, $t6, $t6
skip:
	jal  leaf
	li   $v0, 10
	syscall
leaf:
	jr   $ra
`
	fresh := load(t, src)
	stale := New(fresh.Prog) // the same program, so the same Pre table
	var dirty Trace
	fillNonzero(reflect.ValueOf(&dirty).Elem())
	for !fresh.Halted {
		var want Trace
		if err := fresh.StepInto(&want); err != nil {
			t.Fatal(err)
		}
		got := dirty
		if err := stale.StepInto(&got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pc %#x: stepping into a stale slot gives\n%+v\nwant\n%+v", want.PC, got, want)
		}
	}
}

// fillNonzero sets every field reachable in v to a nonzero value.
func fillNonzero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonzero(v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonzero(v.Elem())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonzero(v.Index(i))
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0xA5)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	e := run(t, `
main:
	addi $zero, $zero, 5
	move $a0, $zero
	li   $v0, 1
	syscall
	li   $v0, 10
	syscall
`)
	if got := e.Out.String(); got != "0" {
		t.Errorf("output = %q", got)
	}
}

func TestFaults(t *testing.T) {
	cases := []struct {
		src  string
		want string
		pc   func(*Emulator) uint32 // the faulting PC, when it matters
	}{
		{"main:\n\tli $t0, 0x1001\n\tlw $t1, 0($t0)\n\tjr $ra\n", "unaligned", nil},
		{"main:\n\tli $t0, 5\n\tdiv $t1, $t0, $zero\n\tjr $ra\n", "division by zero", nil},
		{"main:\n\tli $t0, 0x2000\n\tjr $t0\n", "bad pc", nil},
		// A misaligned PC inside the text.
		{"main:\n\tla $t0, main\n\taddi $t0, $t0, 2\n\tjr $t0\n", "bad pc",
			func(e *Emulator) uint32 { return e.Prog.TextBase + 2 }},
		// One past the last instruction.
		{"main:\n\tla $t0, end\n\tjr $t0\nend:\n", "bad pc",
			func(e *Emulator) uint32 { return e.Prog.TextEnd() }},
	}
	for _, c := range cases {
		e := load(t, c.src)
		err := e.Run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%q) error = %v, want containing %q", c.src, err, c.want)
		}
		if c.pc != nil && e.PC != c.pc(e) {
			t.Errorf("Run(%q) faulted at pc %#x, want %#x", c.src, e.PC, c.pc(e))
		}
	}
}

func TestInstBudget(t *testing.T) {
	e := load(t, "main:\n\tj main\n")
	e.MaxInsts = 100
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("expected budget error, got %v", err)
	}
}

// TestRecord: Record stops at its bound, keeps stepping from where it
// stopped, and returns the traces before a fault with the fault.
func TestRecord(t *testing.T) {
	const src = "main:\n\tli $t0, 5\n\taddi $t0, $t0, -1\n\tdiv $t1, $t0, $zero\n\tjr $ra\n"
	e := load(t, src)
	first, err := e.Record(2)
	if err != nil || len(first) != 2 {
		t.Fatalf("Record(2) = %d traces, %v", len(first), err)
	}
	rest, err := e.Record(0)
	if err == nil || !strings.Contains(err.Error(), "division by zero") || len(rest) != 0 {
		t.Fatalf("Record(0) after two = %d traces, %v; want none and the division fault", len(rest), err)
	}
	whole, err := New(e.Prog).Record(0)
	if err == nil || len(whole) != 2 || whole[0] != first[0] || whole[1] != first[1] {
		t.Fatalf("Record(0) = %d traces, %v; want the two before the fault", len(whole), err)
	}
}

func TestPostIncWritesBase(t *testing.T) {
	e := load(t, `
main:
	li  $t0, 0x1000
	sw  $t0, ($t0)+8
	jr  $ra
`)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.R[isa.T0] != 0x1008 {
		t.Errorf("post-inc base = %#x, want 0x1008", e.R[isa.T0])
	}
	if e.Mem.Read32(0x1000) != 0x1000 {
		t.Error("post-inc stored at wrong address")
	}
}
