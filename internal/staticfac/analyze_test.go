package staticfac_test

import (
	"testing"

	"repro/internal/staticfac"
)

// TestIndirectCallJoinsEntryFacts pins the entry facts of a function
// entered both directly and through jalr: an indirect call may enter any
// text symbol, so f's $a0 must cover the 4096 the indirect call passes
// as well as the 64 of the direct call.
func TestIndirectCallJoinsEntryFacts(t *testing.T) {
	a := analyzeAsm(t, `
.data
pad:	.word 0
.text
main:
	addi $sp, $sp, -16
	sw $ra, 12($sp)
	li $a0, 64
	jal f
	li $a0, 4096
	la $t9, f
	jalr $ra, $t9
	lw $ra, 12($sp)
	addi $sp, $sp, 16
	li $v0, 10
	li $a0, 0
	syscall
f:
	lw $t0, 0($a0)
	jr $ra
`)
	s := findSite(t, a, func(s *staticfac.Site) bool { return s.Func == "f" })
	if !s.Reached || !s.Base.Contains(64) || !s.Base.Contains(4096) {
		t.Errorf("f's load base is %v (reached %v), want a value covering both callers' $a0, 64 and 4096",
			s.Base, s.Reached)
	}
}

// TestNarrowingNeedsUnmodifiedOperands pins the survival checks of
// branch narrowing: a guard's facts carry over to the registers that
// computed the tested value (an affine source, a comparison's operands)
// only while those registers reach the branch unmodified. Each program
// rewrites one of them before the branch; carrying the guard's fact onto
// the new value would empty its interval and prune the taken edge, which
// the program takes.
func TestNarrowingNeedsUnmodifiedOperands(t *testing.T) {
	for _, tc := range []struct{ name, guard string }{
		// $t1 = $t0 + 0 > 0 says nothing about the rewritten $t0 = -1.
		{"affine-source", `
	li $t0, 5
	addi $t1, $t0, 0
	li $t0, -1
	bgtz $t1, pos`},
		// $t0 < $t2 says nothing about the rewritten $t0 = 100.
		{"comparison-x", `
	li $t0, 5
	li $t2, 10
	slt $t1, $t0, $t2
	li $t0, 100
	bne $t1, $zero, pos`},
		// $t0 < $t2 says nothing about the rewritten $t2 = 0.
		{"comparison-y", `
	li $t0, 5
	li $t2, 10
	slt $t1, $t0, $t2
	li $t2, 0
	bne $t1, $zero, pos`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := analyzeAsm(t, `
.data
pad:	.word 0
.text
main:`+tc.guard+`
	j out
pos:
	la $t5, pad
	lw $t6, 0($t5)
out:
	li $v0, 10
	li $a0, 0
	syscall
`)
			if s := findSite(t, a, func(s *staticfac.Site) bool { return !s.Store }); !s.Reached {
				t.Errorf("the load on the taken edge at %#x is unreached: narrowing pruned an edge the program takes", s.PC)
			}
		})
	}
}
