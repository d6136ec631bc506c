# Late escape: a stack address first escapes in the pass that settles the
# entry facts, after a call earlier in that pass kept a slot's fact.
# main spills 7 to a slot and calls f, which takes the address of its own
# local and, because main has set the flag, hands it to k; k writes 0
# through it into main's slot, upward from the escaped address and so
# inside the analysis' contract.  main then re-loads the slot into $a0
# and passes it to h, which indexes buf with it.
#
# The flag's cell reads 0 until the analysis commits main's store of 1,
# so f's escape is first reached in the second memory round, in that
# round's second pass, the first to analyse f, whose entry facts are then
# already settled: k's inexact $sp and unknown $a0 come from main's two
# calls.  That pass joined main's return from f before it reached the
# escape, so it kept the slot and gave h an exact $a0 of 7.  A sound
# analysis reruns under the grown escape set and a fresh entry
# hypothesis: h's $a0 is unknown and its load may fail.  The stale 7
# would prove the load failing (block offset 28 plus 4 carries), which
# the dynamic replay refutes: h runs with $a0 = 0 and always verifies.
# The jump after the exit keeps the analysis from falling through the
# syscall into f.
.data
	.balign 32
buf:	.space 64
flag:	.word 0
.text
main:
	li $a0, 0
	jal k
	addi $sp, $sp, -32
	li $t0, 7
	sw $t0, 16($sp)
	la $t1, flag
	li $t0, 1
	sw $t0, 0($t1)
	jal f
	lw $a0, 16($sp)
	jal h
	li $a0, -1
	jal k
	addi $sp, $sp, 32
	li $v0, 10
	li $a0, 0
	syscall
halt:
	j halt
f:
	addi $sp, $sp, -32
	sw $ra, 28($sp)
	la $t1, flag
	lw $t0, 0($t1)
	beq $t0, $zero, fdone
	addi $a0, $sp, 4
	jal k
fdone:
	lw $ra, 28($sp)
	addi $sp, $sp, 32
	jr $ra
h:
	sll $t0, $a0, 2
	la $t1, buf
	add $t1, $t1, $t0
	lw $t2, 4($t1)
	jr $ra
k:
	blez $a0, kret
	sw $zero, 44($a0)
kret:
	jr $ra
