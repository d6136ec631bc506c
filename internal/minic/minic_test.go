package minic

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/prog"
)

// compileRun compiles, assembles, links, and executes a MiniC program,
// returning its output.
func compileRun(t *testing.T, src string, opts Options, link prog.Config) string {
	t.Helper()
	asmText, err := Compile(src, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	o, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatalf("Assemble: %v\n--- asm ---\n%s", err, numbered(asmText))
	}
	p, err := prog.Link(o, link)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	e := emu.New(p)
	e.MaxInsts = 100_000_000
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v\noutput so far: %q", err, e.Out.String())
	}
	return e.Out.String()
}

func numbered(s string) string {
	lines := strings.Split(s, "\n")
	var b strings.Builder
	for i, l := range lines {
		b.WriteString(strings.TrimRight(l, " "))
		_ = i
		b.WriteByte('\n')
	}
	return b.String()
}

// run with all four toolchain variants to catch option-dependent bugs.
func runAllVariants(t *testing.T, src, want string) {
	t.Helper()
	variants := []struct {
		name string
		opts Options
		link prog.Config
	}{
		{"base", BaseOptions(), prog.DefaultConfig()},
		{"base-nosr", func() Options { o := BaseOptions(); o.StrengthReduce = false; return o }(), prog.DefaultConfig()},
		{"fac", FACOptions(), func() prog.Config { c := prog.DefaultConfig(); c.AlignGP = true; return c }()},
		{"fac-nosr", func() Options { o := FACOptions(); o.StrengthReduce = false; return o }(), func() prog.Config { c := prog.DefaultConfig(); c.AlignGP = true; return c }()},
	}
	for _, v := range variants {
		if got := compileRun(t, src, v.opts, v.link); got != want {
			t.Errorf("%s: output = %q, want %q", v.name, got, want)
		}
	}
}

func TestHello(t *testing.T) {
	runAllVariants(t, `
int main() {
	print_str("hello\n");
	return 0;
}`, "hello\n")
}

func TestArithmeticOps(t *testing.T) {
	runAllVariants(t, `
int main() {
	int a; int b;
	a = 17; b = 5;
	print_int(a + b); print_char(' ');
	print_int(a - b); print_char(' ');
	print_int(a * b); print_char(' ');
	print_int(a / b); print_char(' ');
	print_int(a % b); print_char(' ');
	print_int(a << 2); print_char(' ');
	print_int(a >> 2); print_char(' ');
	print_int(a & b); print_char(' ');
	print_int(a | b); print_char(' ');
	print_int(a ^ b); print_char(' ');
	print_int(-a); print_char(' ');
	print_int(~a);
	return 0;
}`, "22 12 85 3 2 68 4 1 21 20 -17 -18")
}

func TestComparisonsAndLogic(t *testing.T) {
	runAllVariants(t, `
int main() {
	int a; int b;
	a = 3; b = 7;
	print_int(a < b);
	print_int(a > b);
	print_int(a <= 3);
	print_int(a >= 4);
	print_int(a == 3);
	print_int(a != 3);
	print_int(a < b && b < 10);
	print_int(a > b || b > 10);
	print_int(!a);
	print_int(!0);
	return 0;
}`, "1010101001")
}

func TestShortCircuit(t *testing.T) {
	runAllVariants(t, `
int hits;
int bump() { hits = hits + 1; return 1; }
int main() {
	int x;
	x = 0 && bump();
	x = 1 || bump();
	print_int(hits);
	x = 1 && bump();
	x = 0 || bump();
	print_int(hits);
	return 0;
}`, "02")
}

func TestControlFlow(t *testing.T) {
	runAllVariants(t, `
int main() {
	int i; int sum;
	sum = 0;
	for (i = 1; i <= 10; i = i + 1) {
		if (i == 3) { continue; }
		if (i == 9) { break; }
		sum = sum + i;
	}
	print_int(sum);
	print_char(' ');
	i = 0;
	while (i < 5) { i = i + 1; }
	print_int(i);
	return 0;
}`, "33 5")
}

func TestGlobalsSmallAndLarge(t *testing.T) {
	runAllVariants(t, `
int counter;                 /* small: gp-relative */
int bigarr[100];             /* large: lui/at addressing */
double gscale;
int main() {
	int i;
	counter = 42;
	gscale = 2.5;
	for (i = 0; i < 100; i = i + 1) {
		bigarr[i] = i * 2;
	}
	print_int(counter); print_char(' ');
	print_int(bigarr[7]); print_char(' ');
	print_int(bigarr[99]); print_char(' ');
	print_double(gscale);
	return 0;
}`, "42 14 198 2.5")
}

func TestArraysAndPointers(t *testing.T) {
	runAllVariants(t, `
int a[10];
int main() {
	int *p; int i;
	for (i = 0; i < 10; i = i + 1) { a[i] = i * i; }
	p = &a[3];
	print_int(*p); print_char(' ');
	print_int(p[2]); print_char(' ');
	print_int(*(p + 3)); print_char(' ');
	p = p + 1;
	print_int(*p); print_char(' ');
	print_int(a[2 + 2]); print_char(' ');
	print_int(&a[9] - &a[2]);
	return 0;
}`, "9 25 36 16 16 7")
}

func TestIndexConstants(t *testing.T) {
	runAllVariants(t, `
int a[16];
int main() {
	int i;
	for (i = 0; i < 16; i = i + 1) { a[i] = i; }
	for (i = 1; i < 15; i = i + 1) {
		a[i] = a[i - 1] + a[i + 1];
	}
	print_int(a[14]);
	return 0;
}`, "119")
}

func TestStructs(t *testing.T) {
	runAllVariants(t, `
struct point { int x; int y; };
struct rect { struct point min; struct point max; int tag; };
struct point pts[4];
int main() {
	struct rect r;
	struct rect *pr;
	int i;
	r.min.x = 1; r.min.y = 2;
	r.max.x = 30; r.max.y = 40;
	r.tag = 7;
	pr = &r;
	print_int(pr->max.x - pr->min.x); print_char(' ');
	print_int(pr->tag); print_char(' ');
	for (i = 0; i < 4; i = i + 1) {
		pts[i].x = i;
		pts[i].y = i * 10;
	}
	print_int(pts[3].y + pts[2].x);
	return 0;
}`, "29 7 32")
}

func TestStructSizesWithPadding(t *testing.T) {
	// 12-byte struct rounds to 16 under AlignStructs; sizeof reflects it.
	src := `
struct s3 { int a; int b; int c; };
int main() {
	print_int(sizeof(struct s3));
	return 0;
}`
	if got := compileRun(t, src, BaseOptions(), prog.DefaultConfig()); got != "12" {
		t.Errorf("base sizeof = %q, want 12", got)
	}
	if got := compileRun(t, src, FACOptions(), prog.DefaultConfig()); got != "16" {
		t.Errorf("fac sizeof = %q, want 16", got)
	}
}

func TestCharsAndStrings(t *testing.T) {
	runAllVariants(t, `
char buf[32];
int main() {
	char *s;
	int n;
	s = "abc";
	n = strlen(s);
	print_int(n); print_char(' ');
	memcpy(buf, s, n + 1);
	print_str(buf); print_char(' ');
	print_int(strcmp(buf, "abc")); print_char(' ');
	print_int(strcmp(buf, "abd") < 0); print_char(' ');
	buf[1] = 'X';
	print_str(buf);
	return 0;
}`, "3 abc 0 1 aXc")
}

func TestMallocAndLists(t *testing.T) {
	runAllVariants(t, `
struct node { int val; struct node *next; };
int main() {
	struct node *head; struct node *n;
	int i; int sum;
	head = 0;
	for (i = 1; i <= 5; i = i + 1) {
		n = malloc(sizeof(struct node));
		n->val = i * i;
		n->next = head;
		head = n;
	}
	sum = 0;
	for (n = head; n != 0; n = n->next) {
		sum = sum + n->val;
	}
	print_int(sum);
	return 0;
}`, "55")
}

func TestDoubles(t *testing.T) {
	runAllVariants(t, `
double xs[8];
int main() {
	int i;
	double sum; double scale;
	scale = 0.5;
	for (i = 0; i < 8; i = i + 1) {
		xs[i] = i * 1.5;
	}
	sum = 0.0;
	for (i = 0; i < 8; i = i + 1) {
		sum = sum + xs[i] * scale;
	}
	print_double(sum); print_char(' ');
	print_int(sum > 10.0); print_char(' ');
	print_int(sum < 22.0); print_char(' ');
	i = sum;
	print_int(i);
	return 0;
}`, "21 1 1 21")
}

func TestIntDoubleConversions(t *testing.T) {
	runAllVariants(t, `
double half(int n) { return n / 2.0; }
int main() {
	double d;
	int i;
	d = half(7);
	print_double(d); print_char(' ');
	i = d * 2.0;
	print_int(i); print_char(' ');
	d = 3;
	print_double(d + 0.25);
	return 0;
}`, "3.5 7 3.25")
}

func TestFunctionsAndRecursion(t *testing.T) {
	runAllVariants(t, `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int ack(int m, int n) {
	if (m == 0) { return n + 1; }
	if (n == 0) { return ack(m - 1, 1); }
	return ack(m - 1, ack(m, n - 1));
}
int main() {
	print_int(fib(15)); print_char(' ');
	print_int(ack(2, 3));
	return 0;
}`, "610 9")
}

func TestManyArguments(t *testing.T) {
	runAllVariants(t, `
int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
	return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6 + g * 7 + h * 8;
}
double mix(double x, double y, double z, int k) {
	return x + y * 2.0 + z * 3.0 + k;
}
int main() {
	print_int(sum8(1, 2, 3, 4, 5, 6, 7, 8));
	print_char(' ');
	print_double(mix(1.5, 2.0, 3.0, 10));
	return 0;
}`, "204 24.5")
}

func TestTwoDimensionalArrays(t *testing.T) {
	runAllVariants(t, `
int m[8][8];
int main() {
	int i; int j; int trace;
	for (i = 0; i < 8; i = i + 1) {
		for (j = 0; j < 8; j = j + 1) {
			m[i][j] = i * 8 + j;
		}
	}
	trace = 0;
	for (i = 0; i < 8; i = i + 1) {
		trace = trace + m[i][i];
	}
	print_int(trace);
	return 0;
}`, "252")
}

func TestRandDeterministic(t *testing.T) {
	runAllVariants(t, `
int main() {
	int i; int sum;
	srand(42);
	sum = 0;
	for (i = 0; i < 10; i = i + 1) {
		sum = sum + rand() % 100;
	}
	srand(42);
	print_int(sum - (rand() % 100) - (rand() % 100) >= 0);
	return 0;
}`, "1")
}

func TestAddressTakenLocals(t *testing.T) {
	runAllVariants(t, `
void bump(int *p) { *p = *p + 1; }
int main() {
	int x;
	x = 41;
	bump(&x);
	print_int(x);
	return 0;
}`, "42")
}

func TestCallsInExpressions(t *testing.T) {
	runAllVariants(t, `
int two() { return 2; }
int three() { return 3; }
int add(int a, int b) { return a + b; }
int main() {
	print_int(two() * 10 + three());
	print_char(' ');
	print_int(add(two(), three()) * add(three(), two()));
	return 0;
}`, "23 25")
}

func TestStrengthReductionCorrectness(t *testing.T) {
	// The same kernel with and without strength reduction must agree.
	src := `
int a[64]; int b[64];
int main() {
	int i; int sum;
	for (i = 0; i < 64; i = i + 1) { a[i] = i; b[i] = 64 - i; }
	sum = 0;
	for (i = 0; i < 64; i = i + 1) {
		sum = sum + a[i] * b[i];
	}
	print_int(sum);
	return 0;
}`
	on := compileRun(t, src, BaseOptions(), prog.DefaultConfig())
	off := func() Options { o := BaseOptions(); o.StrengthReduce = false; return o }()
	offOut := compileRun(t, src, off, prog.DefaultConfig())
	if on != offOut {
		t.Errorf("SR on %q != SR off %q", on, offOut)
	}
	if on != "43680" {
		t.Errorf("result = %q, want 43680", on)
	}
}

func TestStrengthReductionShapesCode(t *testing.T) {
	src := `
int a[64];
int consume(int x) { return x; }
int main() {
	int i; int sum;
	sum = 0;
	for (i = 0; i < 64; i = i + 1) {
		sum = sum + a[i];
	}
	return consume(sum);
}`
	srOn, err := Compile(src, BaseOptions())
	if err != nil {
		t.Fatal(err)
	}
	offOpts := BaseOptions()
	offOpts.StrengthReduce = false
	srOff, err := Compile(src, offOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Without SR the loop body indexes with register+register mode.
	if !strings.Contains(srOff, "lwx") {
		t.Error("expected lwx (reg+reg addressing) without strength reduction")
	}
	// With SR the array walk is a zero-offset load off a derived pointer.
	if !strings.Contains(srOn, "lw $t0, 0(") && !strings.Contains(srOn, ", 0($s") {
		if !strings.Contains(srOn, " 0(") {
			t.Errorf("expected zero-offset load with strength reduction:\n%s", srOn)
		}
	}
}

func TestBreakInsideReducedLoop(t *testing.T) {
	runAllVariants(t, `
int a[32];
int main() {
	int i; int found;
	for (i = 0; i < 32; i = i + 1) { a[i] = i * 3; }
	found = -1;
	for (i = 0; i < 32; i = i + 1) {
		if (a[i] == 45) { found = i; break; }
		if (a[i] % 7 == 3) { continue; }
	}
	print_int(found);
	return 0;
}`, "15")
}

func TestGPAlignmentChangesLayoutNotBehaviour(t *testing.T) {
	src := `
int x; int y = 5; double z = 1.5;
int main() {
	x = y * 4;
	print_int(x);
	print_double(z);
	return 0;
}`
	base := compileRun(t, src, BaseOptions(), prog.DefaultConfig())
	alignedLink := prog.DefaultConfig()
	alignedLink.AlignGP = true
	fac := compileRun(t, src, FACOptions(), alignedLink)
	if base != fac || base != "201.5" {
		t.Errorf("outputs differ: base %q fac %q", base, fac)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"int main() { return x; }", "undefined variable"},
		{"int main() { foo(); return 0; }", "undefined function"},
		{"int main() { print_int(1, 2); return 0; }", "takes 1 arguments"},
		{"int main() { int x; int x; return 0; }", "duplicate variable"},
		{"int main() { 1 = 2; return 0; }", "non-lvalue"},
		{"int main() { break; }", "outside loop"},
		{"int x; int x; int main() { return 0; }", "duplicate global"},
		{"int main() { int s; return s.x; }", "non-struct"},
		{"struct p { int x; }; int main() { struct p v; return v.y; }", "no field"},
		{"int main() { double d; d = 1.0; return d % 2; }", "integer operands"},
		{"int f() { return 1; } int f() { return 2; } int main() { return 0; }", "duplicate function"},
		{"int main() { return *4; }", "cannot dereference"},
		{"int main() { int a[(2]; return 0; }", "array length"},
		{"int main() { return 1 + ; }", "unexpected token"},
		{"int main() { if (1) { return 0; }", "end of file"},
		// Diagnostics number the program's own lines from 1.
		{"int main() {\n\tint x;\n\tx = ;\n\treturn x;\n}\n", "line 3: unexpected token"},
		{"int g;\n\nint main() {\n\treturn y;\n}", "line 4: undefined variable"},
		{"int main() {\n\treturn 0;\n}\n/* open", "line 4: unterminated comment"},
		{"int main() {\n\tif (1) {\n\t\treturn 0;\n}\n", "line 5: unexpected end of file"},
	}
	for _, c := range cases {
		_, err := Compile(c.src, BaseOptions())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestNoMain(t *testing.T) {
	if _, err := Compile("int helper() { return 1; }", BaseOptions()); err == nil {
		t.Error("missing main not rejected")
	}
}

func TestSmallDataPlacement(t *testing.T) {
	src := `
int small;           /* 4 bytes -> sdata */
double dsmall;       /* 8 bytes -> sdata */
int big[16];         /* 64 bytes -> bss */
int main() { small = 1; dsmall = 2.0; big[0] = 3; return 0; }`
	asmText, err := Compile(src, BaseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asmText, ".sdata") {
		t.Error("no .sdata section emitted")
	}
	if !strings.Contains(asmText, ".comm big, 64") {
		t.Errorf("big array not in bss:\n%s", asmText)
	}
}

func TestStackFrameAlignment(t *testing.T) {
	src := `
int peek(int *p) { return *p; }
int main() {
	int locals[13]; /* odd-sized frame */
	locals[0] = 7;
	return peek(&locals[0]);
}`
	facAsm, err := Compile(src, FACOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Every frame adjustment must be a multiple of 64.
	for _, line := range strings.Split(facAsm, "\n") {
		line = strings.TrimSpace(line)
		const prefix = "addi $sp, $sp, -"
		if strings.HasPrefix(line, prefix) {
			n := 0
			for _, c := range line[len(prefix):] {
				if c < '0' || c > '9' {
					break
				}
				n = n*10 + int(c-'0')
			}
			if n%64 != 0 {
				t.Errorf("frame size %d not 64-aligned: %s", n, line)
			}
		}
	}
}
