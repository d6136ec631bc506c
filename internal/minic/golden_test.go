package minic_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/minic"
	"repro/internal/workload"
)

// compileVariant is one option set the golden compiles under.
type compileVariant struct {
	name string
	opts minic.Options
}

func withOpts(o minic.Options, set func(*minic.Options)) minic.Options {
	set(&o)
	return o
}

// workloadVariants are the toolchains the experiments build (base and fac,
// with and without strength reduction), base with the peephole pass, and
// examples/swsupport's four single-option variants.
var workloadVariants = []compileVariant{
	{"base", minic.BaseOptions()},
	{"fac", minic.FACOptions()},
	{"base-nosr", withOpts(minic.BaseOptions(), func(o *minic.Options) { o.StrengthReduce = false })},
	{"fac-nosr", withOpts(minic.FACOptions(), func(o *minic.Options) { o.StrengthReduce = false })},
	{"base+peephole", withOpts(minic.BaseOptions(), func(o *minic.Options) { o.Peephole = true })},
	{"stack", withOpts(minic.BaseOptions(), func(o *minic.Options) { o.AlignStack = true })},
	{"statics", withOpts(minic.BaseOptions(), func(o *minic.Options) { o.AlignStatics = true })},
	{"structs", withOpts(minic.BaseOptions(), func(o *minic.Options) { o.AlignStructs = true })},
	{"malloc", withOpts(minic.BaseOptions(), func(o *minic.Options) { o.MallocAlign = 32 })},
}

// generatedVariants are the option sets each generated program is
// compiled under; one golden line digests all three outputs.
var generatedVariants = workloadVariants[:3]

const (
	shapePrograms = 200 // shapeProgram seeds 1..200
	diffPrograms  = 100 // GenerateProgram seeds 1..100
)

// TestCompileGolden pins the compiler's output byte for byte. It compares
// the SHA-256 of minic.Compile's assembly with testdata/compile.golden,
// one "name sha256" line each: every workload under every
// workloadVariants option set, and 300 generated programs (shapeProgram's
// lvalue forms in every use, and the differential generator's
// expressions and loops) under base, fac and base-nosr. A refactor of the
// code generator must leave every line unchanged; an intended change of
// output regenerates the file from the lines this test reports.
func TestCompileGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "compile.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		golden[name] = sum
	}
	seen := 0
	check := func(name, src string, variants []compileVariant) {
		t.Helper()
		h := sha256.New()
		for _, v := range variants {
			out, err := minic.Compile(src, v.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v\n--- source ---\n%s", name, v.name, err, src)
			}
			h.Write([]byte(out))
			h.Write([]byte{0})
		}
		seen++
		if sum := fmt.Sprintf("%x", h.Sum(nil)); golden[name] != sum {
			t.Errorf("%s: output differs from the golden; the new line is %q", name, name+" "+sum)
		}
	}
	for _, w := range workload.All() {
		for _, v := range workloadVariants {
			check(w.Name+"/"+v.name, w.Source, []compileVariant{v})
		}
	}
	for seed := int64(1); seed <= shapePrograms; seed++ {
		check(fmt.Sprintf("shape/%d", seed), shapeProgram(seed), generatedVariants)
	}
	for seed := int64(1); seed <= diffPrograms; seed++ {
		src, _ := minic.GenerateProgram(seed)
		check(fmt.Sprintf("diff/%d", seed), src, generatedVariants)
	}
	if seen != len(golden) {
		t.Errorf("%d compiled programs, golden has %d lines", seen, len(golden))
	}
}

// shapePrelude declares storage of every kind an lvalue can name: small
// globals (gp-addressed), large and small global arrays, structs whose
// size is and is not a power of two, and a callee with stack arguments.
const shapePrelude = `struct node {
	int key;
	char tag;
	double w;
	struct node *next;
	int vals[4];
};
struct pair {
	int a;
	int b;
	char c;
};
int gs;
int ginit = 7;
char gc;
double gd;
double gdinit = 2.5;
int *gp;
char gtiny[6];
int ga[32];
char gca[40];
double gfa[16];
struct node gn;
struct node gnodes[4];
struct pair gpairs[8];

int callee(int a, int b, int c, int d, int e, double f, double g, double h, int k) {
	return a + b - c + d + e + k;
}

int main() {
	int i; int j; int k; int x; int y; int t;
	int *p; int *q; char *cp; double d; double *dp;
	int la[16]; double lda[8]; char lca[20]; int m2[4][8];
	struct node ln; struct node *np; struct node nodes[3]; struct pair pr;
	i = 1; j = 2; k = 3; x = 0; y = 5; t = 4;
	p = &t; q = ga; cp = gca; d = 0.5; dp = gfa; np = &ln; ln.next = &gn;
`

// Lvalue forms by type. Together they reach every memory operand shape:
// a gp symbol, off($sp), off(base) (dereference, field, constant index,
// index constant) and (base+index).
var (
	intLvalues = []string{
		"x", "y", "t", "gs", "ginit", "gc", "*p", "*q",
		"ln.key", "ln.tag", "np->key", "np->next->key", "gn.key", "pr.b", "pr.c",
		"nodes[1].key", "nodes[i].tag", "gnodes[j].vals[2]", "np->vals[k]", "gpairs[k].b",
		"ga[i]", "ga[3]", "ga[i+1]", "ga[2+j]", "ga[k-1]", "la[j]", "la[i+2]",
		"p[k]", "cp[i]", "lca[j+1]", "m2[i][j]", "m2[1][k+1]", "gca[k]", "gtiny[i]",
		"ln.vals[i]", "q[i-1]", "gtiny[2]",
	}
	fpLvalues = []string{
		"d", "gd", "gdinit", "*dp", "ln.w", "np->w", "gfa[i]", "lda[j+1]", "dp[k]", "gnodes[i].w", "lda[2]",
	}
	// loopAccesses index a loop's induction variable, so strength
	// reduction turns the plain-variable bases into pointer walks.
	loopAccesses = []string{
		"la[%s]", "ga[%s+1]", "p[%s]", "cp[%s]", "lca[%s-1]", "ln.vals[%s]", "q[%s]", "gca[2+%s]", "gpairs[%s].a",
	}
	fpLoopAccesses = []string{"lda[%s]", "gfa[%s+1]", "dp[%s]"}
)

type shapeGen struct {
	r *rand.Rand
	b strings.Builder
}

func (g *shapeGen) pick(list []string) string { return list[g.r.Intn(len(list))] }

// intExpr is a small integer expression: shallow enough never to run out
// of expression temporaries.
func (g *shapeGen) intExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(3) == 0 {
			return fmt.Sprint(g.r.Intn(200) - 50)
		}
		return g.pick(intLvalues)
	}
	a, b := g.intExpr(depth-1), g.intExpr(depth-1)
	return fmt.Sprintf("(%s %s %s)", a, g.pick([]string{"+", "-", "*", "&", "<", "^"}), b)
}

func (g *shapeGen) fpExpr() string {
	switch g.r.Intn(3) {
	case 0:
		return g.pick(fpLvalues)
	case 1:
		return fmt.Sprintf("(%s * 1.5)", g.pick(fpLvalues))
	}
	return fmt.Sprintf("(%s + %s)", g.pick(fpLvalues), g.intExpr(1))
}

func (g *shapeGen) stmt(indent string, depth int) {
	w := func(format string, args ...any) {
		g.b.WriteString(indent)
		fmt.Fprintf(&g.b, format, args...)
		g.b.WriteByte('\n')
	}
	lv := g.pick(intLvalues)
	switch g.r.Intn(12) {
	case 0: // store
		w("%s = %s;", lv, g.intExpr(2))
	case 1: // load
		w("x = x + %s;", lv)
	case 2: // post-increment and -decrement, as statements and values
		switch g.r.Intn(3) {
		case 0:
			w("%s++;", lv)
		case 1:
			w("%s--;", lv)
		default:
			w("y = %s++ + %s--;", lv, g.pick(intLvalues))
		}
	case 3: // prefix forms desugar to an assignment of a clone
		if g.r.Intn(2) == 0 {
			w("++%s;", lv)
		} else {
			w("x = --%s;", lv)
		}
	case 4: // compound assignment
		w("%s %s %s;", lv, g.pick([]string{"+=", "-=", "^=", "*=", "<<="}), g.intExpr(1))
	case 5: // address-of
		switch g.r.Intn(4) {
		case 0:
			w("p = &%s;", lv)
		case 1:
			w("cp = &%s;", g.pick([]string{"lca[j]", "gca[i+3]", "ln.tag", "gc", "gtiny[k]"}))
		case 2:
			w("np = &%s;", g.pick([]string{"nodes[j]", "gnodes[2]", "ln", "gn", "*np"}))
		default:
			w("dp = &%s;", g.pick(fpLvalues))
		}
	case 6: // doubles
		if g.r.Intn(2) == 0 {
			w("%s = %s;", g.pick(fpLvalues), g.fpExpr())
		} else {
			w("x = %s;", g.fpExpr())
		}
	case 7: // a call with stack arguments
		// Arguments stay in temporaries until the call, so all but the
		// first are single lvalues.
		w("x = callee(%s, %s, 3, %s, 5, %s, 1.5, %s, %s);",
			g.intExpr(1), lv, g.pick(intLvalues), g.pick(fpLvalues), g.pick(fpLvalues), g.pick(intLvalues))
	case 8, 9: // a counted loop: strength reduction's candidates
		g.loop(indent, depth)
	case 10: // control flow
		if depth <= 0 {
			w("%s = %s;", lv, g.intExpr(1))
			return
		}
		w("if (%s < %s) {", lv, g.intExpr(1))
		g.stmt(indent+"\t", depth-1)
		w("} else {")
		g.stmt(indent+"\t", depth-1)
		w("}")
	default: // pointer updates defeat strength reduction of q
		w("q = q + %d;", g.r.Intn(3))
		w("np = np->next;")
	}
}

func (g *shapeGen) loop(indent string, depth int) {
	ivs := []string{"i", "j", "k"}
	n := g.r.Intn(len(ivs))
	iv, other := ivs[n], ivs[(n+1)%len(ivs)]
	acc := func() string { return fmt.Sprintf(g.pick(loopAccesses), iv) }
	// Strength reduction collects a loop's candidate accesses in walk
	// order (body, then condition; in the body, a nested loop's init and
	// post before its body, and then before else), and that order
	// allocates the pointers' registers. So accesses sit in all of them.
	var start, cond, post string
	switch g.r.Intn(3) {
	case 0:
		start, cond, post = "0", fmt.Sprintf("%s < %d", iv, 2+g.r.Intn(6)), iv+"++"
	case 1:
		start, cond, post = "6", iv+" > 0", iv+"--"
	default:
		start, cond, post = "1", iv+" < 12", fmt.Sprintf("%s = %s + 2", iv, iv)
	}
	if g.r.Intn(3) == 0 {
		cond += fmt.Sprintf(" && %s != 7", acc())
	}
	g.b.WriteString(indent)
	fmt.Fprintf(&g.b, "for (%s = %s; %s; %s) {\n", iv, start, cond, post)
	in := indent + "\t"
	for n := 1 + g.r.Intn(3); n > 0; n-- {
		a, b := acc(), acc()
		switch g.r.Intn(7) {
		case 0:
			fmt.Fprintf(&g.b, "%s%s = %s + %s;\n", in, a, b, g.intExpr(1))
		case 1:
			fmt.Fprintf(&g.b, "%s%s++;\n", in, a)
		case 2:
			fa := fmt.Sprintf(g.pick(fpLoopAccesses), iv)
			fmt.Fprintf(&g.b, "%s%s = %s * 0.5;\n", in, fa, g.pick(fpLvalues))
		case 3:
			fmt.Fprintf(&g.b, "%sx = x + %s;\n", in, b)
		case 4:
			fmt.Fprintf(&g.b, "%sif (x < 3) { %s = y; } else { %s = x; }\n", in, a, b)
		case 5:
			fmt.Fprintf(&g.b, "%sfor (%s = %s; %s < 3; %s = %s + %s) { %s = %s; }\n",
				in, other, a, other, other, other, b, acc(), other)
		default:
			if depth > 0 {
				g.stmt(in, depth-1)
			} else {
				fmt.Fprintf(&g.b, "%s%s += %s;\n", in, a, b)
			}
		}
	}
	g.b.WriteString(indent + "}\n")
}

// shapeProgram generates a MiniC program that uses the lvalue forms above
// in every role: loaded, stored, incremented, compound-assigned and
// address-taken, inside and outside strength-reducible loops. It is
// compiled, never run.
func shapeProgram(seed int64) string {
	g := &shapeGen{r: rand.New(rand.NewSource(seed))}
	g.b.WriteString(shapePrelude)
	for n := 6 + g.r.Intn(10); n > 0; n-- {
		g.stmt("\t", 2)
	}
	g.b.WriteString("\treturn x;\n}\n")
	return g.b.String()
}
