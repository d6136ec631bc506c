// Command benchsmoke is CI's throughput gate for the timing simulator. It
// builds the root package's test binary twice, once from a base revision
// and once from the working tree, runs BenchmarkPipeline on the two in
// back-to-back pairs, and fails when the median of the pairs'
// change/base throughput ratios falls more than maxRegression below 1.
// Both runs of a pair meet the same host load, which on a shared host
// drifts by up to 40% within minutes, so a pair's ratio compares the
// code, and no figure committed from another machine enters the gate.
// Run it from the repository root:
//
//	go run ./scripts/benchsmoke
//
// The base is HEAD when tracked files have uncommitted changes, else
// HEAD^; untracked files do not count. A committed change of several
// commits is therefore gated on its last commit alone. The base's
// committed files are extracted with git archive under
// .bench_build/benchsmoke/base; a base that cannot be resolved, extracted
// or built fails the gate. Every report the change writes must also hold
// simulated records identical to the committed BENCH_pipeline.json (ref):
// throughput work must never change simulator results.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// The gate runs pairs base/change pairs, alternating which side runs
// first, of benchtime BenchmarkPipeline iterations each. On a shared
// 2-vCPU host a pair's ratio varies by about 11% (standard deviation);
// 60 pairs hold the median ratio to about 1.5%. The median ratio may
// fall at most maxRegression below 1, and the change's records must
// match ref's.
const (
	pairs         = 60
	benchtime     = "20x"
	maxRegression = 0.20
	ref           = "BENCH_pipeline.json"
)

func main() {
	flag.Parse() // the command takes no flags, so any flag given fails
	refRep, err := load(ref)
	if err != nil {
		fatal(fmt.Errorf("ref %s: %w", ref, err))
	}
	rev, err := baseRevision()
	if err != nil {
		fatal(err)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "benchsmoke"))
	if err != nil {
		fatal(err)
	}
	baseDir := filepath.Join(work, "base")
	if err := extract(rev, baseDir); err != nil {
		fatal(fmt.Errorf("base %s: %w", rev, err))
	}
	sides := []*side{
		{name: "base", dir: baseDir, bin: filepath.Join(work, "base.test")},
		{name: "change", dir: ".", bin: filepath.Join(work, "change.test")},
	}
	for _, s := range sides {
		if err := run(s.dir, "go", "test", "-c", "-o", s.bin, "."); err != nil {
			fatal(fmt.Errorf("build %s: %w", s.name, err))
		}
	}

	ratios := make([]float64, pairs) // change/base throughput of each pair
	for i := range ratios {
		order := sides
		if i%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, s := range order {
			rep, err := s.bench(filepath.Join(work, fmt.Sprintf("%s-%d.json", s.name, i)))
			if err != nil {
				fatal(fmt.Errorf("%s run %d: %w", s.name, i, err))
			}
			if s.name == "change" {
				// obs.Diff treats delta >= tolerance as a finding, so an
				// exact-match gate needs an epsilon above zero.
				if diffs := obs.Diff(refRep, rep, 1e-12); len(diffs) > 0 {
					for _, d := range diffs {
						fmt.Fprintln(os.Stderr, "benchsmoke:", d)
					}
					fatal(fmt.Errorf("%d simulated-timing difference(s) vs %s", len(diffs), ref))
				}
			}
		}
		ratios[i] = sides[1].tp[i] / sides[0].tp[i]
	}

	drop := 1 - median(ratios)
	fmt.Printf("benchsmoke: base %s %s Mcycles/s, median %.2f\n", rev, sides[0].list(), median(sides[0].tp))
	fmt.Printf("benchsmoke: change %s Mcycles/s, median %.2f\n", sides[1].list(), median(sides[1].tp))
	fmt.Printf("benchsmoke: median change/base ratio of %d pairs %.3f (%+.1f%%)\n", pairs, 1-drop, -100*drop)
	if drop > maxRegression {
		fatal(fmt.Errorf("throughput regressed %.1f%% against %s (median of %d pair ratios; max %.0f%%)",
			100*drop, rev, pairs, 100*maxRegression))
	}
}

// side is one of the two builds under comparison and its samples.
type side struct {
	name, dir, bin string
	tp             []float64 // Mcycles/s, one per run
}

// bench runs BenchmarkPipeline once from the side's checkout, with its
// report redirected to out, and records the run's throughput.
func (s *side) bench(out string) (*obs.Report, error) {
	cmd := exec.Command(s.bin, "-test.run", "^$", "-test.bench", "^BenchmarkPipeline$", "-test.benchtime", benchtime)
	cmd.Dir = s.dir
	cmd.Env = append(os.Environ(), "BENCH_OUT="+out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, msg)
	}
	rep, err := load(out)
	if err != nil {
		return nil, err
	}
	tp, ok := rep.Metrics["mcycles_per_sec"]
	if !ok || tp <= 0 {
		return nil, fmt.Errorf("%s: missing or non-positive mcycles_per_sec metric", out)
	}
	s.tp = append(s.tp, tp)
	return rep, nil
}

func median(v []float64) float64 {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

func (s *side) list() string {
	f := make([]string, len(s.tp))
	for i, v := range s.tp {
		f[i] = fmt.Sprintf("%.2f", v)
	}
	return strings.Join(f, " ")
}

// baseRevision resolves the base to a commit id: HEAD when tracked files
// have uncommitted changes, else HEAD^.
func baseRevision() (string, error) {
	status, err := output("git", "status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return "", err
	}
	rev := "HEAD^"
	if len(bytes.TrimSpace(status)) > 0 {
		rev = "HEAD"
	}
	id, err := output("git", "rev-parse", "--verify", "--quiet", rev+"^{commit}")
	if err != nil {
		return "", fmt.Errorf("base revision %s: not found: %w", rev, err)
	}
	return string(bytes.TrimSpace(id)), nil
}

// extract replaces dir with the committed files of rev.
func extract(rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tarball := dir + ".tar"
	defer os.Remove(tarball)
	if err := run(".", "git", "archive", "--format=tar", "-o", tarball, rev); err != nil {
		return err
	}
	return run(dir, "tar", "-xf", tarball)
}

func run(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, msg)
	}
	return nil
}

func output(name string, args ...string) ([]byte, error) {
	out, err := exec.Command(name, args...).Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return out, nil
}

func load(path string) (*obs.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := obs.DecodeReport(data)
	if err != nil {
		return nil, err
	}
	if len(rep.Records) == 0 {
		return nil, fmt.Errorf("report has no records")
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsmoke:", err)
	os.Exit(1)
}
