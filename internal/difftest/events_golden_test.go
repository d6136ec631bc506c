package difftest

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/workload"
)

// hashSink folds every field of every event, in stream order, into a
// SHA-256. Fields are written as uvarints, which delimit themselves, and
// reach the hash in large blocks.
type hashSink struct {
	h   hash.Hash
	buf []byte
	n   uint64
}

func newHashSink() *hashSink {
	return &hashSink{h: sha256.New(), buf: make([]byte, 0, 1<<16)}
}

func (s *hashSink) Event(e obs.Event) {
	s.n++
	if len(s.buf) > cap(s.buf)-8*binary.MaxVarintLen64 {
		s.h.Write(s.buf)
		s.buf = s.buf[:0]
	}
	b := s.buf
	for _, v := range [...]uint64{uint64(e.Kind), uint64(e.Flags), uint64(e.Cause), uint64(e.Fail),
		e.Cycle, uint64(e.PC), uint64(e.Addr), e.Val} {
		b = binary.AppendUvarint(b, v)
	}
	s.buf = b
}

// line is the stream's golden entry: its event count and digest.
func (s *hashSink) line(name string) string {
	s.h.Write(s.buf)
	return fmt.Sprintf("%s %d %x", name, s.n, s.h.Sum(nil))
}

// suiteMachines is every machine experiments.MachineConfig names.
var suiteMachines = []experiments.Machine{
	experiments.MBase32, experiments.MBase16, experiments.MOneCycle, experiments.MPerfect,
	experiments.MOnePerfect, experiments.MFAC16, experiments.MFAC32, experiments.MFAC16RR,
	experiments.MFAC32RR, experiments.MFAC32Tag, experiments.MFAC32SB4, experiments.MFAC32SB64,
	experiments.MFAC32MSHR1, experiments.MAGI, experiments.MPCAX, experiments.MStride,
	experiments.MSelective,
}

// TestEventStreamGolden pins the timing model's complete event stream:
// every field of every obs.Event, hashed per run and compared with
// testdata/events.golden ("name count sha256" per line). The runs are
// each oracle machine over generated traces and generated MiniC
// programs, and two suite workloads (an integer and an FP one, the
// smallest of each class) under both toolchains on every experiments
// machine. A refactor of the pipeline must leave every line unchanged;
// an intended timing change regenerates the file from the lines this
// test reports. -short runs a subset of the same lines.
func TestEventStreamGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "events.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, _ := strings.Cut(line, " ")
		golden[name] = line
	}
	checked := 0
	check := func(name string, run func(obs.Sink) error) {
		t.Helper()
		s := newHashSink()
		if err := run(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := s.line(name)
		if want, ok := golden[name]; !ok || got != want {
			t.Errorf("event stream differs from golden\n  got:  %s\n  want: %s", got, want)
		}
		checked++
	}

	seeds := []int64{1, 5, 11}
	programs := []int64{42, 7}
	workloads := []string{"hashp", "dct"}
	toolchains := []workload.Toolchain{workload.BaseToolchain(), workload.FACToolchain()}
	if testing.Short() {
		seeds, programs, workloads, toolchains = seeds[:1], programs[:1], workloads[:1], toolchains[:1]
	}

	for _, seed := range seeds {
		trs := RandomTrace(rand.New(rand.NewSource(seed)), 20000)
		for _, m := range Machines() {
			check(fmt.Sprintf("trace%d/%s", seed, m.Name), func(sink obs.Sink) error {
				_, err := pipeline.RunCtx(nil, m.Cfg, pipeline.Replay(trs, nil), sink)
				return err
			})
		}
	}
	for _, seed := range programs {
		p := buildMiniC(t, RandomMiniC(rand.New(rand.NewSource(seed))), minic.BaseOptions(), prog.DefaultConfig())
		for _, m := range Machines() {
			check(fmt.Sprintf("minic%d/%s", seed, m.Name), func(sink obs.Sink) error {
				_, err := core.RunWithSink(p, m.Cfg, 500_000, sink)
				return err
			})
		}
	}
	for _, name := range workloads {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range toolchains {
			p, err := workload.Build(w, tc)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range suiteMachines {
				cfg, err := experiments.MachineConfig(m)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s/%s/%s", name, tc.Name, m), func(sink obs.Sink) error {
					_, err := core.RunWithSink(p, cfg, 0, sink)
					return err
				})
			}
		}
	}
	if !testing.Short() && checked != len(golden) {
		t.Errorf("checked %d streams, golden has %d lines", checked, len(golden))
	}
}
