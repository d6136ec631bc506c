package difftest

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
)

// recordingSink captures the full event stream for equality comparison.
type recordingSink struct {
	events []obs.Event
}

func (r *recordingSink) Event(e obs.Event) { r.events = append(r.events, e) }

// runBoth replays one recorded stream under cfg with stall
// fast-forwarding enabled and disabled and fails the test unless the
// resulting RunRecords (cycles, stall partition, histograms, cache and FAC
// sections) are byte-identical and the observability event streams are
// element-identical.
func runBoth(t *testing.T, name string, cfg pipeline.Config, trs []emu.Trace) {
	t.Helper()

	slow := cfg
	slow.NoFastForward = true
	var slowSink, fastSink recordingSink
	slowStats, err := pipeline.RunCtx(nil, slow, pipeline.Replay(trs, nil), &slowSink)
	if err != nil {
		t.Fatalf("%s (no fast-forward): %v", name, err)
	}
	fastStats, err := pipeline.RunCtx(nil, cfg, pipeline.Replay(trs, nil), &fastSink)
	if err != nil {
		t.Fatalf("%s (fast-forward): %v", name, err)
	}

	slowRec, err := json.Marshal(slowStats.Record("ff", "", "test", name))
	if err != nil {
		t.Fatal(err)
	}
	fastRec, err := json.Marshal(fastStats.Record("ff", "", "test", name))
	if err != nil {
		t.Fatal(err)
	}
	if string(slowRec) != string(fastRec) {
		t.Errorf("%s: fast-forwarded RunRecord differs\n  slow: %s\n  fast: %s", name, slowRec, fastRec)
	}

	if len(slowSink.events) != len(fastSink.events) {
		t.Fatalf("%s: event stream length %d with fast-forward, %d without",
			name, len(fastSink.events), len(slowSink.events))
	}
	for i := range slowSink.events {
		if slowSink.events[i] != fastSink.events[i] {
			t.Fatalf("%s: event %d differs\n  slow: %+v\n  fast: %+v",
				name, i, slowSink.events[i], fastSink.events[i])
		}
	}
}

// TestFastForwardExact is the regression gate for stall fast-forwarding:
// across every oracle machine, replaying the same stream with and without
// fast-forwarding must produce identical timing, stall accounting, and
// event streams. Generated traces exercise the generator's stream; a
// MiniC program's recorded reference run exercises the emulator's.
func TestFastForwardExact(t *testing.T) {
	seeds := []int64{1, 5, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, m := range Machines() {
		for _, seed := range seeds {
			runBoth(t, m.Name, m.Cfg, RandomTrace(rand.New(rand.NewSource(seed)), 3000))
		}
	}
}

// TestFastForwardExactProgram runs the whole stack (compiler, assembler,
// emulator) under one generated MiniC program, whose reference stream
// every machine replays.
func TestFastForwardExactProgram(t *testing.T) {
	src := RandomMiniC(rand.New(rand.NewSource(42)))
	ref, err := Reference(buildMiniC(t, src, minic.BaseOptions(), prog.DefaultConfig()), 500_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Machines() {
		runBoth(t, m.Name, m.Cfg, ref.Trace)
	}
}
