package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestKindMinimaAndGeomean(t *testing.T) {
	msd := func(v float64) time.Duration { return time.Duration(v * 1e6) }
	samples := []sample{
		{kind: "a", dur: msd(10), ok: true},
		{kind: "a", dur: msd(20), ok: true},
		{kind: "a", dur: msd(5), ok: true},
		{kind: "a", dur: msd(1), ok: false}, // failed operations are not scored
		{kind: "b", dur: msd(8), ok: true},
		{kind: "b", dur: msd(4), ok: true, traced: true},
	}
	m := kindMinima(samples, nil)
	if m["a"] != msd(5) || m["b"] != msd(4) || len(m) != 2 {
		t.Fatalf("minima = %v", m)
	}
	if got, want := geomeanMS(m), math.Sqrt(20); !near(got, want) {
		t.Fatalf("geomean = %v, want %v", got, want)
	}
	bare := kindMinima(samples, func(s sample) bool { return !s.traced })
	if bare["b"] != msd(8) {
		t.Fatalf("untraced minimum of b = %v, want 8ms", bare["b"])
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean of nothing = %v", g)
	}
}

func TestMinstsPerSec(t *testing.T) {
	minima := map[string]time.Duration{"a": 10 * time.Millisecond, "b": 30 * time.Millisecond}
	insts := map[string]uint64{"a": 1_000_000, "b": 3_000_000}
	// 4M instructions over 40 ms.
	if got := minstsPerSec(minima, insts); !near(got, 100) {
		t.Fatalf("minsts_per_s = %v, want 100", got)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tail of %d samples = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100},
		{Name: "x", Start: 10, End: 30, Parent: 1},
		{Name: "y", Start: 20, End: 50, Parent: 1}, // overlaps x: 10..50 covered
		{Name: "z", Start: 25, End: 35, Parent: 3},
	}
	self := selfTimes(spans)
	if self["op"] != 60 || self["x"] != 20 || self["y"] != 20 || self["z"] != 10 {
		t.Fatalf("self times = %v", self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.call("x", tr.begin("op", 0, 0), 0, func() { ran = true })
	if !ran || tr.count() != 0 {
		t.Fatalf("ran=%v spans=%d", ran, tr.count())
	}
}
