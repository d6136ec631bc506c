#!/bin/sh
# ci.sh — the repo's tier-1 verification gate (see ROADMAP.md).
# Run from anywhere; exits non-zero on the first failure.
#
# Expected runtime on a stock 4-core container: ~14 minutes total —
#   gofmt/lint/vet/build      ~30s  (lint is the repo's own analyzer,
#                                    scripts/lint, over every package of
#                                    the module: map-iteration-order
#                                    determinism, hot-path allocations and
#                                    raw schema strings)
#   go test ./...             ~60s  (dominated by internal/experiments,
#                                    whose TestTablesGolden regenerates all
#                                    12 tables: 54s wall on 2 vCPUs, against
#                                    34s without it)
#   perfbench                  ~6s  (go vet + go test in the nested
#                                    perfbench module, which the root
#                                    ./... patterns skip: keeps the APIs it
#                                    calls compiling, and its non-short tests
#                                    check sim and service RunRecord digests
#                                    against perfbench/goldens.json)
#   go test -race -short      ~4m   (full suite under the race detector;
#                                    -short trims the experiment sweeps and
#                                    difftest seed counts, which -race would
#                                    otherwise stretch past 15 minutes)
#   emulate-ahead race        ~75s  (all of internal/core's tests, repeated
#                                    10 times under the race detector: among
#                                    them those of the emulator goroutine
#                                    that runs ahead of the timing model —
#                                    exact results, the producer joined on
#                                    every early exit, nothing allocated per
#                                    chunk — and a new one cannot miss the
#                                    stage; measured 65s alone on 2 vCPUs,
#                                    against 69s for the five tests it once
#                                    listed, and 83-86s inside ci.sh)
#   cache race                ~15s  (simsvc's TestResident* tests of the
#                                    disk cache's in-memory resident set —
#                                    its concurrency test and its contract:
#                                    a removed file misses, evicted, corrupt
#                                    and failed-Put entries leave it, records
#                                    are copies, the bound holds — repeated
#                                    10 times under the race detector;
#                                    measured 14s on 2 vCPUs)
#   fuzz smoke                ~65s  (every Fuzz target that go test -list
#                                    finds in the packages of go list ./...,
#                                    5s each plus instrumented builds; today
#                                    9: difftest's four differential targets,
#                                    obs's FuzzRunRecord, the run record's
#                                    one-pass reader against encoding/json,
#                                    simsvc's FuzzParseID, the bounds check of
#                                    facd's job and batch ids,
#                                    FuzzRemoteRecord, a daemon's answer to
#                                    a Runner's remote run, FuzzSubmitBody, a
#                                    batch submission's body, and
#                                    FuzzRunBody, the body of a synchronous
#                                    run; measured 64s on 2 vCPUs with the
#                                    instrumented builds cached)
#   faclint smoke             ~10s  (static FAC-predictability analysis over
#                                    the 19-benchmark suite must classify at
#                                    least 68% of all load/store sites — the
#                                    suite currently sits at 68.8%, so any
#                                    precision regression trips the gate —
#                                    plus an -explain-first blame-chain probe)
#   facd scenarios             ~8s  (cmd/facload builds facd once and runs
#                                    three scenarios: smoke — the batch API,
#                                    cache-served resubmission, SSE progress,
#                                    the 401/429/413/404 hardening probes and
#                                    a SIGHUP token rotation; tenants — a
#                                    5s 3-tenant overload soak ended by
#                                    SIGTERM, asserting weighted-fair
#                                    scheduling and bounded p99 queue wait;
#                                    fleet — coordinator + 2 workers, one
#                                    SIGKILLed mid-batch, asserting zero lost
#                                    jobs, work on every shard and report
#                                    bytes identical to a stand-alone daemon.
#                                    Every daemon's SIGTERM drain must keep
#                                    the drop-free accounting identity)
#   bench smoke               ~6m   (scripts/benchsmoke builds the root
#                                    package's test binary from the base
#                                    revision — HEAD when tracked files
#                                    have uncommitted changes, else HEAD^,
#                                    extracted with git archive under
#                                    .bench_build/ — and from the tree,
#                                    runs BenchmarkPipeline (-benchtime
#                                    20x) on the two in 60 back-to-back
#                                    pairs, and fails when the median of
#                                    the pairs' change/base throughput
#                                    ratios drops more than 20% below 1,
#                                    on any simulated-timing difference vs
#                                    the committed BENCH_pipeline.json, or
#                                    on a base it cannot resolve or build.
#                                    A committed change of several commits
#                                    is gated on its last commit alone)
#
# The fuzz smoke stage lists the fuzz targets with go test -list, so a
# new target cannot miss it, and runs each one briefly against its
# committed seed corpus plus a few seconds of mutation, so a crasher
# that slips past the deterministic tests still trips CI.
# -fuzzminimizetime 100x bounds the minimizing of each new input, which
# by default may take a minute and so eat a target's 5s.
# For real hunting sessions use longer budgets (see docs/TESTING.md).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== repo lint =="
go run ./scripts/lint

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== perfbench =="
(cd perfbench && go vet ./... && go test -count=1 ./...)

echo "== go test -race (short) =="
go test -race -short ./...

echo "== emulate-ahead race =="
go test -race -count=10 ./internal/core

echo "== cache race =="
go test -race -count=10 -run '^TestResident' ./internal/simsvc

echo "== fuzz smoke =="
fuzz_targets=$(for pkg in $(go list ./...); do
    go test -list '^Fuzz' "$pkg" | sed -n "s|^Fuzz|$pkg:Fuzz|p"
done)
if [ -z "$fuzz_targets" ]; then
    echo "go test -list found no fuzz targets" >&2
    exit 1
fi
for target in $fuzz_targets; do
    pkg=${target%%:*}
    name=${target#*:}
    echo "-- $pkg $name"
    go test "$pkg" -run '^$' -fuzz "^${name}\$" -fuzztime 5s -fuzzminimizetime 100x
done

echo "== faclint smoke =="
verdicts=$(go run ./cmd/faclint -suite -min-classified 0.68)
if [ -z "$verdicts" ]; then
    echo "faclint produced no verdicts" >&2
    exit 1
fi
blame=$(go run ./cmd/faclint -benchmark queens -explain-first)
case "$blame" in
*"verdict=unknown"*) ;;
*)
    echo "faclint -explain-first produced no blame chain:" >&2
    echo "$blame" >&2
    exit 1
    ;;
esac

echo "== facd scenarios =="
go run ./cmd/facload -duration 5s

echo "== bench smoke =="
go run ./scripts/benchsmoke

echo "CI OK"
