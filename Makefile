# Repo-level CI targets. `make verify` is the tier-1 gate: build, vet,
# and the full test suite under the race detector (the parallel step
# engine and the concurrent sweep harness are exercised by it).

GO ?= go

.PHONY: verify build vet fmt-check test race race-repeat fuzz-smoke bench bench-check bench-serve bench-queen chaos-check obs-check replay-check serve-check stream-check queen-check bench-module vulncheck

verify: build vet fmt-check race race-repeat fuzz-smoke bench-check chaos-check obs-check replay-check serve-check stream-check queen-check bench-module vulncheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The race detector slows the protocols about tenfold, and
# internal/sweep's TestNamesAllRunnable runs every experiment in full,
# C4 up to n=512 among them: about 8.5 minutes by itself under -race on
# a 2-vCPU host (slices 345 s, resolution 160 s), past go test's default
# 10-minute limit once other packages share the CPUs. Hence the
# explicit timeout.
race:
	$(GO) test -race -timeout 30m ./...

# Race-repeat gate for the step engine's concurrent paths, which the
# root tests force through the simulator's engine hook (the facade
# always runs the adaptive engine): the fault injector's per-observer
# event buffers are written from parallel-engine workers, and an
# injector rewrites each worker's views there
# (TestInjectorViewPerturbationReachesBehavior); every worker builds
# its views in its own scratch while the batched compact-view workers
# share the grid; one instant of a 1024-robot dense world keeps under
# 1 MiB of view buffers on both compute paths (TestViewHeapPerWorker);
# and the robots of a
# protocol swarm initialise and decode concurrently against one shared
# sector table, which also holds the swarm's Welzl order for every
# robot's smallest enclosing circle (TestDecoderDigest's parallel
# cases; TestDecoderDigestLarge's n=128 case stays out, too slow under
# -race). -cpu 4 matters on a one-CPU host, where GOMAXPROCS=1 would
# run a single worker and the race detector would never see two
# interleave.
race-repeat:
	$(GO) test -race -count=10 -cpu 1,4 -run '^(TestObserverEngineParity|TestStreamFaultEvents|TestGoldenEngineParity|TestGoldenReplayFrames|TestDecoderDigest)$$/^parallel$$' .
	$(GO) test -race -count=10 -cpu 1,4 -run '^(TestEngineParity|TestStepAllocationFree|TestTeleport|TestTraceRecording|TestCompactViewParity|TestIncrementalGridParity|TestViewIndexParityParallelEngine|TestInjectorViewPerturbationReachesBehavior|TestViewHeapPerWorker)$$' ./internal/sim

# Fuzz smoke: each of the ten fuzz targets runs 5 s of generated
# inputs beyond its seed corpus, which `make race` only replays as plain
# tests. go test fuzzes one target of one package per run. A failing
# input is written under the package's testdata/fuzz/; it becomes a seed
# when committed with its fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzJournal$$' -fuzztime 5s ./internal/queen
	$(GO) test -run '^$$' -fuzz '^FuzzSlicerClassify$$' -fuzztime 5s ./internal/protocol
	$(GO) test -run '^$$' -fuzz '^FuzzSECNaming$$' -fuzztime 5s ./internal/naming
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzScanFrames$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzTailStream$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzCreate$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSpectate$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzGridQueries$$' -fuzztime 5s ./internal/spatial

# The speedup benchmarks for the parallel engine and sweep harness.
bench:
	$(GO) test -run xxx -bench 'BenchmarkStepParallel|BenchmarkSweepParallel' -benchmem .

# Smoke gate for the benchmark trajectory: every in-package benchmark
# compiles and runs one iteration, the n = 1,000,000 step, stream and
# checkpoint rows included, so a silently-empty or broken bench suite
# fails without paying for a measurement run. The checks inside the
# benchmarks run too: every timed delta save is a delta and, at
# n = 10,000, at least 10x faster than a full save; recorded streams
# decode with no torn tail; a spectator join decodes a short tail.
# EXPERIMENTS.md names the `go test -bench` command behind each table.
bench-check:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Chaos smoke: one fast scenario per fault family through the
# fault-injection harness. The full table (EXPERIMENTS.md) is
# `go run ./cmd/waggle-chaos`.
chaos-check:
	$(GO) run ./cmd/waggle-chaos -scenario crash-sync
	$(GO) run ./cmd/waggle-chaos -scenario displace-sync
	$(GO) run ./cmd/waggle-chaos -scenario obs-noise-sync
	$(GO) run ./cmd/waggle-chaos -scenario move-error-sync
	$(GO) run ./cmd/waggle-chaos -scenario radio-outage
	$(GO) run ./cmd/waggle-chaos -scenario combined

# Record-replay gate: the committed golden checkpoints (the frozen v1
# fixture golden.ckpt and its v2 twin golden.ckptb) must restore,
# replay, and reproduce the committed movement trace byte-for-byte;
# every format the loaders read (v1, v2 base, v2 chain) must decode,
# through the codec equivalence test and the seeds of the reader fuzz
# target; and every chaos scenario must survive a mid-plan
# kill-and-resume. Regenerate the v2, trace and stream artifacts (only
# for intentional protocol changes) with
# `go test -run TestGoldenReplay -update-golden .`; nothing rewrites
# golden.ckpt (DESIGN.md §5g says what such a change does with it).
replay-check:
	$(GO) test -run 'TestGoldenReplay|TestCheckpointCodecEquivalence|FuzzReadCheckpoint' -count=1 .
	$(GO) run ./cmd/waggle-chaos -resume-check -scenario combined
	$(GO) run ./cmd/waggle-chaos -resume-check -scenario combined -ckpt-codec delta

# Observability smoke: run a short instrumented sim, validate that the
# Prometheus text exposition parses and the JSON snapshot round-trips
# byte-for-byte (DESIGN.md §5d).
obs-check:
	$(GO) run ./cmd/waggle-sim -obs-check

# Session-daemon smoke: start waggle-serve on an ephemeral port, run one
# create/step/evict/resume/delete lifecycle against its own API, verify
# the serve metrics saw it, and drain gracefully (DESIGN.md §5h). Then a
# seconds-long waggle-load pass: mixed create/step/evict/resume traffic
# plus an overload burst that must be answered with 429/503.
serve-check:
	$(GO) run ./cmd/waggle-serve -self-check
	$(GO) run ./cmd/waggle-load -smoke -out /dev/null

# Streaming-trace gate: record a deterministic run to a
# waggle-stream/v1 file and prove the crash contract end to end — the
# stream replays to the un-streamed control's trace digest, a spectator
# joining at the latest keyframe converges to the live end state, and a
# kill -9 mid-append loses at most the torn tail record (DESIGN.md §5j).
# That the stream bytes are the same on both of the step engine's
# compute paths is pinned by TestStreamReplayDigest in the test suite.
# Run under -race: the stream taps ride the step loop.
stream-check:
	$(GO) run -race ./cmd/waggle-sim -stream-check

# Orchestrator gauntlet: the full chaos matrix under a queen with 4
# worker processes, one worker SIGKILLed while it holds a shard with
# banked checkpoint progress (forcing a lease expiry and a
# checkpoint-migrating steal), and the queen itself restarted from its
# journal mid-campaign. The merged report is sha256-compared against
# the single-process waggle-chaos run and must be byte-identical
# (DESIGN.md §5i).
queen-check:
	$(GO) run -race ./cmd/waggle-queen -self-check

# Orchestrator scaling run: the chaos matrix and a sweep campaign at 1
# vs 4 workers, plus a worker-kill run. Writes BENCH_queen.json (schema
# waggle-bench-queen/v2; the queen table in EXPERIMENTS.md). The
# committed file is a v1 run: v2 only drops v1's engine field.
bench-queen:
	$(GO) run ./cmd/waggle-queen -bench -bench-out BENCH_queen.json

# Full load run against an in-process daemon: 1000 concurrent sessions,
# mixed create/step/evict/resume traffic and an overload burst. Writes
# BENCH_serve.json (the serve table in EXPERIMENTS.md).
bench-serve:
	$(GO) run ./cmd/waggle-load -out BENCH_serve.json

# Benchmark-module gate: bench/ is its own Go module (the harness
# BENCHMARK.json runs), so `go build ./...` and the race suite above
# never compile it, yet it calls into wire, sim and serve. Vet it and
# run its smoke-size workloads and unit tests under the race detector.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -race -count=1 ./...

# Known-vulnerability scan, skipped gracefully when govulncheck is not
# installed or its database is unreachable (offline CI).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vulncheck: scan failed (offline?); skipping"; \
	else \
		echo "vulncheck: govulncheck not installed; skipping"; \
	fi
