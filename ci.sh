#!/usr/bin/env bash
# Tier-1 CI: configure, build and run the tier-1 suite three times —
#   1. default (Release-ish) build in build/
#   2. ASan+UBSan build (-DPGA_SANITIZE=address) in build-asan/, catching
#      lifetime bugs in the event-observer wiring (borrowed EngineObserver
#      pointers, the kAttemptFinished result pointer that is only valid
#      during the callback) and UB anywhere in the suite.
#   3. ThreadSanitizer build (-DPGA_SANITIZE=thread) in build-tsan/,
#      catching data races in LocalService's thread pool and the
#      chaos suite's concurrent paths.
# Every test carries a tier1* ctest label; the chaos suite additionally
# matches -L chaos (see tests/CMakeLists.txt).
# Usage: ./ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")"

jobs="${1:-$(nproc)}"

run_suite() {
  local dir="$1"; shift
  echo "==> configure ${dir} ($*)"
  cmake -B "${dir}" -S . "$@"
  echo "==> build ${dir}"
  cmake --build "${dir}" -j "${jobs}" 2>&1 | tee "${dir}/build.log"
  # The default build stays warning-free: any compiler warning in it fails
  # the leg. (An incremental build shows only the warnings of the files it
  # recompiles; a fresh checkout compiles them all.)
  if [[ "${dir}" == build ]] && grep 'warning:' "${dir}/build.log"; then
    echo "==> FAIL: the default build emitted the compiler warnings above" >&2
    exit 1
  fi
  echo "==> ctest ${dir} (-L tier1)"
  # Explicit per-test timeout: a wedged simulation (staging deadlock, hung
  # chaos run) fails the leg instead of stalling CI forever.
  ctest --test-dir "${dir}" -L tier1 --timeout 300 --output-on-failure -j "${jobs}"
}

run_suite build
run_suite build-asan -DPGA_SANITIZE=address
run_suite build-tsan -DPGA_SANITIZE=thread

# Perf smoke: run the scale benchmark at n=10^4 in the default (Release)
# build. --smoke asserts four machine-independent guards: the streamed
# builder's closed-form job/edge counts (jobs = n+8, edges = 4n+7 with
# the 4n regular edges pattern-compressed), an event-count envelope
# (exactly one READY / SUBMIT / ATTEMPT_FINISHED / SUCCEEDED per job on
# a clean run, plus the run bracket), a 512 MB peak-RSS memory envelope
# (catches any reintroduced O(n) blowup: materialized regular edges,
# per-job report rosters), and a second run on an explicit-edge copy of
# the streamed DAG whose lean jobstate digest must match the
# pattern-stored run's byte-for-byte. A complexity or memory
# regression fails deterministically without depending on machine speed.
# BENCH_scale.json in the repo root is the committed full-sweep
# trajectory baseline (n up to 10^7); regenerate it with
# `build/bench/scale_dag` when the layout changes.
echo "==> perf smoke (scale_dag --smoke, n=10^4)"
cmake --build build -j "${jobs}" --target scale_dag
build/bench/scale_dag --smoke --out build/BENCH_scale_smoke.json

# Align perf smoke: machine-independent guards on the science kernels —
# banded DP cell counts match the closed-form in-band envelope (so a band
# or layout regression that reintroduces quadratic work fails), score-only
# and traceback kernels agree, the AVX2 and scalar kernels are
# byte-equivalent, the parallel overlap phase is bit-identical to
# serial with pinned DP cell / traceback counts, and a fixed BLASTX search gives the same outfmt-6 bytes pooled
# as serial with pinned DP cell / score-only / traceback counts (the
# traceback gate runs at most one traceback per score-only winner), and
# BLASTX extensions per transcript on the own family protein, and per
# (transcript, protein) pair on the others, do not grow from a 12- to a
# 48-family database. Runs twice — dispatch forced scalar, then auto (AVX2 where the
# CPU has it) — so both code paths stay green on every CI run.
# BENCH_align.json in the repo root is the committed full benchmark;
# regenerate with `build/bench/align_e2e`.
echo "==> perf smoke (align_e2e --smoke, forced-scalar + auto dispatch)"
cmake --build build -j "${jobs}" --target align_e2e
PGA_SW_DISPATCH=scalar build/bench/align_e2e --smoke \
  --out build/BENCH_align_smoke_scalar.json
build/bench/align_e2e --smoke --out build/BENCH_align_smoke.json

# Shape perf smoke: the workload generator's whole taxonomy through
# planner + engine on the campus backend. Machine-independent guards:
# planned job counts equal the closed forms + 2 stage jobs, engine event
# counts stay in the per-job envelope, all four policies complete identical
# job sets, and critical-path still beats FIFO on the adversarial
# chain-heavy shape. BENCH_shapes.json in the repo root is the committed
# full two-platform sweep; regenerate with `build/bench/shape_ablation`.
echo "==> perf smoke (shape_ablation --smoke)"
cmake --build build -j "${jobs}" --target shape_ablation
build/bench/shape_ablation --smoke --out build/BENCH_shapes_smoke.json

# WaaS perf smoke: a 200-workflow burst through the multi-tenant fleet
# controller, both platforms on one clock. Machine-independent guards:
# every workflow completes with the closed-form job count, two runs are
# identical (fleet digest, event count and engine steps), the event
# count stays in a deterministic envelope, and a W=100 probe burst makes
# at most a fixed number of heap allocations per simulated job (counted
# by a replacement operator new in that binary). BENCH_waas.json in the repo
# root is the committed full sweep (bursts up to 10^4 workflows / ~1.3M
# jobs); regenerate with `build/bench/waas_bench`.
echo "==> perf smoke (waas_bench --smoke)"
cmake --build build -j "${jobs}" --target waas_bench
build/bench/waas_bench --smoke --out build/BENCH_waas_smoke.json

# Sim-core micro bench smoke: one short pass of the event-queue hold model
# (BM_EventQueueHold at 1e3 and 5e4 pending) so bench/micro_sim keeps
# building and running. No timing assertion. The installed google-benchmark
# takes a bare number of seconds for --benchmark_min_time.
echo "==> micro bench smoke (micro_sim --benchmark_filter=Hold)"
cmake --build build -j "${jobs}" --target micro_sim
build/bench/micro_sim --benchmark_filter=Hold --benchmark_min_time=0.01

# Align micro bench smoke: one short pass of the batched BLASTX-shaped
# score-only row (BM_BlastxCandidates16Batch: 16 candidates of a
# 150-residue frame in one banded_score_only_batch call) so the batch
# kernel's bench keeps building and running. No timing assertion.
echo "==> micro bench smoke (micro_align --benchmark_filter=Candidates16Batch)"
cmake --build build -j "${jobs}" --target micro_align
build/bench/micro_align --benchmark_filter=Candidates16Batch --benchmark_min_time=0.01

# Overlap micro bench smoke: one short pass of the batched overlap-shaped
# traceback row (BM_OverlapPairs16Batch: 16 unrelated ~400 nt DNA pairs in
# one banded_align_batch call) so the pair-batch kernel's bench keeps
# building and running. No timing assertion.
echo "==> micro bench smoke (micro_align --benchmark_filter=OverlapPairs16Batch)"
build/bench/micro_align --benchmark_filter=OverlapPairs16Batch --benchmark_min_time=0.01

# Trigger perf smoke: the event-triggered pipeline + sharded replica
# catalog. Machine-independent guards: the sharded catalog answers every
# membership / replica-order / best_for_site / entries()-order question
# exactly like a reference std::map, the triggered pipeline completes the
# closed-form workflow count with double-run byte identity, and the
# data-locality-vs-FIFO stage-in byte counts hit their closed forms on the
# LRU-bounded element. BENCH_trigger.json in the repo root is the
# committed full run (1e6-replica catalog race asserting the >= 5x lookup
# claim); regenerate with `build/bench/trigger_bench`.
echo "==> perf smoke (trigger_bench --smoke)"
cmake --build build -j "${jobs}" --target trigger_bench
build/bench/trigger_bench --smoke --out build/BENCH_trigger_smoke.json

# Benchmark self-test: builds perfbench/ into .bench_build/ and runs every
# BENCHMARK.json workload on tiny inputs, untraced and traced. It checks
# the workloads' own outputs (digests, job counts, per-tenant sums) and
# that every metric name and unit matches BENCHMARK.json. No walltime
# assertions; it writes only under .bench_build/.
echo "==> perf smoke (perfbench/run.py --smoke)"
python3 perfbench/run.py --smoke

# Size report: lines of C++ in src+bench+tests, the measure ROADMAP item 8
# tracks. Printed only, with no assertion, so each change's size shows in
# the log.
echo "==> size (C++ lines in src+bench+tests)"
git ls-files src bench tests | grep -E '\.(cpp|hpp)$' | xargs cat | wc -l \
  || echo "(not a git checkout; size not counted)"

echo "==> CI OK (default + asan/ubsan + tsan + perf smokes)"
