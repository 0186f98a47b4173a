#!/usr/bin/env sh
# Tier-1 verification: strict (-Werror) configure + build + full test run,
# in an isolated build-ci/ tree so it never disturbs the dev build/. Then a
# smoke run of the runtime-scaling bench (crosses the message-passing
# runtime's serial/threaded seam and asserts bit-identity), the same bench's
# four kernels at n = 2048 on 1 and 4 threads (bit-identity at block 128,
# with scatter and gather on the workers, recursive QR panels and the
# next-panel lookahead; untimed), the exact-solver bench's 3x3 and 3x4
# rows (asserts the arrangement search is identical at every thread count),
# the repository benchmark's self-test, the placement server's throughput
# smoke with its regression gates, a documentation link check, a layering
# check (src/mp must not build on the simulator), and finally a
# ThreadSanitizer pass over the concurrent pieces (the exact solver's
# thread pool, the message-passing runtime's task graph, and the placement
# server) in build-tsan/, with the thread pool and task graph tests
# repeated 20 times. The CLI's transcripts are a ctest entry (cli_golden).
# Usage: tools/ci.sh  (from the repository root; any CMake >= 3.16 works,
# CMake >= 3.21 users can equivalently run `cmake --preset ci` etc.)
set -eu

cd "$(dirname "$0")/.."

NPROC="$(nproc 2>/dev/null || echo 4)"

cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS=-Werror
cmake --build build-ci -j "$NPROC"
ctest --test-dir build-ci --output-on-failure -j "$NPROC"

# Bench smoke: a CI-sized runtime-scaling run. The harness itself enforces
# that every thread count reproduces the serial MpReport and matrices
# bit-for-bit, so this doubles as an end-to-end determinism check.
build-ci/bench/bench_runtime_scaling --smoke=1 --json=build-ci/BENCH_runtime_smoke.json

# Identity at real size: the smoke's n = 32, block 8 only reaches QR's
# base-case panels and small blocks, so every kernel runs at n = 2048,
# block 128 as well (the owners' scatter and gather tasks, recursive QR
# host panels, next-panel columns split out of the fused trailing update).
# Its times are not gated; the harness throws unless 4 threads reproduce
# the serial MpReport, tau and matrix bits.
build-ci/bench/bench_runtime_scaling --nb=16 --block=128 --threads=1,4 \
      --kernels=mmm,lu,chol,qr --reps=1 \
      --json=build-ci/BENCH_runtime_n2048.json

# Exact-solver bench smoke: the 3x3 and 3x4 rows, run for their assertions
# only (the arrangement search returns the same winner and counters at 1,
# 2 and 4 threads; exhaustive mode evaluates every spanning tree). Its
# times are not gated.
build-ci/bench/bench_exact_scaling --max-size=3 --reps=1 \
      --json=build-ci/BENCH_exact_smoke.json

# Regression gate: the bench output must match the committed schema, a
# self-compare must pass, and an injected +50% slowdown must make the gate
# fail — proving it would actually catch a regression.
build-ci/bench/bench_compare --check-schema=build-ci/BENCH_runtime_smoke.json \
      --schema=bench/baselines/bench_runtime_schema.json
build-ci/bench/bench_compare --base=build-ci/BENCH_runtime_smoke.json \
      --new=build-ci/BENCH_runtime_smoke.json

# Gate against the committed numbers baseline: the MP runtime's host
# synchronization count must never grow (exact), and wall clock must stay
# within a generous envelope (CI machines are noisy; this catches
# catastrophic slowdowns, the bit-identity asserts above catch the rest).
build-ci/bench/bench_compare --base=bench/baselines/bench_runtime_baseline.json \
      --new=build-ci/BENCH_runtime_smoke.json --key=barriers --threshold=0
build-ci/bench/bench_compare --base=bench/baselines/bench_runtime_baseline.json \
      --new=build-ci/BENCH_runtime_smoke.json --key=ms --threshold=4.0
if build-ci/bench/bench_compare --base=build-ci/BENCH_runtime_smoke.json \
      --new=build-ci/BENCH_runtime_smoke.json --inject=1.5 --threshold=0.2 \
      2>/dev/null; then
  echo "bench_compare failed to flag an injected regression" >&2
  exit 1
fi

# Gemm microkernel bench + gate: n = 2048 GFLOP/s per kernel (the harness
# itself asserts that the scalar and avx2 kernels agree bit for bit). The
# output must match the committed schema, the "identical" column must
# reproduce the committed baseline exactly (string fields are compared
# pairwise), wall clock stays within a generous envelope, and the
# injected-regression check proves this gate would fire.
build-ci/bench/bench_gemm_kernel --smoke=1 --json=build-ci/BENCH_gemm_smoke.json
build-ci/bench/bench_compare --check-schema=build-ci/BENCH_gemm_smoke.json \
      --schema=bench/baselines/bench_gemm_schema.json
build-ci/bench/bench_compare --base=bench/baselines/bench_gemm_baseline.json \
      --new=build-ci/BENCH_gemm_smoke.json --key=ms --threshold=4.0
if build-ci/bench/bench_compare --base=bench/baselines/bench_gemm_baseline.json \
      --new=build-ci/BENCH_gemm_smoke.json --key=ms --inject=8.0 \
      --threshold=4.0 2>/dev/null; then
  echo "bench_compare failed to flag an injected gemm regression" >&2
  exit 1
fi

# Blocked-trsm bench + gate: the LU panel solve timed as unblocked
# reference vs blocked scalar vs blocked AVX2 (the harness asserts all
# three agree bit for bit — this trsm variant preserves the reference's
# floating-point sequence exactly). Same gate shape as the gemm one:
# schema, generous wall-clock envelope, and a must-fire injection check.
build-ci/bench/bench_trsm_kernel --smoke=1 --json=build-ci/BENCH_trsm_smoke.json
build-ci/bench/bench_compare --check-schema=build-ci/BENCH_trsm_smoke.json \
      --schema=bench/baselines/bench_trsm_schema.json
build-ci/bench/bench_compare --base=bench/baselines/bench_trsm_baseline.json \
      --new=build-ci/BENCH_trsm_smoke.json --key=ms --threshold=4.0
if build-ci/bench/bench_compare --base=bench/baselines/bench_trsm_baseline.json \
      --new=build-ci/BENCH_trsm_smoke.json --key=ms --inject=8.0 \
      --threshold=4.0 2>/dev/null; then
  echo "bench_compare failed to flag an injected trsm regression" >&2
  exit 1
fi

# Online-rebalancing bench + gate: the planted-straggler scenario
# (doc/rebalance.md). The harness enforces the acceptance bar itself
# (>= 25% makespan reduction, within 15% of the balanced lower bound on
# the MMM rows); every virtual-time column is deterministic, so the gate
# compares makespans and migration counts at threshold 0, with the usual
# generous wall-clock envelope and a must-fire injection check.
build-ci/bench/bench_rebalance --smoke=1 --json=build-ci/BENCH_rebalance_smoke.json
build-ci/bench/bench_compare --check-schema=build-ci/BENCH_rebalance_smoke.json \
      --schema=bench/baselines/bench_rebalance_schema.json
build-ci/bench/bench_compare --base=bench/baselines/bench_rebalance_baseline.json \
      --new=build-ci/BENCH_rebalance_smoke.json --key=rebalanced_makespan --threshold=0
build-ci/bench/bench_compare --base=bench/baselines/bench_rebalance_baseline.json \
      --new=build-ci/BENCH_rebalance_smoke.json --key=rebalances --threshold=0
build-ci/bench/bench_compare --base=bench/baselines/bench_rebalance_baseline.json \
      --new=build-ci/BENCH_rebalance_smoke.json --key=blocks --threshold=0
build-ci/bench/bench_compare --base=bench/baselines/bench_rebalance_baseline.json \
      --new=build-ci/BENCH_rebalance_smoke.json --key=ms --threshold=4.0
if build-ci/bench/bench_compare --base=build-ci/BENCH_rebalance_smoke.json \
      --new=build-ci/BENCH_rebalance_smoke.json --key=ms --inject=8.0 \
      --threshold=4.0 2>/dev/null; then
  echo "bench_compare failed to flag an injected rebalance regression" >&2
  exit 1
fi

# The MP kernel tests again with the gemm / trsm dispatch pinned to the
# scalar kernels. Kernel choice never changes a computed bit, so the full
# test set must pass unchanged — proving the scalar fallback stays correct
# on AVX2 builders too.
HETGRID_GEMM_KERNEL=scalar ctest --test-dir build-ci --output-on-failure \
      -j "$NPROC" -R '^(test_mp|test_runtime_parallel|test_task_graph)$'

# Repository benchmark self-test: perfbench compiles ../src on its own and
# calls matrix/ and mp/ entry points directly, so a src/ change that breaks
# it must fail here rather than only when the benchmark runs. Builds it,
# runs its own tests and its forced-scalar must-fire check.
python3 perfbench/run.py --self-test

# Server throughput bench + gate: the output must match the committed
# schema, the cache counters must reproduce the committed baseline exactly
# (a cold mix is all misses, a warm mix all hits — deterministic for any
# client interleaving), tail latency must stay within a generous envelope,
# and the injected-regression check proves this gate would fire.
build-ci/bench/bench_server_throughput --smoke=1 --json=build-ci/BENCH_server_smoke.json
build-ci/bench/bench_compare --check-schema=build-ci/BENCH_server_smoke.json \
      --schema=bench/baselines/bench_server_schema.json
build-ci/bench/bench_compare --base=bench/baselines/bench_server_baseline.json \
      --new=build-ci/BENCH_server_smoke.json --key=misses --threshold=0
build-ci/bench/bench_compare --base=bench/baselines/bench_server_baseline.json \
      --new=build-ci/BENCH_server_smoke.json --key=hits --threshold=0
build-ci/bench/bench_compare --base=bench/baselines/bench_server_baseline.json \
      --new=build-ci/BENCH_server_smoke.json --key=p95_us --threshold=9.0
if build-ci/bench/bench_compare --base=build-ci/BENCH_server_smoke.json \
      --new=build-ci/BENCH_server_smoke.json --inject=1.5 --threshold=0.2 \
      2>/dev/null; then
  echo "bench_compare failed to flag an injected server regression" >&2
  exit 1
fi

# Documentation link check: every doc page must be indexed in the
# architecture map, and every relative markdown link in the user-facing
# docs must resolve to a file.
for f in doc/*.md; do
  base="$(basename "$f")"
  if [ "$base" != "architecture.md" ] && \
     ! grep -q "$base" doc/architecture.md; then
    echo "doc/architecture.md does not index $base" >&2
    exit 1
  fi
done
for src in README.md EXPERIMENTS.md doc/*.md; do
  dir="$(dirname "$src")"
  for link in $(grep -oE '\]\([^)]+\.md[^)]*\)' "$src" \
                | sed -e 's/^](//' -e 's/)$//' -e 's/#.*//'); do
    case "$link" in
      http://*|https://*) continue ;;
    esac
    if [ ! -f "$dir/$link" ]; then
      echo "$src links to missing file $link" >&2
      exit 1
    fi
  done
done

# Layering check: both backends price a run on the machine model in core/
# and dist/, so the message-passing runtime must not build on the
# simulator. No file under src/mp may include a sim/ header or link
# hetgrid_sim.
if grep -rnE '"sim/|hetgrid_sim' src/mp; then
  echo "src/mp depends on the simulator (sim/)" >&2
  exit 1
fi

# TSan pass: only the tests that actually exercise threads (mirrors the
# "tsan" preset in CMakePresets.json).
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "$NPROC" \
      --target test_thread_pool test_exact_parallel test_mp test_runtime_parallel test_profiler test_task_graph test_serve test_imbalance test_rebalance
ctest --test-dir build-tsan --output-on-failure -j "$NPROC" \
      -R '^(test_thread_pool|test_exact_parallel|test_mp|test_runtime_parallel|test_profiler|test_task_graph|test_serve|test_imbalance|test_rebalance)$'

# The pool's wake/idle protocol and the task graph's pumps on it, 20 times
# over, so a lost wakeup or an idle-signal race that a single run hits
# only rarely still fails CI.
build-tsan/tests/test_thread_pool --gtest_repeat=20
build-tsan/tests/test_task_graph --gtest_repeat=20
