#!/usr/bin/env bash
# CI entry point. Fully offline: the workspace has no registry
# dependencies (uu-check replaces rand/proptest/criterion), so every step
# must pass with --offline on a clean checkout.
#
#   ./ci.sh          # build (warnings are errors), test, fuzz smoke
#
# Knobs (the full table is in DESIGN.md "Environment knobs"; an empty
# value means unset, a malformed one exits 2 before any work):
#   UU_CHECK_SEED   replay a whole fuzz run (decimal or 0x-hex)
#   UU_CHECK_CASES  per-property case budget (ci.sh smoke uses 200)
#   UU_JOBS         worker count for the parallel sweep/fuzz engine
#   UU_FAULT        pipeline/simulator fault plan (uu-harness, uu-fuzz)
#   UU_CRASH_DIR    uu-fuzz crash-report directory
#   UU_CACHE_DIR, UU_SERVE_SOCKET, UU_SERVE_WORKERS, UU_SERVE_INFLIGHT,
#   UU_SERVE_FAULT  uu-harness artifact cache, daemon and serve tunables
#   UU_BENCH_SAMPLES, UU_BENCH_WARMUP_MS  uu-bench sample budget
set -euo pipefail
cd "$(dirname "$0")"

# `wait` cannot be timed out, so poll for the exit first: a daemon that
# never wakes from `accept` after `shutdown` fails the rung in 10 s instead
# of hanging CI.
wait_drained() {
  if ! timeout 10 tail --pid="$1" -f /dev/null; then
    echo "daemon (pid $1) did not exit within 10 s of shutdown" >&2
    exit 1
  fi
  wait "$1"
}

# counter FILE NAME: one integer counter out of a `stats` JSON snapshot.
counter() {
  grep -o "\"$2\": [0-9]*" "$1" | grep -o '[0-9]*$'
}

echo "== lint: libraries read no environment =="
# Binaries parse their UU_* knobs once in main and hand libraries the
# values; only the entry points below may read the environment.
if grep -rnE 'env::(var|var_os|vars)\b' crates/*/src \
  | grep -vE '^crates/(harness/src/main|check/src/bin/uu-fuzz|check/src/runner|check/src/bench)\.rs:'
then
  echo "environment read outside the binaries' entry points (lines above)" >&2
  exit 1
fi

echo "== lint: the harness builds each application's module once =="
# Every measurement path takes its module from `shared_module` (a clone of
# one build per thread), so the compile memo finds a point's untouched
# functions by pointer. A path calling an application's `build` itself
# would silently fall back to rebuilding, fingerprinting and comparing
# every function of every point.
if grep -rnE '\.build\b' crates/harness/src \
  | grep -vE '^crates/harness/src/experiment\.rs:[0-9]+: +modules\.entry\(bench\.build as usize\)'
then
  echo "module built outside experiment::shared_module (lines above)" >&2
  exit 1
fi

echo "== build (release, offline, deny warnings) =="
RUSTFLAGS="${RUSTFLAGS:-} -Dwarnings" cargo build --release --offline --all-targets

echo "== test =="
cargo test -q --offline

echo "== fuzz smoke (200 cases per property) =="
UU_CHECK_CASES=200 cargo test -q --offline --release -p uu-tests

echo "== parallel determinism: uu-fuzz stdout must not depend on UU_JOBS =="
# Same seed, serial vs 4 workers. stdout carries the corpus verdicts, the
# per-case digests and (on failure) the shrunk spec; stderr carries the
# timings. Any scheduling leak into the report shows up as a diff here.
mkdir -p target/ci
t1=$(date +%s)
UU_CHECK_CASES=200 UU_JOBS=1 ./target/release/uu-fuzz > target/ci/fuzz-j1.txt
t2=$(date +%s)
UU_CHECK_CASES=200 UU_JOBS=4 ./target/release/uu-fuzz > target/ci/fuzz-j4.txt
t3=$(date +%s)
diff target/ci/fuzz-j1.txt target/ci/fuzz-j4.txt
echo "fuzz smoke identical across UU_JOBS (serial $((t2-t1))s, 4 workers $((t3-t2))s)"

echo "== fault-injection smoke: degraded reports must not depend on UU_JOBS =="
# Three fault kinds (a pass panic, a silent miscompile, a one-shot memory
# fault), each swept at one and four workers on one benchmark. The sweep
# must complete, the fault report must record the degradation, and the
# whole report directory must be byte-identical across worker counts
# (see DESIGN.md "Fault tolerance & crash recovery").
for fault in 'panic@3' 'miscompile@2:7' 'mem@40'; do
  for jobs in 1 4; do
    out="target/ci/fault-${fault//[@:]/-}-j${jobs}"
    rm -rf "$out"
    UU_FAULT="$fault" UU_JOBS="$jobs" \
      ./target/release/uu-harness fig7 --fast --bench bezier-surface --out "$out" \
      > /dev/null
  done
  diff -r "target/ci/fault-${fault//[@:]/-}-j1" "target/ci/fault-${fault//[@:]/-}-j4"
  # The fault report must actually record a degradation, not a clean run.
  if grep -q 'ran cleanly' "target/ci/fault-${fault//[@:]/-}-j1/faults.txt"; then
    echo "fault $fault left no trace in faults.txt" >&2
    exit 1
  fi
  echo "fault $fault: contained, diagnosed, identical across UU_JOBS"
done

echo "== meld smoke: golden snapshots, study determinism, injected meld panic =="
# The meld golden before/after snapshots must match the checked-in files
# (the full test suite above runs them too; this rung re-runs just the
# meld ones so a meld regression is named in the CI log).
cargo test -q --offline --release -p uu-core --test golden golden_meld > /dev/null
# The three-way unmerge/meld study must be byte-identical at 1 and 4
# workers, like every other report artifact.
for jobs in 1 4; do
  rm -rf "target/ci/study-j${jobs}"
  UU_JOBS="$jobs" ./target/release/uu-harness study --bench mandelbrot \
    --out "target/ci/study-j${jobs}" > /dev/null
done
diff -r target/ci/study-j1 target/ci/study-j4
# A panic injected into pass invocation 1 — the meld invocation of every
# uu<k>+meld compile — must be contained (study completes), must leave a
# `meld#1` trace in the fig9 diag column, and must stay byte-identical
# across worker counts.
for jobs in 1 4; do
  out="target/ci/study-fault-j${jobs}"
  rm -rf "$out"
  UU_FAULT='panic@1' UU_JOBS="$jobs" \
    ./target/release/uu-harness study --bench mandelbrot --out "$out" > /dev/null
done
diff -r target/ci/study-fault-j1 target/ci/study-fault-j4
if ! grep -q 'meld#1' target/ci/study-fault-j1/fig9.csv; then
  echo "injected meld panic left no meld#1 trace in fig9.csv" >&2
  exit 1
fi
echo "meld smoke: golden + study + faulted study identical across UU_JOBS"

echo "== engine identity: checked-in results-fast/ must reproduce byte-identically =="
# The decoded execution engine must not change a single reported byte
# relative to the committed reports (the cycle model is engine-invariant).
# It is also the identity gate of both content-addressed stores (DESIGN.md
# "Content-addressed stores"): after the first launch of each kernel the
# sweep runs on the decode cache, and every per-loop point replays its
# untouched functions from the compile memo. Both are thread-local and
# uu-par's scoped workers start with empty ones per par_map, so one worker
# exercises one large store of each and four exercise several small ones;
# both must reproduce the same bytes.
# (The one-worker directory is the cacheless reference later rungs diff
# against.)
rm -rf target/ci/results-fast target/ci/results-fast-j4
UU_JOBS=1 ./target/release/uu-harness all --fast --out target/ci/results-fast > /dev/null
diff -r results-fast target/ci/results-fast
UU_JOBS=4 ./target/release/uu-harness all --fast --out target/ci/results-fast-j4 > /dev/null
diff -r results-fast target/ci/results-fast-j4
echo "results-fast (cached-decode, memoised-compile sweep) reproduces byte-identically at UU_JOBS=1 and 4"

echo "== full report identity: checked-in results/ must reproduce byte-identically =="
# The same gate over the full sweep (every loop of every application, the
# in-depth counters and the study) — the committed paper artifacts
# themselves, not a sample of them — serially and at two workers, where
# the measurement plan's two par_map barriers split the work.
for jobs in 1 2; do
  rm -rf "target/ci/results-j${jobs}"
  UU_JOBS="$jobs" ./target/release/uu-harness all --out "target/ci/results-j${jobs}" > /dev/null
  diff -r results "target/ci/results-j${jobs}"
done
echo "results/ reproduces byte-identically at UU_JOBS=1 and 2"

echo "== behavioural fingerprint over the whole compile matrix (release) =="
# `cargo test` above checked the factor-2 hot-loop subset (an unoptimised
# build needs minutes for the factor-8 points); this is the full one: all
# 16 kernels x baseline, heuristic and every sweep and study configuration
# on the hot loops and three cold loops, plus the uu-check corpus. A
# printed module or a work charge that moves without a PASS_VERSIONS bump
# fails here (crates/core/tests/golden/behaviour.fnv), and so does a point
# whose memo-warm compile differs from its memo-cold one.
cargo test -q --offline --release -p uu-core --test behaviour_fingerprint
# The passes' cheap forms at every factor, against their references on
# every hot loop: GVN and instsimplify (batched use rewriting), SCCP
# (incremental phi meets) and condprop (phi incomings by label) at each
# cleanup stage under uu2, uu4, uu8 and uu8+meld, and unmerging (per-node
# indexes) at factors 1-8 in every mode, with and without the block cap
# stopping it (the debug run above stops at uu4).
cargo test -q --offline --release -p uu-core --lib rewrite_equivalence > /dev/null

echo "== uniformity over the whole hot-point matrix (release) =="
# `cargo test` above checked the heuristic + uu2 subset; this is the full
# one: the worklist uniformity and divergence analyses against their
# round-robin references on every function of all 16 kernels x baseline,
# heuristic and every hot loop under all seven sweep configurations, then
# the scalarization oracle (ReferenceVerifyUniform) on every hot loop
# under uu2, uu4 and uu8.
cargo test -q --offline --release -p uu-tests --test uniformity_oracle
cargo test -q --offline --release -p uu-tests --test engine_differential \
  uniform_values_identical_across_lanes_on_kernel_suite

echo "== serve smoke: daemon round-trip, cache hit, fault containment, cached-sweep identity =="
# Start the compile-service daemon on a Unix socket with a disk cache,
# round-trip the same kernel compile twice (the second must be a cache
# hit), inject a pass panic into a request (the daemon must survive and
# report the degradation rung), and check the stats verb answers with
# valid versioned JSON.
rm -rf target/ci/serve-cache target/ci/serve.sock
UU_CACHE_DIR=target/ci/serve-cache \
  ./target/release/uu-harness serve --socket target/ci/serve.sock 2> /dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2> /dev/null || true' EXIT
./target/release/uu-harness client --socket target/ci/serve.sock \
  --bench mandelbrot --config uu4 > target/ci/serve-first.txt
grep -q '^cached: miss$' target/ci/serve-first.txt
./target/release/uu-harness client --socket target/ci/serve.sock \
  --bench mandelbrot --config uu4 > target/ci/serve-second.txt
grep -q '^cached: hit$' target/ci/serve-second.txt
# Identical compile metadata on hit and miss (only the cached header flips).
diff <(grep -v '^cached:' target/ci/serve-first.txt) \
     <(grep -v '^cached:' target/ci/serve-second.txt)
# A faulted request: contained, answered, degraded rung reported.
./target/release/uu-harness client --socket target/ci/serve.sock \
  --bench mandelbrot --config uu4 --fault panic@1 > target/ci/serve-fault.txt
grep -q '^rung: ' target/ci/serve-fault.txt
if grep -q '^rung: full$' target/ci/serve-fault.txt; then
  echo "injected fault did not degrade the service compile rung" >&2
  exit 1
fi
# The daemon survived the faulted request: stats still answers, as JSON.
./target/release/uu-harness client --socket target/ci/serve.sock --verb stats \
  | tail -n +2 > target/ci/serve-stats.json
./target/release/uu-jsonck target/ci/serve-stats.json
grep -q '"stats_version": 2' target/ci/serve-stats.json
./target/release/uu-harness client --socket target/ci/serve.sock --verb shutdown > /dev/null
wait_drained "$serve_pid"
trap - EXIT
echo "serve smoke: round-trip, hit, fault containment, shutdown all good"

# Cache-aware sweep identity: the fast sweep through a disk cache (cold,
# then warm) must be byte-identical to the cacheless reference directory
# produced by the engine-identity rung above.
rm -rf target/ci/sweep-cache
for pass in cold warm; do
  rm -rf "target/ci/results-fast-cache-$pass"
  t0=$(date +%s)
  UU_CACHE_DIR=target/ci/sweep-cache \
    ./target/release/uu-harness all --fast --out "target/ci/results-fast-cache-$pass" \
    > /dev/null 2> "target/ci/results-fast-cache-$pass.err"
  eval "t_$pass=$(( $(date +%s) - t0 ))"
  diff -r target/ci/results-fast "target/ci/results-fast-cache-$pass"
done
# Not vacuous: the warm pass must be served entirely from what the cold
# pass stored. A miss is a compile or run key that is not stable within one
# build, and a warm pass that recompiles would make the diff above prove
# nothing about the cache.
sed -n '/^cache stats JSON:$/,$p' target/ci/results-fast-cache-warm.err | tail -n +2 \
  > target/ci/sweep-cache-warm.json
./target/release/uu-jsonck target/ci/sweep-cache-warm.json
warm=target/ci/sweep-cache-warm.json
if [ "$(counter $warm compile_misses)" -ne 0 ] || [ "$(counter $warm run_misses)" -ne 0 ]; then
  echo "warm cached sweep missed: compile_misses $(counter $warm compile_misses)," \
    "run_misses $(counter $warm run_misses)" >&2
  exit 1
fi
echo "cached fast sweep byte-identical, warm pass all hits (cold ${t_cold}s, warm ${t_warm}s)"

echo "== serve stress: admission control, service faults, graceful drain =="
# A deliberately under-provisioned daemon (2 workers, ONE admission slot)
# with a service-level fault plan: the first admitted compile stalls
# 1500 ms holding the slot, a later one loses its connection, another
# panics in the handler. Against it: a no-retry probe that must be shed
# with a structured `busy` + retry-after-ms, a health check that must
# answer while the slot is held (control verbs are never shed), and
# concurrent retrying clients that must ALL land real responses. Then a
# drain shutdown must complete with exit 0 and extended stats as valid
# versioned JSON.
rm -rf target/ci/stress.sock
UU_SERVE_WORKERS=2 UU_SERVE_INFLIGHT=1 \
UU_SERVE_FAULT='slow@0:1500,disconnect@2,panic@3' \
  ./target/release/uu-harness serve --socket target/ci/stress.sock 2> /dev/null &
stress_pid=$!
trap 'kill "$stress_pid" 2> /dev/null || true' EXIT
# Occupy the only admission slot (this request draws the slow fault).
./target/release/uu-harness client --socket target/ci/stress.sock \
  --bench mandelbrot --config unroll2 > target/ci/stress-unroll2.txt &
slow_pid=$!
sleep 0.5
# Shed: a single-attempt probe gets the structured overload response.
if ./target/release/uu-harness client --socket target/ci/stress.sock \
  --bench mandelbrot --config unroll4 --no-retry > target/ci/stress-busy.txt; then
  echo "no-retry probe against a saturated daemon must exit nonzero" >&2
  exit 1
fi
grep -q '^busy$' target/ci/stress-busy.txt
grep -q '^retry-after-ms: ' target/ci/stress-busy.txt
# Control plane stays responsive while the data plane is saturated.
./target/release/uu-harness client --socket target/ci/stress.sock --verb health \
  > target/ci/stress-health.txt
grep -q '^draining: 0$' target/ci/stress-health.txt
./target/release/uu-harness client --socket target/ci/stress.sock --verb ready \
  > target/ci/stress-ready.txt
grep -q '^ready: 1$' target/ci/stress-ready.txt
# Concurrent retrying clients ride out the stall, the dropped connection
# and the handler panic — zero lost responses.
client_pids=()
for cfg in unroll8 uu2 uu4 uu8; do
  ./target/release/uu-harness client --socket target/ci/stress.sock \
    --bench mandelbrot --config "$cfg" > "target/ci/stress-$cfg.txt" &
  client_pids+=($!)
done
wait "$slow_pid"
for pid in "${client_pids[@]}"; do wait "$pid"; done
for cfg in unroll2 unroll8 uu2 uu4 uu8; do
  grep -q '^ok$' "target/ci/stress-$cfg.txt" || {
    echo "stress client $cfg lost its response" >&2; exit 1; }
done
# Extended stats: versioned JSON, and the overload counters moved.
./target/release/uu-harness client --socket target/ci/stress.sock --verb stats \
  | tail -n +2 > target/ci/stress-stats.json
./target/release/uu-jsonck target/ci/stress-stats.json
grep -q '"stats_version": 2' target/ci/stress-stats.json
grep -q '"busy_shed": [1-9]' target/ci/stress-stats.json
grep -q '"handler_panics": [1-9]' target/ci/stress-stats.json
# Drain: shutdown is acknowledged and the daemon exits cleanly.
./target/release/uu-harness client --socket target/ci/stress.sock --verb shutdown \
  > target/ci/stress-shutdown.txt
grep -q '^ok$' target/ci/stress-shutdown.txt
wait_drained "$stress_pid"
trap - EXIT
echo "serve stress: shed, contained, drained with zero lost responses"

echo "== remote-backend identity: daemon-backed study must match the local reference =="
# The same study the meld rung produced locally (target/ci/study-j1),
# regenerated with every compile shipped through a freshly started daemon
# (UU_SERVE_SOCKET) at 1 and 4 workers: byte-identical, both times.
rm -rf target/ci/remote.sock target/ci/remote-cache
UU_SERVE_WORKERS=2 UU_CACHE_DIR=target/ci/remote-cache \
  ./target/release/uu-harness serve --socket target/ci/remote.sock 2> /dev/null &
remote_pid=$!
trap 'kill "$remote_pid" 2> /dev/null || true' EXIT
for jobs in 1 4; do
  rm -rf "target/ci/remote-study-j${jobs}"
  UU_JOBS="$jobs" UU_SERVE_SOCKET=target/ci/remote.sock \
    ./target/release/uu-harness study --bench mandelbrot \
    --out "target/ci/remote-study-j${jobs}" > /dev/null
  diff -r target/ci/study-j1 "target/ci/remote-study-j${jobs}"
done
# Not vacuous: the daemon must actually have served the compiles (a
# silent local fallback would make the diff above meaningless).
./target/release/uu-harness client --socket target/ci/remote.sock --verb stats \
  | tail -n +2 > target/ci/remote-stats.json
if grep -q '"compile_misses": 0,' target/ci/remote-stats.json; then
  echo "daemon-backed study compiled nothing remotely" >&2
  exit 1
fi
# The warm served path: the UU_JOBS=1 study again, against the same
# daemon. Byte-identical once more, and every one of its requests a
# forwarded hit — nothing recompiled, hits up by exactly the pass's
# compile count (its requests, less the closing `stats` request itself).
rm -rf target/ci/remote-study-warm
UU_JOBS=1 UU_SERVE_SOCKET=target/ci/remote.sock \
  ./target/release/uu-harness study --bench mandelbrot \
  --out target/ci/remote-study-warm > /dev/null
diff -r target/ci/study-j1 target/ci/remote-study-warm
./target/release/uu-harness client --socket target/ci/remote.sock --verb stats \
  | tail -n +2 > target/ci/remote-stats-warm.json
cold=target/ci/remote-stats.json
warm=target/ci/remote-stats-warm.json
compiles=$(( $(counter $warm requests) - $(counter $cold requests) - 1 ))
hits=$(( $(counter $warm compile_mem_hits) + $(counter $warm compile_disk_hits) \
  - $(counter $cold compile_mem_hits) - $(counter $cold compile_disk_hits) ))
if [ "$compiles" -le 0 ] || [ "$hits" -ne "$compiles" ] \
  || [ "$(counter $warm compile_misses)" -ne "$(counter $cold compile_misses)" ]; then
  echo "warm daemon-backed study: $compiles compiles, $hits hits, misses" \
    "$(counter $cold compile_misses) -> $(counter $warm compile_misses)" >&2
  exit 1
fi
./target/release/uu-harness client --socket target/ci/remote.sock --verb shutdown > /dev/null
wait_drained "$remote_pid"
trap - EXIT
echo "warm pass: $compiles compiles, all served as hits, byte-identical"
echo "daemon-backed study byte-identical to the local reference at UU_JOBS=1 and 4"

echo "== bench smoke: every uu-bench row runs once =="
# `--all-targets` above only compiles the benches; this runs them, so a
# row that panics fails CI. Smoke only — no thresholds, nothing written.
UU_BENCH_SAMPLES=3 UU_BENCH_WARMUP_MS=1 cargo bench -q --offline -p uu-bench

echo "== e2ebench smoke: the benchmark package must build and run against this tree =="
# e2ebench/ is a workspace of its own, so nothing above compiles it: a
# harness or serve API change could break the benchmark (BENCHMARK.json)
# unnoticed. Its smoke test runs every workload once at a tiny scale.
cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml

echo "ci.sh: all green"
