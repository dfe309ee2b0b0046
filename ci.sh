#!/usr/bin/env bash
# CI entry point. Fully offline: the workspace has no registry
# dependencies (uu-check replaces rand/proptest), so every step
# must pass with --offline on a clean checkout.
#
# Knobs (the full table is in DESIGN.md "Environment knobs"; an empty
# value means unset, a malformed one exits 2 before any work):
#   UU_CHECK_SEED   replay a whole fuzz run (decimal or 0x-hex)
#   UU_CHECK_CASES  per-property case budget (ci.sh smoke uses 200)
#   UU_JOBS         worker count for the parallel sweep/fuzz engine
#   UU_FAULT        pipeline/simulator fault plan (uu-harness, uu-fuzz)
#   UU_CRASH_DIR    uu-fuzz crash-report directory
#   UU_CACHE_DIR    uu-harness report commands' artifact-cache directory
set -euo pipefail
cd "$(dirname "$0")"

# counter FILE NAME: one integer counter out of a cache stats JSON snapshot.
counter() {
  grep -o "\"$2\": [0-9]*" "$1" | grep -o '[0-9]*$'
}

echo "== lint: libraries read no environment =="
# Binaries parse their UU_* knobs once in main and hand libraries the
# values; only the entry points below may read the environment.
if grep -rnE 'env::(var|var_os|vars)\b' crates/*/src \
  | grep -vE '^crates/(harness/src/main|check/src/bin/uu-fuzz|check/src/runner)\.rs:'
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

echo "== lint: compile results have one codec =="
# `CompileMeta` and `RunRecord` are spelled as headers in one place, the
# codec in crates/serve/src/artifact.rs, which the daemon's replies, the
# client and the disk artifacts all share. A second spelling of a field
# elsewhere would be a second format that can drift from the first.
if grep -rnE '"(code-size|timed-out|transfer-ms|time-ms)"' crates/*/src \
  | grep -vE '^crates/serve/src/artifact\.rs:'
then
  echo "compile-result header spelled outside the artifact codec (lines above)" >&2
  exit 1
fi

echo "== lint: the harness speaks no protocol =="
# A point's compile and run come from a `uu_serve::Artifacts` store:
# config names, request messages and the parse of a reply live in
# uu-serve, behind that one interface.
if grep -rnE 'config_name\(|parse_module|Message::new' crates/harness/src; then
  echo "protocol code in the harness (lines above)" >&2
  exit 1
fi

echo "== lint: the knob tables name the knobs the code reads =="
# Every row of the "Environment knobs" tables in README.md and DESIGN.md
# names a knob that code under crates/ or tests/ spells as a string
# literal, and every knob uu-harness reads has a row in both tables.
stale=0
for doc in README.md DESIGN.md; do
  rows=$(awk '/^## Environment knobs/ { on = 1; next } /^## / { on = 0 } on' "$doc" \
    | grep -oE '^\| `UU_[A-Z_]+`' | tr -d '|` ' || true)
  for k in $rows; do
    grep -rqF --include='*.rs' "\"$k\"" crates tests \
      || { echo "$doc: the row for $k names a knob nothing reads" >&2; stale=1; }
  done
  for k in $(grep -oE 'knob\("UU_[A-Z_]+"' crates/harness/src/main.rs | grep -oE 'UU_[A-Z_]+'); do
    grep -qx "$k" <<< "$rows" || { echo "$doc: no row for $k, which uu-harness reads" >&2; stale=1; }
  done
done
[ "$stale" -eq 0 ]

echo "== build (release, offline, deny warnings) =="
RUSTFLAGS="${RUSTFLAGS:-} -Dwarnings" cargo build --release --offline --all-targets

echo "== lint: the docs name only commands that exist =="
# Every uu-harness command word README.md and DESIGN.md name, as
# `uu-harness <word>`, `uu-harness -- <word>` or the per-experiment
# index's `-- <word>`, is one the usage line of `uu-harness --help` lists.
# It needs the binary, so it runs after the build.
commands=$(./target/release/uu-harness --help \
  | sed -n 's/^usage: uu-harness \[\([^]]*\)\].*/\1/p' | tr '|' '\n')
[ -n "$commands" ] || { echo "no command list in uu-harness --help" >&2; exit 1; }
stale=0
while IFS=: read -r doc line named; do
  word=$(grep -oE '[a-z][a-z0-9]*`?$' <<< "$named" | tr -d '`')
  grep -qx "$word" <<< "$commands" \
    || { echo "$doc:$line: '$word' is no command in uu-harness --help" >&2; stale=1; }
done < <(grep -noE 'uu-harness (-- )?[a-z][a-z0-9]*|`-- [a-z][a-z0-9]*`' README.md DESIGN.md)
[ "$stale" -eq 0 ]

echo "== test =="
cargo test -q --offline

echo "== docs build clean (rustdoc, deny warnings) =="
# A public doc that links a private item, or a name that is both a module
# and a function, is a rustdoc warning nothing else would show.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

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
rm -rf target/ci/results-fast target/ci/results-fast-j4 target/ci/results-fast-profile
UU_JOBS=1 ./target/release/uu-harness all --fast --out target/ci/results-fast > /dev/null
diff -r results-fast target/ci/results-fast
UU_JOBS=4 ./target/release/uu-harness all --fast --out target/ci/results-fast-j4 > /dev/null
diff -r results-fast target/ci/results-fast-j4
# `--profile` prints its span table on stderr and moves no report byte.
UU_JOBS=1 ./target/release/uu-harness all --fast --profile --out target/ci/results-fast-profile \
  > /dev/null 2> target/ci/results-fast-profile.err
diff -r results-fast target/ci/results-fast-profile
for span in 'cold-point compile' 'executed-point compile' simulate render; do
  grep -q "^  $span " target/ci/results-fast-profile.err \
    || { echo "--profile printed no '$span' span" >&2; exit 1; }
done
echo "results-fast (cached-decode, memoised-compile sweep) reproduces byte-identically at UU_JOBS=1 and 4, and with --profile"

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
# indexes) at factors 1-8 in both cascade modes, with and without the
# block cap stopping it (the debug run above stops at uu4).
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

echo "== cached sweep identity: cold and warm disk-cache sweeps match the reference =="
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
warm=target/ci/sweep-cache-warm.json
if [ "$(counter $warm compile_misses)" -ne 0 ] || [ "$(counter $warm run_misses)" -ne 0 ]; then
  echo "warm cached sweep missed: compile_misses $(counter $warm compile_misses)," \
    "run_misses $(counter $warm run_misses)" >&2
  exit 1
fi
echo "cached fast sweep byte-identical, warm pass all hits (cold ${t_cold}s, warm ${t_warm}s)"

echo "== e2ebench smoke: the benchmark package must build and run against this tree =="
# e2ebench/ is a workspace of its own, so nothing above compiles it: a
# harness or serve API change could break the benchmark (BENCHMARK.json)
# unnoticed. Its smoke test runs every workload once at a tiny scale.
cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml

echo "ci.sh: all green"
