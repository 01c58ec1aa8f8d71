#!/usr/bin/env bash
# Offline CI gate: everything here runs with zero external crates.
# The Criterion suites are behind the off-by-default `bench-ext`
# feature and are NOT part of this gate; the in-tree `heavy-tests`
# property batteries run in the speculation section below.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== observability smoke: experiments sched --trace/--metrics"
SMOKE_DIR="$(mktemp -d)"
REPO_DIR="$(pwd)"
(cd "$SMOKE_DIR" && "$REPO_DIR/target/release/experiments" sched \
  --trace smoke_trace.json --metrics smoke_metrics.json > /dev/null)
target/release/experiments validate "$SMOKE_DIR/smoke_trace.json" \
  traceEvents displayTimeUnit otherData
target/release/experiments validate "$SMOKE_DIR/smoke_metrics.json" \
  schema label pool heap locks vm wall timeline
target/release/experiments validate "$SMOKE_DIR/BENCH_sched.json" \
  schema bench host_threads runs
rm -rf "$SMOKE_DIR"

echo "== engine differential: tree-walker vs bytecode VM on the examples"
target/release/experiments differential examples/lisp/*.lisp examples/lisp/fixtures/*.lisp

echo "== engine sweep: experiments interp writes a valid BENCH_interp.json"
# Regression gate: the VM must stay >= 2x the tree-walker (geomean).
SWEEP_DIR="$(mktemp -d)"
(cd "$SWEEP_DIR" && "$REPO_DIR/target/release/experiments" interp \
  --min-speedup 2 > /dev/null)
target/release/experiments validate "$SWEEP_DIR/BENCH_interp.json" \
  schema bench host_threads runs
rm -rf "$SWEEP_DIR"

echo "== fusion ablation: experiments hir (fused vs --no-fuse op counts)"
target/release/experiments hir > /dev/null

echo "== diagnostics smoke: curare check exit contract"
# Shipped examples are clean (exit 0)…
target/release/curare check examples/lisp/*.lisp > /dev/null
# …and the seeded shared-root fixture is a C002 error (exit 2).
rc=0; target/release/curare check examples/lisp/fixtures/shared-root.lisp > /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 on the shared-root fixture, got $rc" >&2; exit 1
fi

echo "== lock synthesis: certifier exit contract and the rw/coalesced sweep"
# Shipped examples certify clean under the synthesized placement…
target/release/curare check --locks examples/lisp/*.lisp > /dev/null
# …the undercovered fixture is a C007 error (exit 2)…
rc=0; target/release/curare check --locks \
  examples/lisp/fixtures/undercovered-locks.lisp > /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 on the undercovered-locks fixture, got $rc" >&2; exit 1
fi
# …and the redundant all-pairs fixture is C008 warnings only (exit 1).
rc=0; target/release/curare check --locks \
  examples/lisp/fixtures/redundant-locks.lisp > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 on the redundant-locks fixture, got $rc" >&2; exit 1
fi
LOCKS_DIR="$(mktemp -d)"
(cd "$LOCKS_DIR" && "$REPO_DIR/target/release/experiments" locksynth --json > /dev/null)
target/release/experiments validate "$LOCKS_DIR/BENCH_locks.json" \
  schema bench host_threads servers runs
rm -rf "$LOCKS_DIR"

echo "== sanitizer smoke: cross-check oracle over the experiment programs"
# The sanitizer's tests ran with the workspace tests above.
target/release/experiments sanitize > /dev/null

echo "== chaos harness: lints, tests, differential smoke, sanitize cross-check"
cargo clippy -p curare-runtime --features chaos --all-targets -- -D warnings
cargo clippy -p curare-bench --features chaos --all-targets -- -D warnings
cargo test -q -p curare-runtime --features chaos
cargo build --release -p curare-bench --features chaos
CHAOS_DIR="$(mktemp -d)"
(cd "$CHAOS_DIR" && "$REPO_DIR/target/release/experiments" chaos --seeds 4 --json > /dev/null)
target/release/experiments validate "$CHAOS_DIR/BENCH_chaos.json" \
  schema bench host_threads seeds profile runs degrade_demo
rm -rf "$CHAOS_DIR"
target/release/experiments sanitize --chaos-seed 7 > /dev/null

echo "== speculation: property battery, example contract, sweep gate"
cargo clippy -p curare-runtime --features heavy-tests --all-targets -- -D warnings
cargo test -q -p curare-runtime --features heavy-tests --test speculation_properties
# The ⊤-write fixture is refused by the static transformer…
# (plain grep, not -q: early grep exit would SIGPIPE curare under pipefail)
target/release/curare run examples/lisp/fixtures/scrub.lisp --servers 4 \
  --call "(scrub *data*)" 2>&1 | grep "scrub: converted = false" > /dev/null
# …but admitted under --speculate, committing without escalation.
target/release/curare run examples/lisp/fixtures/scrub.lisp --servers 4 \
  --speculate --call "(scrub *data*)" 2>&1 | grep "escalated: false" > /dev/null
# Sweep: sequential-oracle match under both schedulers, the ⊤-write
# demo must commit clean in parallel, and the chaos shuffle+speculate
# seeds must all match (the subcommand fails itself on any miss).
# Running sanitize first exercises the BENCH_sanitize.json linkage.
SPEC_DIR="$(mktemp -d)"
(cd "$SPEC_DIR" \
  && "$REPO_DIR/target/release/experiments" sanitize --json > /dev/null \
  && CURARE_SPEC_SEEDS=4 "$REPO_DIR/target/release/experiments" speculate \
    --json > /dev/null)
target/release/experiments validate "$SPEC_DIR/BENCH_sanitize.json" \
  schema file diagnostics precision
target/release/experiments validate "$SPEC_DIR/BENCH_spec.json" \
  schema bench host_threads programs timing chaos sanitizer
rm -rf "$SPEC_DIR"

echo "== speculation correctness: perfbench speculate answers every job right"
# perfbench exits 0 on wrong answers, so read the result line (the last
# line of standard output) and require \"failed\": 0.
SPEC_RESULT="$(python3 perfbench/run.py --workload speculate --seed 1 --seconds 10 \
  --trace 0 | tail -n 1)"
SPEC_FAILED="$(printf '%s' "$SPEC_RESULT" | python3 -c \
  'import json, sys; print(json.load(sys.stdin)["failed"])')"
if [ "$SPEC_FAILED" != "0" ]; then
  echo "perfbench speculate: $SPEC_FAILED failed job(s)" >&2; exit 1
fi

echo "== perfbench self-tests"
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== lock rescue correctness: perfbench walk-locked answers every job right"
# The read-window walker goes through delay and lock rescue; every job
# must still return the sequential answer.
LOCKED_RESULT="$(python3 perfbench/run.py --workload walk-locked --seed 1 --seconds 5 \
  --trace 0 | tail -n 1)"
LOCKED_FAILED="$(printf '%s' "$LOCKED_RESULT" | python3 -c \
  'import json, sys; print(json.load(sys.stdin)["failed"])')"
if [ "$LOCKED_FAILED" != "0" ]; then
  echo "perfbench walk-locked: $LOCKED_FAILED failed job(s)" >&2; exit 1
fi

echo "== causal profiler: lints, per-opcode tests, work/span smoke gate"
cargo clippy -p curare-lisp --features profile-ops --all-targets -- -D warnings
cargo clippy -p curare-bench --features profile-ops --all-targets -- -D warnings
cargo test -q -p curare-lisp --features profile-ops
cargo build --release -p curare-bench --features profile-ops
PROFILE_DIR="$(mktemp -d)"
# The subcommand itself fails the run if span > work or parallelism < 1
# in any cell (the DAG-reconstruction invariants).
(cd "$PROFILE_DIR" && "$REPO_DIR/target/release/experiments" profile --json > /dev/null)
target/release/experiments validate "$PROFILE_DIR/BENCH_profile.json" \
  schema bench host_threads servers runs
rm -rf "$PROFILE_DIR"

# Rebuild without the features so later steps use the plain binary.
cargo build --release -p curare-bench

echo "== work stealing: skew-sweep smoke gate (model ratios + threaded oracles)"
# The subcommand itself fails the run on any oracle mismatch, a
# <1.5x model speedup on either skewed distribution, or a >5%
# uniform-load regression.
STEAL_DIR="$(mktemp -d)"
(cd "$STEAL_DIR" && "$REPO_DIR/target/release/experiments" steal \
  --n 800 --sites 8 --json > /dev/null)
target/release/experiments validate "$STEAL_DIR/BENCH_steal.json" \
  schema bench host_threads servers runs
rm -rf "$STEAL_DIR"

echo "CI OK"
