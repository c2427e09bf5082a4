#!/usr/bin/env bash
# Full local verification gate: format, lints, release build, tier-1 tests.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy rules fire by name on a known-bad crate, and not in its tests"
# DESIGN.md §12's panic, hash-order, wall-clock and reason rules live in
# the manifests, clippy.toml and the data-plane crate roots. The fixture is
# a workspace of its own with a data-plane crate root; its lint levels must
# equal the root manifest's, and clippy finds the root clippy.toml from it.
levels='^[a-z_]+ = "(allow|warn|deny|forbid)"$'
diff <(grep -E "$levels" Cargo.toml) <(grep -E "$levels" scripts/clippy-fixture/Cargo.toml)
fixture_out=target/clippy-fixture.json
if CARGO_TARGET_DIR=target/clippy-fixture cargo clippy -q --offline --locked \
  --manifest-path scripts/clippy-fixture/Cargo.toml --all-targets \
  --message-format=json >"$fixture_out" 2>/dev/null; then
  echo "clippy accepted the known-bad fixture"
  exit 1
fi
require() {
  grep -Eq "$1" "$fixture_out" || { echo "clippy fixture: no diagnostic matches $1"; exit 1; }
}
for lint in clippy::unwrap_used clippy::expect_used clippy::panic clippy::unreachable \
  clippy::todo clippy::unimplemented clippy::disallowed_types clippy::disallowed_methods \
  clippy::allow_attributes_without_reason unfulfilled_lint_expectations; do
  require "\"code\":\\{\"code\":\"$lint\""
done
# alias.rs names no hash type: only a resolved path can flag it.
require 'disallowed type `std::collections::HashMap`\\n --> src/alias.rs'
require 'disallowed method `std::time::Instant::now`'
require 'disallowed method `std::time::SystemTime::now`'
require '`expect` attribute without specifying a reason'
if grep -q '"file_name":"src/tests.rs"' "$fixture_out"; then
  echo "clippy fixture: a test-exempt use in src/tests.rs was reported"
  exit 1
fi

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Broken, ambiguous or redundant intra-doc links fail here, so an item
# that is deleted or made private cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> observability + chaos e2e suites"
cargo test --test telemetry_e2e --test tracing_e2e --test chaos_e2e -q

echo "==> ops plane: e2e + time-series property suites"
cargo test --test ops_e2e --test ops_timeseries -q

echo "==> merge laws + parser fuzz-lite"
cargo test --test merge_laws --test flowql_fuzz -q

echo "==> parallel equivalence oracle (run twice: results must not flake)"
cargo test --test parallel_e2e -q
cargo test --test parallel_e2e -q

echo "==> accounting plane: profiler/cost e2e + accounting property suites"
cargo test --test profile_e2e --test accounting_props -q

echo "==> arena vs pointer-oracle differential harness"
cargo test --test arena_differential -q

echo "==> FlowQL plan oracle + deterministic work-counter gate"
# cover_oracle: every region summary counts once (exact packet mass per
# FROM window, with and without an outage that parks and late-flushes).
# work_counters: state/cold bytes, query costs, fsyncs, export and trigger
# counts against tests/golden/work_counters.txt.
cargo test --test cover_oracle --test work_counters -q

echo "==> perfbench determinism: each workload shape replayed twice per seed"
# perfbench's own test runs scaled-down ingest, query and live shapes
# twice per seed under Threads(2) and requires identical counts and
# answers, so an answer that depends on which thread finished first
# fails here. Its own target directory keeps it off the workspace build.
CARGO_TARGET_DIR=target/perfbench cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> E2 + E3 + E11 + E13 + E14 + E17 + E18 + E19 smoke: operator, export-path, overhead-matrix, durability, query-plan fan-out, arena and trigger-window benches run end-to-end"
# `-- --test` runs each Criterion routine once, untimed, after the
# experiment table; this proves the operator and arena/oracle benches
# still build and execute end-to-end. E3 drives the export path through a
# bare StoreHierarchy and E13 through Flowstream under outages; E11 runs
# one round of every telemetry arm; E14 runs the canonical query set over
# FlowDB's plan and fan-out at every worker count; E17 journals through
# the cold tier under every sync policy (the only bench over it); E19
# feeds a flow-score trigger 1x, 4x and 16x the attack rate.
cargo bench -q -p megastream-bench --bench e2_flowtree_ops -- --test >/dev/null
cargo bench -q -p megastream-bench --bench e11_overhead_matrix -- --test >/dev/null
cargo bench -q -p megastream-bench --bench e3_hierarchy -- --test >/dev/null
cargo bench -q -p megastream-bench --bench e13_fault_tolerance -- --test >/dev/null
cargo bench -q -p megastream-bench --bench e14_parallel_scaling -- --test >/dev/null
cargo bench -q -p megastream-bench --bench e17_durability_overhead -- --test >/dev/null
cargo bench -q -p megastream-bench --bench e18_arena_merge -- --test >/dev/null
cargo bench -q -p megastream-bench --bench e19_trigger_window -- --test >/dev/null

echo "==> durability: kill-and-restart recovery e2e"
cargo test --test durability_e2e -q

echo "==> durability: codec roundtrip properties + corruption fuzz + fsck CLI + format-version refusals"
cargo test -p megastream-storage --test roundtrip_props --test corruption_fuzz --test fsck_cli --test format_version -q

echo "==> mega-fsck verifies a quickstart-produced store (exit 0)"
cargo run -q --release --example quickstart -- --durable target/quickstart-store >/dev/null
cargo run -q --release -p megastream-storage --bin mega-fsck -- target/quickstart-store >/dev/null

echo "==> collapsed-stack export (quickstart --profile)"
cargo run -q --release --example quickstart -- --profile >/dev/null
test -s target/quickstart.collapsed
# Every line must be `path count` with a positive integer count and no
# empty `;`-separated frames — the format flamegraph.pl consumes.
awk '
  {
    if (NF < 2 || $NF !~ /^[0-9]+$/ || $NF == "0") { print "bad line: " $0; exit 1 }
    path = $0; sub(/ [0-9]+$/, "", path)
    if (path == "" || path ~ /^;/ || path ~ /;;/ || path ~ /;$/) { print "bad path: " $0; exit 1 }
  }
' target/quickstart.collapsed

echo "==> megalint (lock order, metric names, unsafe and #[ignore] bans)"
# The rules clippy cannot express: the workspace-wide lock acquisition
# graph, metric names against DESIGN.md's registry table, and token-accurate
# `unsafe` / `#[ignore]` bans that also cover perfbench/. Any finding fails.
cargo run -q --release -p megastream-analyzer -- --root .

echo "All checks passed."
