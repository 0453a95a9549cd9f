#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo test --doc -q
cargo clippy --all-targets -- -D warnings

# Documentation gate: every public item documented (missing_docs is
# warn at the crate level, promoted to an error here) and no broken
# intra-doc links anywhere in the workspace.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Fault-injection matrix, as an explicit leg so a fault-path
# regression fails loudly on its own: panic isolation, deterministic
# injection, breakdown detection, checkpoint/restart. The dev profile
# keeps debug assertions (buffer disjointness, poison bookkeeping)
# armed on these paths; the release leg re-runs the same matrix under
# optimized codegen.
cargo test -q -p kdr-core --test fault_tolerance
cargo test -q -p kdr-runtime -- fault poison panic
cargo test -q --release -p kdr-core --test fault_tolerance

# Vector-kernel property tests (kdr-sparse::vecops), both profiles:
# dev keeps the debug assertions armed, --release is the vectorised
# code the solvers execute — elementwise kernels bitwise equal to
# their per-element expressions, `dot` bitwise equal to the
# documented eight-lane order, for f32 and f64.
cargo test -q -p kdr-sparse --test vecops_prop
cargo test -q --release -p kdr-sparse --test vecops_prop

# Kernel-dispatch benchmark (kernel x structure grid vs. the
# forced-CSR baseline, plus the matrix-free stencil legs); asserts
# bitwise agreement between every specialized kernel and the CSR
# lowering. Under `--ci` its JSON goes to the git-ignored
# results/ci/BENCH_spmv.json — only a deliberate run without the flag
# rewrites the tracked BENCH_spmv.json. `--ci` arms the regression
# gates: auto-selection within 1% of forced CSR on random_scatter,
# matrix-free >= 1.5x assembled-auto on the large 3D grid, zero
# stored operator value bytes for stencil-described registration, a
# matrix-free CG residual history bitwise identical to assembled, and
# the catalogue-advised arm (a cost-catalogue snapshot fed the
# measured per-kernel latencies) never slower than the structure
# heuristic beyond noise (<= 1.05x) on any workload.
cargo run --release -p kdr-bench --bin spmv_kernels -- --ci

# Multi-tenant service leg (dev profile): 16 tenants over one shared
# runtime with the seeded scheduler, asserting zero lost and zero
# duplicated responses, fairness (max/min completed-iteration ratio
# <= 2.0 at equal weights), warm-beats-cold time-to-first-iteration,
# and a bit-identical completion order on a same-seed rerun.
cargo run -p kdr-bench --bin service_stress -- --ci

# Sharded-service leg (dev profile): 16 tenants across 4 shard
# runtimes behind one front door, fixed-budget jobs, asserting zero
# lost and zero duplicated jobs, exact iteration budgets, per-shard
# fairness <= 1.05 over a continuously-runnable window, and a
# bit-identical fleet-wide response fingerprint on a same-seed rerun.
cargo run -p kdr-bench --bin service_stress -- --ci-sharded

# Service chaos leg: the sharded fleet under seeded per-shard fault
# plans (injected task panics, watchdog stalls, silent NaN write
# corruption) plus one forced shard kill mid-solve. Asserts the
# supervisor's recovery contracts — zero lost and zero duplicated
# jobs, bounded retry, and delivered (iterations, residual-history)
# pairs bitwise identical to the fault-free oracle run. The dev leg
# keeps debug assertions armed on the evacuation/resubmission paths;
# the release leg re-runs the same matrix under optimized codegen.
cargo run -p kdr-bench --bin service_stress -- --ci-chaos
cargo run --release -p kdr-bench --bin service_stress -- --ci-chaos

# Warm-restart (store) leg: a cold fleet with a fresh cost catalogue
# runs one batch, persists its durable state (`save_store`), and a
# second fleet reopens the file (`open_store`) and runs the next
# batch. Asserts every restored session's first job starts warm,
# store-warm time-to-first-iteration beats cold by >= 2x (the
# persisted plans + pinned kernels skip the lowering/analysis
# prologue), and the reopened fleet's residual histories are bitwise
# identical to the uninterrupted oracle's — the store round-trip may
# cost time, never bits. Corrupt/truncated store files are covered by
# `kdr-store` property tests and `kdr-service` integration tests in
# the `cargo test` leg above.
cargo run -p kdr-bench --bin service_stress -- --ci-store

# Fence-minimal Krylov leg: asserts classic CG spends exactly 2
# reduction stages per iteration, the fused/pipelined variants
# exactly 1, and that every fence-minimal variant converges to the
# classic-CG solution. Structural contracts only — no timing
# assertions in CI.
cargo run --release -p kdr-bench --bin pipelined_bench -- --ci

# Compiled-trace count leg: twelve CG solves of lap2d 96^2 in 16
# pieces on one planner. Asserts zero analyzed steps (the workspace
# pool hands every rebuilt solver the same buffers, so its steps keep
# replaying) and at most 55 scheduled tasks per warm iteration (the
# step's 101 task bodies fused into 53 nodes, plus one task forcing
# the convergence measure and the breakdown guard together). Exact
# counts only, no timings, so the leg is deterministic.
cargo run --release -p kdr-bench --bin observability -- --ci-counts

# The benchmark harness is a package of its own that this workspace's
# build and tests never compile: keep it building, and its unit tests
# passing, against the crates' public API.
cargo test --offline --manifest-path perf_ledger/Cargo.toml
