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
# The scheduler under the codegen solves run on: its unit tests, the
# lost-wake-up and span-log tests (`tests/scheduler.rs`), and the
# `stress` / `fusion` fuzzers at 1-8 workers. This also covers the
# release-only bound check of a declared subset (`task::` tests; debug
# builds assert every access as well).
cargo test -q --release -p kdr-runtime
# The same three suites pinned to one CPU — the configuration the perf
# ledger measures. A thread that waits on the runtime runs ready nodes
# and parks only when there are none (DESIGN §6); with a second core a
# lost wake-up there is papered over by whoever runs next, on one CPU
# it hangs (and the suites' progress watchdogs say where).
# The hand-off counts too (`kdr-core/tests/handoff.rs`): on one CPU a
# wake preempts the thread that made it, so a step, preamble or first
# run handed to the worker shows in the count there: before first
# runs were programs, the cold operation made 161 blocking switches
# this way, against 10–31 in the unpinned and dev-profile runs.
if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 cargo test -q --release -p kdr-runtime --test scheduler --test fusion --test stress
    taskset -c 0 cargo test -q --release -p kdr-core --test handoff
    # One worker on one CPU is where a component is one lane: every
    # solver's bits against the reference backend, and the bodies of a
    # replayed step (DESIGN §6, "One body per operation per worker lane").
    taskset -c 0 cargo test -q --release -p kdr-core --test lanes
else
    echo "ci.sh: taskset not found, skipping the one-CPU scheduler leg"
fi
# Wake-ups follow the unlock (DESIGN §6): a locked section works out
# what it owes parked threads and its caller notifies once the guard has
# dropped, so a woken thread does not find the scheduler lock taken.
# Only `ExecShared::wake` may notify, and every call of it must come
# right after a `drop` or under a comment that starts "Under the lock:"
# and says why.
exec_rs=crates/kdr-runtime/src/executor.rs
if sed '/^    fn wake(/,/^    }$/d' "$exec_rs" | grep -nE 'notify_(one|all)'; then
    echo "ci.sh: executor.rs notifies outside ExecShared::wake (see above)" >&2
    exit 1
fi
if ! awk '/^ *\/\// { note = note $0; next }
          /\.wake\(/ && prev !~ /drop\(/ && note !~ /Under the lock:/ { print FILENAME ":" FNR ": " $0; bad = 1 }
          NF { prev = $0; note = "" } END { exit bad }' "$exec_rs"; then
    echo "ci.sh: executor.rs makes a wake-up with the lock held, unmarked (see above)" >&2
    exit 1
fi
# Retirement adds each body into the per-name table (`NameTallies`,
# found by address) under the scheduler lock; only `Executor::tallies`
# folds it into the name-keyed map. No per-body map lookup again.
if sed '/^    pub fn tallies(/,/^    }$/d' "$exec_rs" | grep -nE 'task_counts\.entry\('; then
    echo "ci.sh: executor.rs indexes a name-keyed tally map outside Executor::tallies (see above)" >&2
    exit 1
fi

# A body is stamped for the event log and for nothing else (DESIGN §8).
# The cost catalogue reads the wall time of the service's scheduler
# slices (DESIGN §14), so the runtime's per-kernel timing — its switch,
# the task mark, the per-name nanosecond column — and the service code
# that read it went; none of it may come back. In the executor a body
# is stamped only in `NodeRun::body`, under `self.logging` alone; every
# other stamp is a per-node or per-submission one, taken only while
# logging.
if grep -rnE 'enable_kernel_timing|set_kernel_timing|kernel_timing|task_execute_ns|TaskMeta::timed|\.timed\(\)|from_task_name|observe_kernel_costs|predict_task_seconds' crates; then
    echo "ci.sh: crates/ names the deleted per-kernel timing again (see above)" >&2
    exit 1
fi
node_run=$(sed -n '/^impl NodeRun/,/^}$/p' "$exec_rs")
if [ "$(printf '%s\n' "$node_run" | grep -c 'stamp(self\.logging)' || true)" = 0 ] ||
    printf '%s\n' "$node_run" | grep -n 'stamp(' | grep -v 'stamp(self\.logging)' ||
    sed '/^impl NodeRun/,/^}$/d' "$exec_rs" | grep -nE 'stamp\(' | grep -vE 'fn stamp\(|stamp\(logging\)'; then
    echo "ci.sh: executor.rs stamps a body outside NodeRun::body or under another condition than self.logging" >&2
    exit 1
fi

# The span rings under a waiting driver: `ring_overflow_drops_instead_
# of_blocking` bounds what three rings retain (two workers and the
# driver lane, which a thread waiting in `take_spans` records into).
# It failed 13 runs in 1 000 while its bound counted two rings, so one
# pass says little: run the dev binary 200 times (about two seconds).
ring_bin=$(cargo test -p kdr-integration --test observability --no-run --message-format=json 2>/dev/null |
    sed -n 's/.*"executable":"\([^"]*\/observability-[^"]*\)".*/\1/p' | tail -1)
for _ in $(seq 200); do
    "$ring_bin" -q --exact ring_overflow_drops_instead_of_blocking >/dev/null
done

# One constant-band kernel: a matrix-free tile is a `DiaTile` built
# from geometry (DESIGN §7b). The sweeps `StencilTile` once had beside
# it must not come back.
if grep -rnE 'fn (apply_run|interior_fwd|interior_t|boundary_rows)\b' crates/kdr-sparse/src; then
    echo "ci.sh: kdr-sparse has a second stencil kernel again (see above)" >&2
    exit 1
fi

# A box-stencil band is decided once, where every band is built (DESIGN
# §7, "A box-stencil band"): one definition of the test, called from
# `BandBuilder::finish` and from nowhere else, so the assembled and the
# matrix-free band of the same rows cannot disagree about the path.
tile_rs=crates/kdr-sparse/src/tile.rs
finish=$(sed -n '/^    pub(crate) fn finish(self) -> DiaTile<T> {/,/^    }$/p' "$tile_rs")
if [ "$(grep -rE 'fn box_stencil_of\b' crates | wc -l)" != 1 ] ||
    [ "$(grep -rE 'box_stencil_of\(' crates | grep -v 'fn box_stencil_of' | wc -l)" != 1 ] ||
    [ "$(printf '%s\n' "$finish" | grep -c 'box_stencil_of(')" != 1 ]; then
    grep -rn 'box_stencil_of' crates >&2
    echo "ci.sh: the box-stencil test is defined or called outside BandBuilder::finish (see above)" >&2
    exit 1
fi

# A band's forward plan is derived once, where the box stencil is
# decided (DESIGN §7, "A pass"): one definition of `forward_plan`,
# called from `BandBuilder::finish` and from nowhere else, so the
# assembled and the matrix-free band of the same rows run the same
# passes.
if [ "$(grep -rE 'fn forward_plan\b' crates | wc -l)" != 1 ] ||
    [ "$(grep -rE 'forward_plan\(' crates | grep -v 'fn forward_plan' | wc -l)" != 1 ] ||
    [ "$(printf '%s\n' "$finish" | grep -c 'forward_plan(')" != 1 ]; then
    grep -rn 'forward_plan' crates >&2
    echo "ci.sh: the forward plan is derived or called outside BandBuilder::finish (see above)" >&2
    exit 1
fi

# A box-stencil band runs one kernel (DESIGN §7, "A box-stencil band"):
# the plane sweep of `apply_box`, one definition. The line-by-line form
# it replaced (nine line sums per line, a chunk buffer) stays deleted,
# not kept beside it.
if grep -rnE '\b(add_nine_lines|add_lines|BOX_LINE_CHUNK)\b|fn accumulate\b' crates/kdr-sparse/src; then
    echo "ci.sh: the line-wise box-stencil helpers are back (see above)" >&2
    exit 1
fi
if [ "$(grep -rE 'fn apply_box\b' crates | wc -l)" != 1 ]; then
    grep -rn 'fn apply_box' crates >&2
    echo "ci.sh: apply_box has more than one definition, or none (see above)" >&2
    exit 1
fi

# A tile kernel reads its vectors one way (DESIGN §7, "A pass"): every
# `VecIn` / `VecOut` lends a slice, so no kernel keeps an element-by-
# element fallback for a view that lends none, no test adapter lends
# none, and a matrix-free tile has no `apply` of its own beside
# `TileKernel::apply`.
if grep -nF -e 'Option<&[T]>' -e 'Option<&mut [T]>' "$tile_rs" ||
    grep -rn 'struct Elementwise' crates/kdr-sparse/tests ||
    grep -n 'pub fn apply' crates/kdr-sparse/src/matfree.rs; then
    echo "ci.sh: a tile kernel's element-by-element vector path is back (see above)" >&2
    exit 1
fi

# `is_subset_of` is a search over the side with fewer runs (DESIGN §6):
# it builds no set. It must not go back to testing a built
# `difference` for emptiness, which cost the analyzer a `Vec` per
# frontier entry per writer.
if sed -n '/fn is_subset_of/,/^    }$/p' crates/kdr-index/src/interval.rs | grep -n 'difference'; then
    echo "ci.sh: IntervalSet::is_subset_of builds a difference again (see above)" >&2
    exit 1
fi

# A session is priced by the tiles it lowered (DESIGN §14): one
# function in kdr-service makes every catalogue key, from the exec
# backend's operator manifest. The service must not analyze an operator
# itself again, nor derive a key anywhere else.
if grep -rnE 'TileStructure|StructureKey::for_stencil' crates/kdr-service/src; then
    echo "ci.sh: kdr-service analyzes an operator itself again (see above)" >&2
    exit 1
fi
if [ "$(grep -ro 'CatalogueKey::new' crates/kdr-service/src | wc -l)" -gt 1 ]; then
    grep -rn 'CatalogueKey::new' crates/kdr-service/src >&2
    echo "ci.sh: kdr-service makes catalogue keys in more than one place (see above)" >&2
    exit 1
fi

# One setting, one path (DESIGN §12): the service and solver options
# no workload set went with the code they selected. A new tenant goes
# to its hash-ring shard, a quarantined shard's tenants to their ring
# successors, nothing rebalances on its own, a slice boundary fences
# exactly when spans are captured, a tenant strides at its registered
# weight, and s-step CG takes `s` from its constructor alone. None of
# those settings may come back.
if grep -rnwE 'LoadAware|EvacuationPolicy|rebalance_factor|fence_slices|cost_weights|SessionTuning|set_s_step' crates; then
    echo "ci.sh: crates/ names a deleted service or solver option again (see above)" >&2
    exit 1
fi

# One placement rule (DESIGN §6): `ReadyQueues::push` in the executor
# queues colour c on worker c mod W and deals colourless nodes in turn.
# The pluggable mappers, the per-colour remap table and the live
# rebalancer that drove it went; none of them may come back.
if grep -rnwE 'Mapper|ColorAffinityMapper|RoundRobinMapper|remap_color|Rebalancer|with_mapper|tile_placements|affinity_mapper' crates; then
    echo "ci.sh: crates/ names a deleted mapper or rebalancer again (see above)" >&2
    exit 1
fi

# A tile's kernel is chosen from the tile alone (DESIGN §7): under
# `KernelChoice::Auto`, `TileStructure::select` picks it, and
# `KernelChoice::Force` is the one override. The catalogue's kernel
# advice and the store's kernel pin went; neither may come back.
if grep -rnwE 'KernelAdvisor|CatalogueSnapshot|set_kernel_advisor|lower_advised|with_tuning|forced_kernel|kernel_code_for|ADVISE_MIN_SAMPLES' crates; then
    echo "ci.sh: crates/ names the deleted kernel advisor or kernel pin again (see above)" >&2
    exit 1
fi

# One ready lane and one fusion key (DESIGN §6): a task's colour is all
# the scheduler reads of it, both where `ReadyQueues::push` queues a
# node and what `StepGraph::compile` fuses it by (`c % W`). Task
# priority and the express lane it drove went; neither may come back.
if grep -rnE 'with_priority|set_task_priority|fn priority\(|meta\.priority|[Ee]xpress[ _-]?lanes?' crates; then
    echo "ci.sh: crates/ names the deleted task priority or express lane again (see above)" >&2
    exit 1
fi

# An index space is its size (DESIGN §2): a format's structure lives
# in its relations, so the grid geometry nothing read went — points,
# rects, (de)linearization, `Shape`, the grid constructors — and with
# it every public function only its own unit test called. The
# catalogue's hit/miss counts live in `TenantMetrics` alone, and
# nothing turns tracing off (`fn set_tracing`, and `set_step_tracing`
# below): every execution-backend step is a step program. None of them
# may come back.
if grep -rnwE 'Point2|Point3|Rect1|Rect2|Rect3|linearize2|linearize3|delinearize2|delinearize3|IdentityRelation|square_closure|grid3_slabs|from_color_fn|block_shape|from_row_major|overflow_len|index_launch|jacobi_components|note_catalogue_prediction' crates ||
    grep -rnE 'IndexSpace::grid[123]|\bShape::|kdr_index::Shape\b|fn (grid[123]|set_tracing|try_get|is_ready|is_poisoned|copy_range|num_requirements|unpartitioned|fractions|into_graph|confidence|shape)\b' crates; then
    echo "ci.sh: crates/ names deleted index geometry or a deleted one-test item again (see above)" >&2
    exit 1
fi
# A deadline estimate saturates instead of panicking (DESIGN §14): the
# service converts seconds to a `Duration` only through the queue's
# saturating conversion.
if grep -rn 'Duration::from_secs_f64' crates/kdr-service/src; then
    echo "ci.sh: kdr-service converts an estimate with Duration::from_secs_f64 again (see above)" >&2
    exit 1
fi
# One step engine, and a runtime API sized to its callers (DESIGN §6):
# `Runtime::replay` is an adapter that schedules a task list as a
# one-run step program, so the executor has one body source for a
# replayed step. The scalar futures, the latency histograms, the
# analysis clock and the exports and counters nothing read went; none
# of them may come back.
if grep -rnE 'promise\(|\bPromise\b|PromiseDropped|kdr_runtime::Future|AtomicHistogram|HistogramSnapshot|HISTOGRAM_BUCKETS|replay_fraction|analysis_ns|chrome_trace_json_grouped|StepBodies|num_edges|Work::Once' crates tests; then
    echo "ci.sh: crates/ or tests/ names a deleted runtime item again (see above)" >&2
    exit 1
fi
# One solve loop (DESIGN §9): `StepDriver::step` is the whole driver,
# so there is no status to hand back and no preflight / finish call to
# make by hand; the two health knobs nothing set, `ScalarHandle::get_many`
# (solvers force scalars through `Planner::step_end`) and the resumed
# twin of `Session::begin_solve` are gone. None may come back.
if grep -rnE 'StepStatus|StepDriver::(preflight|finish)|\bpreflight|stagnation_window|divergence_factor|BreakdownKind::Stagnation|ScalarHandle::get_many|\bget_many\b|begin_solve_resumed' crates tests; then
    echo "ci.sh: crates/ or tests/ names a deleted solve-loop item again (see above)" >&2
    exit 1
fi
# The step's bodies go to the executor as the program's one
# `Arc<[ProgramBody]>`, with whether the submitter waits for the step
# next (a waiting submitter takes one ready node itself) and whether
# the run is a program's first (its spans say `Analyzed`) or a replay.
submit_graph=$(sed -n '/pub fn submit_graph(/,/) {$/p' "$exec_rs" | tr -d ' \n')
if [ "$submit_graph" != 'pubfnsubmit_graph(&self,base:TaskId,trace:&Trace,bodies:Arc<[ProgramBody]>,waits:bool,provenance:Provenance,){' ]; then
    echo "ci.sh: Executor::submit_graph no longer takes the step's bodies as Arc<[ProgramBody]>, whether its submitter waits and the run's provenance" >&2
    exit 1
fi
# One step end and one program run (DESIGN §6, "One node per step, run
# by the thread that waits"): `step_end` takes the scalars to force with
# the step and `run_program` the buffers its caller reads next, so
# neither grows a sibling entry point.
if grep -rnE 'fn (step_end|run_program)_' crates; then
    echo "ci.sh: crates/ has a second step end or program run (see above)" >&2
    exit 1
fi
# One home rule (DESIGN §6): `StepGraph::compile` fuses a task into the
# open node of its home worker, and `trace.rs::home_worker` alone says
# what a home is — colour c on worker c mod W, and a colourless task on
# worker 0 when there is one worker. `compile` reads no colour itself.
trace_rs=crates/kdr-runtime/src/trace.rs
compile=$(sed -n '/^    pub(crate) fn compile(deps: &\[Vec<usize>\]/,/^    }$/p' "$trace_rs" | grep -v '^ *//')
trace_src=$(sed '/^#\[cfg(test)\]/,$d' "$trace_rs" | grep -v '^ *//')
if [ "$(printf '%s\n' "$compile" | grep -c 'home_worker(')" != 1 ] ||
    printf '%s\n' "$compile" | grep -nE '\.color|% *workers' ||
    [ "$(printf '%s\n' "$trace_src" | grep -c 'fn home_worker(')" != 1 ] ||
    [ "$(printf '%s\n' "$trace_src" | grep -c '% workers')" != 1 ]; then
    echo "ci.sh: trace.rs's StepGraph::compile no longer has exactly one home rule (home_worker)" >&2
    exit 1
fi

# The scheduler fuzzer on fragmented footprints (gappy subsets of up to
# eight runs): analysed, captured-then-replayed and step-program runs
# against the sequential oracle, 20 times with fresh inputs. A failing
# seed is printed; `PROPTEST_RNG_SEED=<seed>` repeats it.
for _ in $(seq 20); do
    seed=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
    PROPTEST_RNG_SEED=$seed cargo test -q --release -p kdr-runtime --test fusion ||
        { echo "ci.sh: fusion failed with PROPTEST_RNG_SEED=$seed" >&2; exit 1; }
done

# Vector-kernel property tests (kdr-sparse::vecops), both profiles:
# dev keeps the debug assertions armed, --release is the vectorised
# code the solvers execute — elementwise kernels bitwise equal to
# their per-element expressions, `dot` bitwise equal to the
# documented eight-lane order, for f32 and f64.
cargo test -q -p kdr-sparse --test vecops_prop
cargo test -q --release -p kdr-sparse --test vecops_prop
# Tile lowering and the formats' descriptions, under the optimized
# codegen solves execute (the dev run is part of `cargo test` above):
# every kernel kind bitwise equal to the CSR order — the CSR payload
# itself stores its rows by length and runs the transpose through its
# row-order index — every format's enumeration and relations against a
# dense reference.
cargo test -q --release -p kdr-sparse --test kernel_prop --test prop
# The kernel properties 10 times more with fresh inputs (rows of many
# lengths, ties and repeats among them, and counts around the group
# width of eight are where the by-length payload could reorder a
# chain). A failing seed is printed;
# `PROPTEST_RNG_SEED=<seed>` repeats it.
for _ in $(seq 10); do
    seed=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
    PROPTEST_RNG_SEED=$seed cargo test -q --release -p kdr-sparse --test kernel_prop ||
        { echo "ci.sh: kernel_prop failed with PROPTEST_RNG_SEED=$seed" >&2; exit 1; }
done
# The same contract one level up, under the same codegen: the banded
# kernel's block loop is vector code only in --release, so assembled ≡
# matrix-free ≡ forced-CSR — per apply and over whole residual
# histories, bit for bit — is checked there too (dev is `cargo test`).
cargo test -q --release -p kdr-core --test matfree --test solvers
cargo test -q --release -p kdr-integration --test end_to_end
# Registration under the same codegen: the relation and offset bitmaps
# and the block scan are the optimized code `add_operator` executes.
# `FnRelation` against the point-wise defaults, and the per-tile
# registration result (footprints, kinds, keys, payload hashes) held
# to the constants captured before it was made linear-time. The same
# `prop` run holds the predicates dependence analysis calls per
# frontier entry — `is_disjoint` and `is_subset_of`, searches since
# PR 25 — to a built intersection / difference and to the point-set
# model, on a few runs against thousands (a scatter tile's footprint).
cargo test -q --release -p kdr-index --test prop
cargo test -q --release -p kdr-core --test registration_pin
# Registration at a read floor (DESIGN §7): each tile is lowered from
# its entries in canonical order — a CSR matrix lends its rows, one
# tile at a time — so `finalize` holds little beyond the payloads at
# its peak (the counting allocator's bounds), there is no triplet
# extraction of every tile, and the one comparison sort of a tile's
# entries is the branch for entries that arrive out of order.
cargo test -q --release -p kdr-core --test registration_memory
if grep -rnwE 'extract_tile_triplets|TileTriplets' crates tests; then
    echo "ci.sh: crates/ or tests/ names the deleted triplet extraction again (see above)" >&2
    exit 1
fi
# Registration reads a CSR matrix where it lies: co-partitioning's
# column relation borrows `colidx` (`Csr::col_relation` builds no
# table), and each tile is lowered from a view of the rows it lends,
# so the per-row hand-off into a copied tile stays deleted.
csr_col=$(sed -n '/^    fn col_relation(&self)/,/^    }$/p' crates/kdr-sparse/src/formats/csr.rs)
if [ -z "$csr_col" ] || printf '%s\n' "$csr_col" | grep -nE 'collect|to_vec|FnRelation::new'; then
    echo "ci.sh: Csr::col_relation copies the column indices again (see above)" >&2
    exit 1
fi
if grep -rnwE 'append_rows|push_row' crates tests; then
    echo "ci.sh: crates/ or tests/ names the deleted row hand-off again (see above)" >&2
    exit 1
fi
# A warm iteration's host path (EXPERIMENTS.md "What a warm
# iteration's host path costs"): a replayed CG or BiCGStab iteration
# allocates nothing, counted by the test's own global allocator. Dev
# builds re-lower each replayed step to check it, so the leg is
# --release only. A scalar handle counts its slot's owners without the
# backend (DESIGN §6, "Record stability"), so the per-handle backend
# calls stay gone.
cargo test -q --release -p kdr-core --test host_path
if grep -rnwE 'scalar_retain|scalar_release' crates tests; then
    echo "ci.sh: crates/ or tests/ names the per-handle backend calls again (see above)" >&2
    exit 1
fi
# One registration route (DESIGN §7b): a stencil operator lowers its
# own tiles (`SparseMatrix::lower_tile`), so the descriptor side
# channel — a `stencil` field on the planner's pending operator and on
# `OpComponentSpec`, and the backend's branch on it — stays deleted.
if grep -rnw 'forced_assembled' crates tests examples ||
    grep -rnE '\b(comp|op)\.stencil\b' crates tests examples ||
    grep -nE '\bstencil:' crates/kdr-core/src/backend.rs crates/kdr-core/src/planner.rs; then
    echo "ci.sh: the stencil descriptor side channel of registration is back (see above)" >&2
    exit 1
fi
entry_sorts=$(sed '/^#\[cfg(test)\]/,$d' "$tile_rs" | grep -cE '\.sort(_unstable)?_by' || true)
branch_sorts=$(sed -n '/^    fn sorted(/,/^    }$/p' "$tile_rs" | grep -cE '\.sort(_unstable)?_by' || true)
if [ "$entry_sorts" != 1 ] || [ "$branch_sorts" != 1 ] ||
    [ "$(grep -c 'CanonicalTile::sorted(' "$tile_rs")" != 1 ]; then
    echo "ci.sh: tile.rs sorts a tile's entries outside the out-of-order branch (CanonicalTile::sorted)" >&2
    exit 1
fi
# One CSR forward product (DESIGN §7, "An irregular tile"): groups of
# eight rows of one length run as eight chains in lockstep, and the
# per-row walk over `row_ptr[r]..row_ptr[r + 1]` must not come back
# beside that loop, in `CsrTile::apply` or as a kernel of its own.
csr_impl=$(sed -n '/^impl<T: Scalar> CsrTile<T> {/,/^}/p' "$tile_rs")
csr_apply=$(printf '%s\n' "$csr_impl" | sed -n '/^    pub fn apply</,/^    }$/p')
csr_fns=$(printf '%s\n' "$csr_impl" | grep -oE '^    (pub )?fn [a-z_]+' | awk '{print $NF}' | tr '\n' ' ')
if [ "$csr_fns" != "apply apply_t " ] ||
    ! printf '%s\n' "$csr_apply" | grep -q 'chunks_exact(CSR_GROUP)' ||
    printf '%s\n' "$csr_apply" | grep -nE 'row_ptr\[[a-z_]+ *\+ *1\]'; then
    echo "ci.sh: CsrTile::apply is not one grouped forward product (see above)" >&2
    exit 1
fi
# Step programs in both profiles: the dev run (part of `cargo test`
# above) carries the signature oracle — every program hit re-lowers
# its record and asserts it still matches the captured step — and
# --release is the path solves run on, where no signature is computed.
# The trace-cache unit tests (a step that retains nothing keeps one
# record, fused dots replay, solver steps compile to nodes) live in
# `exec.rs` and run in both profiles too, as do the lowering rules'
# checks against the reference backend (`tests/lowering.rs`).
cargo test -q --release -p kdr-core --test step_program --test planner_api --test lowering
cargo test -q --release -p kdr-core --lib exec::tests
# A program is looked up by its recorded calls alone, which is sound
# while nothing a call lowers to is replaced under its handle (DESIGN
# §6, the epoch rule). Registering an operator is the one thing that
# replaces: the pooled dot partials are only ever added to, so no other
# code may end an epoch.
epochs=$(grep -c 'self\.new_epoch()' crates/kdr-core/src/exec.rs || true)
registered=$(sed -n '/fn register_operator/,/^    }$/p' crates/kdr-core/src/exec.rs |
    grep -c 'self\.new_epoch()' || true)
if [ "$epochs" != "$registered" ]; then
    grep -n 'self\.new_epoch()' crates/kdr-core/src/exec.rs >&2
    echo "ci.sh: exec.rs ends an epoch outside register_operator (see above)" >&2
    exit 1
fi

# One body per operation per worker lane (DESIGN §6): a vector op and a
# dot's partials — or an `axpy` with the dot after it, one
# `axpy+dot_partial`, or an `axpy` lowered into a later `xpay`, one
# `axpy+xpay` — lower to one task per lane of the vector's lane table
# (`Lane::of`, built at `alloc_vector`), not one per piece. With at
# least as many workers as pieces a lane is one piece, so nothing needs
# a per-piece loop beside it: outside comments, `elementwise`,
# `dot_partial_tasks` and `axpy_xpay_tasks` walk the lanes and name no
# piece list; the partial bodies walk a lane's chains
# (`lane_in_body.chains`). The matches go to /dev/null, not `grep -q`:
# under `set -o pipefail` an early `-q` exit can fail the `sed` feeding
# it.
exec_lowering() {
    sed -n "/^    fn $1[<(]/,/^    }\$/p" crates/kdr-core/src/exec.rs | grep -vE '^ *//'
}
if ! exec_lowering elementwise | grep '\.lanes\b' >/dev/null ||
    ! exec_lowering dot_partial_tasks | grep '\.lanes\b' >/dev/null ||
    ! exec_lowering axpy_xpay_tasks | grep '\.lanes\b' >/dev/null ||
    { exec_lowering elementwise; exec_lowering dot_partial_tasks; exec_lowering axpy_xpay_tasks; } |
    grep -nwE 'pieces|members'; then
    echo "ci.sh: exec.rs lowers a vector op or a dot's partials per piece, not per lane (see above)" >&2
    exit 1
fi
# One eight-lane chain (DESIGN §7a): `vecops::Lanes` is the one place
# the dot's lane `mul_add`s and combine tree are written; `dot`,
# `axpy_dot` and their four-chain forms `dot4` / `axpy_dot4` all go
# through it. Outside test modules and comments, no
# other source file under crates/ accumulates into a lane by `mul_add`
# or combines lanes 0 and 4.
chains=$(find crates -path '*/src/*.rs' ! -name vecops.rs -print0 |
    xargs -0 awk '/^mod tests \{/{nextfile} !/^ *\/\//{print FILENAME ":" FNR ": " $0}' |
    grep -E 'lanes?\b[^;]*mul_add|mul_add\([^)]*lanes?\b|\[0\] *\+ *[a-z_]*\[4\]' || true)
if [ -n "$chains" ]; then
    printf '%s\n' "$chains" >&2
    echo "ci.sh: a dot's eight-lane chain is written outside vecops.rs (see above)" >&2
    exit 1
fi

# One route through the backend (DESIGN §6, "One route"): a step's
# first run is a compiled program like every later run, and the ops
# outside a step are a record too, so nothing on the solver path
# submits task by task. The capture run's node kind, the analysed
# fallback and the record-by-record submission are gone.
if grep -rnE 'Runnable::captured|fn captured\b|fn flush_pending|fn submit_recorded' crates tests; then
    echo "ci.sh: crates/ or tests/ names a deleted step route again (see above)" >&2
    exit 1
fi
# One step analysis (DESIGN §6): a `begin_trace` capture analyses its
# own thread's tasks on a `StepAnalysis` of its own, as
# `compile_program` does, so no thread waits behind another's capture.
# The capture gate, the analyzer reset it needed and the submission
# helper that recorded into it stay gone.
if grep -rnE 'open_capture|capture_cv|capture_owner|lock_past_foreign_capture|submit_analyzed' crates ||
    grep -n 'fn clear' crates/kdr-runtime/src/graph.rs; then
    echo "ci.sh: the runtime's capture gate or Analyzer::clear is back (see above)" >&2
    exit 1
fi

# One solver per Krylov method (DESIGN §4b): CG, BiCGStab and GMRES
# apply the planner's preconditioner, so the separate preconditioned
# types and the guard helper they shared stay gone. A `dot_many`'s
# partials buffer belongs to the program lowered from it (DESIGN §6),
# so the backend-wide partials pool stays gone too. The execution
# backend runs every step as a step program, checked against the
# reference backend (`kdr-core/tests/reference`), so the switch to
# analysed submission, `set_step_tracing`, stays gone as well.
if grep -rnwE 'PcgSolver|PBiCgStabSolver|GmresSolver::preconditioned|bicgstab_guards|dot_partials|pooled_partials|dot_seq|set_step_tracing' crates tests examples; then
    echo "ci.sh: crates/, tests/ or examples/ names a deleted solver type, the partials pool or the tracing switch again (see above)" >&2
    exit 1
fi

# The three service suites that share the one tenant-install path
# (`attach_tenant`: evacuation and crash recovery, migration, warm
# restart), again under optimized codegen — the dev run is part of
# `cargo test` above and keeps debug assertions armed on these paths.
# The chaos test is in the first: seeded per-shard fault plans plus a
# forced shard kill must deliver every job exactly once, bitwise equal
# to the fault-free run.
cargo test -q --release -p kdr-service --test supervision --test sharded --test store

# Modeled scaling: pipelined CG at 256 simulated nodes (>= 1.2x over
# classic) and the sharded front door at 1-16 simulated shard groups
# (>= 2.5x at 4). Deterministic models, no clock; rewrites
# results/modeled_scaling.txt, which must come out with the same bytes.
cargo run --release -p kdr-bench --bin modeled_scaling
git diff --exit-code results/modeled_scaling.txt

# The simulator, pinned byte for byte: every priced graph below is a
# function of the solver's operation stream and the machine model
# alone, so any change to how `SimBackend` prices an operation shows
# up here. Each run takes well under a second in --release.
cargo build --release -q -p kdr-bench -p kdr-examples --bins --examples
pin() {
    local file=$1
    shift
    "$@" | diff - "results/$file" ||
        { echo "ci.sh: \`$*\` no longer prints results/$file" >&2; exit 1; }
}
pin figure8_quick.txt target/release/figure8 --quick
pin figure8_quick_no_overlap.txt target/release/figure8 --quick --no-overlap
pin figure9_quick.txt target/release/figure9 --quick
for s in 1 2 3; do
    pin "benchmark_stencil_sim_solver$s.txt" target/release/benchmark_stencil \
        -dim 2 -nx 1024 -it 20 -vp 64 --sim 16 -solver "$s"
done
pin simulate_cluster.txt target/release/examples/simulate_cluster
# Figure 10's sweep, the one simulator pin that is not quick: about
# 29 s on one core of the build host, where the others take well under
# a second.
pin figure10.txt target/release/figure10 --sweep

# Figure 3: the thirteen-row format table, every row verified by the
# binary itself (it asserts), its stdout pinned to the stored file.
cargo run --release -q -p kdr-bench --bin table3 | diff - results/table3.txt

# A format is its six-method description: the example defines one
# outside the library, solves on it and asserts convergence.
cargo run --release -p kdr-examples --example custom_format

# The benchmark harness is a package of its own that this workspace's
# build and tests never compile: keep it building, and its unit tests
# passing, against the crates' public API.
cargo test --offline --manifest-path perf_ledger/Cargo.toml
