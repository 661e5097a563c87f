#!/usr/bin/env bash
# CI gate for the gfsc workspace. Run from the repository root:
#
#     ./scripts/ci.sh          # full gate: fmt, clippy, doc, lint, build, tests twice
#                              # (GFSC_SWEEP_THREADS=1 and =4 — determinism
#                              # under both executors), release tests,
#                              # thermal bitwise oracles at 2000 cases,
#                              # daemon HIL + wall-clock pacing drills,
#                              # large-grid smoke,
#                              # perfbench build + one short run per workload,
#                              # bench check, paper artifacts byte-identical
#                              # under GFSC_SWEEP_THREADS=1 and =4
#     ./scripts/ci.sh quick    # fmt, clippy, doc, lint, single test run +
#                              # daemon HIL + pacing drills + perfbench
#                              # build; skip the release tests & bench runs
#
# Mirrors the tier-1 verify command (`cargo build --release && cargo test -q`)
# and adds the style gates that keep the tree warning-free.
#
# Every cargo invocation runs `--locked --offline`: the workspace vendors
# its two external shims under vendor/, so CI must never touch the
# network — a build that tries is a bug, not a flake. A trailing
# `git status --porcelain` check catches fmt or lockfile drift produced by
# the gate itself.
set -euo pipefail
cd "$(dirname "$0")/.."

status_before=$(git status --porcelain)

stage_names=()
stage_secs=()
run_stage() {
    local name="$1"
    shift
    echo "== $name: $*"
    local start=$SECONDS
    "$@"
    stage_names+=("$name")
    stage_secs+=($((SECONDS - start)))
}

run_stage "fmt" cargo fmt --check
run_stage "clippy" cargo clippy --workspace --all-targets --locked --offline -- -D warnings
# Rustdoc with warnings denied: a broken or private intra-doc link passes
# fmt, clippy and the tests, so only this stage catches it.
run_stage "doc" env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --locked --offline
# The domain lint gate (lint.toml): panic-freedom on runtime paths,
# NaN-safe ordering, allocation hygiene in epoch loops, unit hygiene on
# public signatures, event-taxonomy coverage. Exit 1 on any non-waived
# error or a blown waiver budget; the JSON report is the CI artifact.
run_stage "lint" cargo run -q --locked --offline -p gfsc-lint -- \
    --quiet --out target/gfsc-lint.json
run_stage "build" cargo build --release --locked --offline

# The hardware-in-the-loop drill runs in BOTH profiles: the daemon vs the
# simulated rack on the 2U×4 preset with injected faults (frozen sensor,
# dropped-reads burst, actuator NACK), asserting firmware fallback within
# the watchdog deadline, bounded true junction temperatures, and clean
# re-engagement. Scenario logs + flight-recorder `.events` snapshots land
# in target/daemon-hil/.
run_hil_stage() {
    run_stage "daemon-hil" cargo test -q --locked --offline -p gfsc-daemon --test hil
}

# The wall-clock pacing drill also runs in BOTH profiles: the paced test
# suite (config-built daemon bit-identical to the library loop under a
# mock clock, overrun-burst accounting, horizon-boundary pin), then the
# gfsc-daemond binary itself driven deployment-shaped — a parity check
# and the overrun drill from the checked-in fixture config, spilling
# `.metrics`/`.events`/`.timeline` artifacts into target/daemon-paced/.
run_paced_stage() {
    run_stage "daemon-paced" cargo test -q --locked --offline -p gfsc-daemon --test paced
    daemond_drills() {
        local config=crates/daemon/tests/fixtures/daemond_sim.toml
        cargo run -q --release --locked --offline --bin gfsc-daemond -- \
            --config "$config" --check-parity --artifacts target/daemon-paced
        cargo run -q --release --locked --offline --bin gfsc-daemond -- \
            --config "$config" --drill overruns --artifacts target/daemon-paced
    }
    run_stage "daemond-drills" daemond_drills
}

# Renders every HIL scenario's flight recording into a causal timeline
# (`<scenario>.timeline` next to the `.events` file) — the human-readable
# artifact the nightly workflow uploads, and a smoke test that the
# explain path handles real fault recordings, not just unit fixtures.
run_explain_stage() {
    explain_hil_events() {
        local events
        for events in target/daemon-hil/*.events; do
            [ -e "$events" ] || { echo "no .events artifacts in target/daemon-hil" >&2; return 1; }
            cargo run -q --release --locked --offline -p gfsc-bench --bin gfsc_explain -- \
                "$events" --out "${events%.events}.timeline"
        done
    }
    run_stage "explain-hil" explain_hil_events
}

# The repository benchmark (perfbench/: its own workspace and lockfile,
# built against the crates by path). A --locked build fails on a broken
# public path or a changed dependency edge. The full gate also runs every
# workload briefly, plus one traced run, and requires each run's last
# output line (the JSON result) to report "correct": true.
perfbench() {
    cargo run -q --release --locked --offline --manifest-path perfbench/Cargo.toml -- "$@"
}
run_perfbench_stage() {
    run_stage "perfbench-build" cargo build --release --locked --offline \
        --manifest-path perfbench/Cargo.toml
    [ "${1:-}" = "full" ] || return 0
    perfbench_smoke() {
        local run workload trace last
        for run in rack-ecoord:0 rack-pid:0 daemon-ipmi:0 sweep:0 sweep:1; do
            workload=${run%:*}
            trace=${run#*:}
            last=$(perfbench --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
            case "$last" in
                *'"correct": true'*) echo "perfbench $workload --trace $trace: correct" ;;
                *)
                    echo "perfbench $workload --trace $trace: not correct: $last" >&2
                    return 1
                    ;;
            esac
        done
    }
    run_stage "perfbench-smoke" perfbench_smoke
}

# Every paper artifact (tables, figures, ablations) runs from the release
# build under a serial and a 4-worker sweep executor; stdout lands in
# target/paper-artifacts/<name>.threads-<n>.txt. A non-zero exit or any
# byte difference from the pinned tests/fixtures/paper-artifacts/<name>.txt
# fails the stage, so a change that moves a paper number fails even when
# it moves it the same way at both worker counts. Every closed-loop
# artifact runs on tuned gain schedules, so this also pins the tuning
# against the worker count end to end. Re-pin a fixture only for a
# deliberate numeric change, with the reason stated in the changelog.
paper_artifacts() {
    local dir=target/paper-artifacts pinned=tests/fixtures/paper-artifacts run name threads
    mkdir -p "$dir"
    for run in table1 table2 table3 fig1 fig3 fig4 fig5 "ablations all"; do
        name=${run%% *}
        for threads in 1 4; do
            # $run is word-split on purpose: "ablations all" is bin + argument.
            # shellcheck disable=SC2086
            GFSC_SWEEP_THREADS=$threads ./target/release/$run >"$dir/$name.threads-$threads.txt"
            diff "$pinned/$name.txt" "$dir/$name.threads-$threads.txt"
        done
    done
}

if [ "${1:-}" = "quick" ]; then
    run_stage "test" cargo test -q --locked --offline
    run_hil_stage
    run_paced_stage
    run_perfbench_stage quick
else
    # The full gate runs the suite under both a serial and a parallel
    # sweep executor: the parallel==serial determinism contract must hold
    # whichever path the environment forces, and a worker-count-dependent
    # bug in either direction should fail CI, not a user.
    run_stage "test-threads-1" env GFSC_SWEEP_THREADS=1 cargo test -q --locked --offline
    run_stage "test-threads-4" env GFSC_SWEEP_THREADS=4 cargo test -q --locked --offline
    run_stage "test-release" cargo test -q --release --locked --offline
    run_stage "paper-artifacts" paper_artifacts
    # The RC-network solves' bitwise oracles at a case count the default
    # suite can't afford: the cached step against the dense uncached
    # step, the steady-state probe against a dense solve, batch lanes
    # against scalar steps and the min-safe inversion against its
    # bisection. The shim seeds each property from its name, so the
    # stage is deterministic.
    run_stage "thermal-oracles" env PROPTEST_CASES=2000 cargo test -q --release --locked \
        --offline -p gfsc-thermal -- cached_step bitwise bit_for_bit
    run_hil_stage
    run_paced_stage
    run_explain_stage
    # 10k-cell grid through `ScenarioGrid::run`, then spilled traces: the
    # sweep machinery at a size the default suite can't afford.
    run_stage "large-grid-smoke" cargo test -q --release --locked --offline \
        --test determinism large_grid_smoke_with_spilled_traces -- --ignored
    # perfbench runs before the timing gate: the gate stops at the first
    # failing stage, and the perfbench correctness runs must report even
    # when a timing row fails.
    run_perfbench_stage full
    run_stage "bench-check" ./scripts/bench_check.sh
fi

# The gate must leave the tree exactly as it found it (no fmt rewrites, no
# lockfile updates, no stray artifacts outside target/). On a clean CI
# checkout this is exactly "porcelain is empty"; locally it tolerates
# pre-existing uncommitted work but still catches anything the gate wrote.
status_after=$(git status --porcelain)
if [ "$status_after" != "$status_before" ]; then
    echo "CI gate FAILED: the gate dirtied the working tree:" >&2
    diff <(printf '%s\n' "$status_before") <(printf '%s\n' "$status_after") >&2 || true
    exit 1
fi
echo "== tree unchanged by the gate"

echo
echo "CI gate passed. Stage timings:"
for i in "${!stage_names[@]}"; do
    printf '  %-14s %4d s\n' "${stage_names[$i]}" "${stage_secs[$i]}"
done
