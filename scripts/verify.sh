#!/usr/bin/env bash
# One-shot verification.
#
#   scripts/verify.sh            # Release + Debug/ASan+UBSan, full suites
#   scripts/verify.sh --release  # Release only, full suite
#   scripts/verify.sh --quick    # Release only: unit tests + scenario
#                                # smokes (skips the solver-scaling bench
#                                # smokes and the sanitizer pass)
#   scripts/verify.sh --golden   # Release build, then only the golden-
#                                # baseline regression gate (smoke-run
#                                # the baselined scenarios and --compare
#                                # against tests/golden/)
#   scripts/verify.sh --perf-smoke
#                                # Release build, then assert the
#                                # hypersparse sweep path stays the
#                                # common case (>50% of triangular
#                                # sweeps) on the fig08 disk scenario,
#                                # the dense-tail block carries >30% of
#                                # sweeps on a mid-size MDP LP with the
#                                # crash basis at least halving the cold
#                                # pivot count, tiny instances keep
#                                # the block machinery off, and a dpmd
#                                # near hit refactorizes only when its
#                                # repair pivots (once, for the finish)
#   scripts/verify.sh --fault-smoke
#                                # Release build, then the injected-
#                                # fault matrix: every probe site over
#                                # the full smoke registry must exit 0
#                                # with JSON byte-identical to a clean
#                                # run, --jobs 1 == --jobs 4 under
#                                # injection included
#   scripts/verify.sh --serve-smoke
#                                # Release build, then the dpmd serving
#                                # smoke: start the daemon, replay the
#                                # example transcript twice over TCP,
#                                # assert exit codes, an exact-hit ratio
#                                # > 0.5 on the replay pass, and a clean
#                                # SIGTERM shutdown; then restart on the
#                                # flushed cache and replay once more
#
# Full mode is the tier-1 gate plus the sanitizer sweep and the fault
# matrix; --quick is the edit-compile-check loop (every gtest suite
# plus one smoke run of every registered scenario with shape assertions
# on).  Every mode ends with the docs and robustness drift gates and
# the golden-baseline comparison.
set -euo pipefail
cd "$(dirname "$0")/.."

run_preset() {
  local preset="$1"
  shift
  echo "=== configure/build/test: preset '${preset}' ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  ctest --preset "${preset}" -j "$(nproc)" "$@"
}

check_docs() {
  echo "=== docs drift gate ==="
  scripts/check_docs.sh build/bench_scenarios
  echo "=== robustness drift gate ==="
  scripts/check_robust.sh
}

check_golden() {
  echo "=== golden baselines (tests/golden vs a fresh smoke run) ==="
  # One scenario per baseline file; --compare fails on any drift.
  local args=()
  for f in tests/golden/*.json; do
    args+=(--exact "$(basename "${f}" .json)")
  done
  build/bench_scenarios --smoke --quiet "${args[@]}" --compare tests/golden
}

build_release() {
  echo "=== configure/build: preset 'release' ==="
  cmake --preset release
  cmake --build --preset release -j "$(nproc)"
}

check_perf_smoke() {
  echo "=== perf smoke: hypersparse sweep share on fig08_disk ==="
  # The Gilbert-Peierls reachability path must carry the majority of
  # triangular sweeps on the case-study LPs — if it stops firing (a
  # probe-gate or reach regression), sweeps silently fall back to dense
  # scans and the hypersparse machinery is dead weight.
  local out pct
  out="$(build/bench_scenarios --smoke --quiet --no-cache --telemetry \
           --exact fig08_disk)"
  echo "${out}" | grep '^telemetry:'
  pct="$(echo "${out}" | sed -n 's/.*sparse_pct=\([0-9.]*\).*/\1/p')"
  if [[ -z "${pct}" ]]; then
    echo "perf smoke: FAILED (no telemetry line in bench_scenarios output)"
    return 1
  fi
  if ! awk -v p="${pct}" 'BEGIN { exit !(p > 50.0) }'; then
    echo "perf smoke: FAILED (sparse sweep share ${pct}% <= 50%)"
    return 1
  fi
  echo "perf smoke: ok (sparse sweep share ${pct}%)"

  echo "=== perf smoke: dense-tail block + crash-basis pivots (bench_lp_scale --tail-smoke) ==="
  # One deterministic mid-size MDP LP (n*na = 8000, fixed seed).  Four
  # gates, all on pivot/sweep *counts* — never wall-clock:
  #   1. the dense-block kernels must carry a real share of the sweeps
  #      (block share > 30%; the tail machinery firing at all);
  #   2. tiny instances must keep the block off (tiny_block_sweeps == 0
  #      — the n*na = 500 small-size regression guard);
  #   3. the crash basis must beat the cold solve by at least 2x in
  #      pivots (the policy-iteration seed actually helping);
  #   4. the cold pivot count must not regress past its recorded
  #      baseline + 2% (2108 pivots at the fixed seed).
  local tail cold_pivots crash_pivots block_pct tiny
  tail="$(build/bench_lp_scale --tail-smoke)"
  echo "${tail}"
  cold_pivots="$(echo "${tail}" | sed -n 's/.*cold_pivots=\([0-9]*\).*/\1/p')"
  crash_pivots="$(echo "${tail}" | sed -n 's/.*crash_pivots=\([0-9]*\).*/\1/p')"
  block_pct="$(echo "${tail}" | sed -n 's/.*block_pct=\([0-9.]*\).*/\1/p')"
  tiny="$(echo "${tail}" | sed -n 's/.*tiny_block_sweeps=\([0-9]*\).*/\1/p')"
  if [[ -z "${cold_pivots}" || -z "${crash_pivots}" || -z "${block_pct}" \
        || -z "${tiny}" ]]; then
    echo "perf smoke: FAILED (no tail-smoke line in bench_lp_scale output)"
    return 1
  fi
  if ! awk -v p="${block_pct}" 'BEGIN { exit !(p > 30.0) }'; then
    echo "perf smoke: FAILED (dense-block sweep share ${block_pct}% <= 30%)"
    return 1
  fi
  if [[ "${tiny}" != "0" ]]; then
    echo "perf smoke: FAILED (dense block engaged on a tiny instance: ${tiny} sweeps)"
    return 1
  fi
  if (( crash_pivots * 2 >= cold_pivots )); then
    echo "perf smoke: FAILED (crash ${crash_pivots} pivots not 2x under cold ${cold_pivots})"
    return 1
  fi
  if (( cold_pivots > 2150 )); then
    echo "perf smoke: FAILED (cold pivot count ${cold_pivots} > baseline 2108 + 2%)"
    return 1
  fi
  echo "perf smoke: ok (block share ${block_pct}%, crash ${crash_pivots} vs cold ${cold_pivots} pivots)"

  echo "=== perf smoke: from-scratch LUs per dpmd near hit (serve scenario) ==="
  # Count gate on the serve scenario's LU-reuse unit, run alone at
  # --jobs 1 so the process-wide refactorization odometer sees only its
  # solves: a session keeps its simplex engine and the fresh LU of its
  # canonical basis, so a zero-pivot near hit must refactorize 0 times
  # and a pivoting one exactly once (its canonical finish, in place).
  local serve_line still still_lus moved moved_lus
  serve_line="$(build/bench_scenarios --smoke --no-cache --jobs 1 \
                  --exact serve | grep 'near-hit refactorizations:' || true)"
  echo "${serve_line}"
  still="$(echo "${serve_line}" | sed -n 's/.*zero_pivot=\([0-9]*\) lus=.*/\1/p')"
  still_lus="$(echo "${serve_line}" | sed -n 's/.*zero_pivot=[0-9]* lus=\([0-9]*\).*/\1/p')"
  moved="$(echo "${serve_line}" | sed -n 's/.*pivoting=\([0-9]*\) lus=.*/\1/p')"
  moved_lus="$(echo "${serve_line}" | sed -n 's/.*pivoting=[0-9]* lus=\([0-9]*\).*/\1/p')"
  if [[ -z "${still}" || -z "${still_lus}" || -z "${moved}" \
        || -z "${moved_lus}" ]]; then
    echo "perf smoke: FAILED (no near-hit refactorizations line in the serve scenario output)"
    return 1
  fi
  if (( still == 0 || moved == 0 )); then
    echo "perf smoke: FAILED (the LU-reuse walk needs both zero-pivot and pivoting near hits)"
    return 1
  fi
  if (( still_lus != 0 )); then
    echo "perf smoke: FAILED (${still} zero-pivot near hits ran ${still_lus} refactorizations, want 0)"
    return 1
  fi
  if (( moved_lus != moved )); then
    echo "perf smoke: FAILED (${moved} pivoting near hits ran ${moved_lus} refactorizations, want ${moved})"
    return 1
  fi
  echo "perf smoke: ok (${still} zero-pivot near hits: 0 LUs; ${moved} pivoting: 1 LU each)"
}

check_serve_smoke() {
  echo "=== serve smoke: dpmd replay, cache hits, overload sheds, clean shutdown ==="
  scripts/test_serve_cli.sh build/dpmd build/bench_serve_load
}

check_fault_smoke() {
  echo "=== fault smoke: injected-fault matrix over the smoke registry ==="
  # Acceptance bar from docs/robustness.md: under every single-fault
  # plan the run exits 0 (structured recovery, no crash) and the
  # emitted JSON is byte-identical to a fault-free run — the supervisor
  # and the runner's bounded retry absorb every injected fault without
  # changing a single answer.
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "${out}"' RETURN
  build/bench_scenarios --smoke --quiet --no-cache \
    --baseline-out "${out}/clean" > /dev/null
  local site
  for site in lu-factorize ft-update ftran btran warm-basis cache-line \
              deadline; do
    build/bench_scenarios --smoke --quiet --no-cache \
      --fault-inject "${site}" --unit-retries 2 \
      --baseline-out "${out}/${site}" > /dev/null
    if ! diff -rq "${out}/clean" "${out}/${site}" > /dev/null; then
      echo "fault smoke: FAILED (--fault-inject ${site}: JSON differs from the clean run)"
      diff -rq "${out}/clean" "${out}/${site}" || true
      return 1
    fi
    echo "fault smoke: ${site} ok (exit 0, JSON byte-identical)"
  done
  # Determinism under injection: --jobs 4 must reproduce --jobs 1.
  build/bench_scenarios --smoke --quiet --no-cache --jobs 4 \
    --fault-inject ftran --unit-retries 2 \
    --baseline-out "${out}/jobs4" > /dev/null
  if ! diff -rq "${out}/ftran" "${out}/jobs4" > /dev/null; then
    echo "fault smoke: FAILED (--jobs 4 differs from --jobs 1 under injection)"
    return 1
  fi
  echo "fault smoke: ok (7 sites recovered byte-identically, --jobs invariant)"
}

case "${1:-}" in
  --quick)
    # Everything except the solver-scaling bench smokes (the scenario
    # smoke tests are named smoke_scenario_* / smoke_scenarios_list and
    # stay in).
    run_preset release -E '^smoke_bench_'
    check_docs
    check_golden
    ;;
  --release)
    run_preset release
    check_docs
    check_golden
    check_perf_smoke
    ;;
  --golden)
    build_release
    check_golden
    ;;
  --perf-smoke)
    build_release
    check_perf_smoke
    ;;
  --fault-smoke)
    build_release
    check_fault_smoke
    ;;
  --serve-smoke)
    build_release
    check_serve_smoke
    ;;
  *)
    run_preset release
    check_docs
    check_golden
    check_perf_smoke
    check_fault_smoke
    check_serve_smoke
    run_preset debug
    ;;
esac
echo "verify: done"
