#!/usr/bin/env bash
# Documentation drift gate, run by scripts/verify.sh.
#
#   scripts/check_docs.sh <path-to-bench_scenarios>
#
# Six checks:
#   1. The scenario table in src/scenario/README.md lists exactly the
#      scenarios `bench_scenarios --list` reports (both directions).
#   2. Every repo-relative file or directory referenced from docs/*.md
#      and the per-subsystem src/*/README.md files (markdown links and
#      backticked src/... paths) exists.
#   3. The golden-baseline list in docs/bench-format.md matches the
#      files present under tests/golden/ (both directions), so the
#      documented regeneration procedure always names the real set.
#   4. The solver README documents every SimplexStats counter by name,
#      so instrumentation added to the solver cannot ship undocumented.
#   5. docs/serving.md documents every dpmd wire op and every
#      EngineCounters telemetry field by name, so the serving protocol
#      and its counters cannot drift undocumented.
#   6. docs/robustness.md documents every RecoveryTelemetry field by
#      name, so the supervisor's counters cannot drift undocumented.
set -euo pipefail
cd "$(dirname "$0")/.."

bench_scenarios="${1:-build/bench_scenarios}"
if [[ ! -x "${bench_scenarios}" ]]; then
  echo "check_docs: bench_scenarios binary not found at ${bench_scenarios}" >&2
  echo "check_docs: build first, or pass the path as argument 1" >&2
  exit 2
fi

fail=0

# --- 1. scenario table vs registry -----------------------------------
# README rows look like:  | `name` | description |
readme_names="$(sed -n 's/^| `\([a-z0-9_]*\)` |.*/\1/p' src/scenario/README.md | sort)"
# --list output: "name  units  description" rows after the header line.
registry_names="$("${bench_scenarios}" --list | awk 'NR > 1 && NF > 1 {print $1}' | sort)"

if [[ -z "${readme_names}" ]]; then
  echo "check_docs: FAIL — no scenario rows found in src/scenario/README.md" >&2
  fail=1
fi
missing_in_readme="$(comm -13 <(echo "${readme_names}") <(echo "${registry_names}"))"
missing_in_registry="$(comm -23 <(echo "${readme_names}") <(echo "${registry_names}"))"
if [[ -n "${missing_in_readme}" ]]; then
  echo "check_docs: FAIL — registered scenarios missing from src/scenario/README.md:" >&2
  echo "${missing_in_readme}" | sed 's/^/  /' >&2
  fail=1
fi
if [[ -n "${missing_in_registry}" ]]; then
  echo "check_docs: FAIL — src/scenario/README.md lists unregistered scenarios:" >&2
  echo "${missing_in_registry}" | sed 's/^/  /' >&2
  fail=1
fi

# --- 2. files referenced from docs/ and src/*/README.md exist --------
for doc in docs/*.md src/*/README.md; do
  # Markdown link targets: strip any #fragment, drop external URLs and
  # pure in-page anchors.
  targets="$(grep -o '](\([^)]*\))' "${doc}" | sed 's/^](//; s/)$//; s/#.*//' |
             grep -v '^[a-z]*://' | grep -v '^$' || true)"
  # Backticked repo paths like `src/lp/README.md` or `bench/bench_lp_scale.cpp`.
  targets+=$'\n'"$(grep -o '`\(src\|bench\|tests\|docs\|scripts\|examples\)/[A-Za-z0-9_./-]*`' "${doc}" |
                   tr -d '\`' || true)"
  while IFS= read -r target; do
    [[ -z "${target}" ]] && continue
    # Resolve relative to the doc's directory, then repo root.
    if [[ ! -e "docs/${target}" && ! -e "${target}" ]]; then
      echo "check_docs: FAIL — ${doc} references missing file: ${target}" >&2
      fail=1
    fi
  done <<< "${targets}"
done

# --- 3. golden-scenario list vs tests/golden/ ------------------------
# `|| true` keeps set -e from killing the script before the FAIL
# diagnostics below can explain what drifted.
documented_golden="$(grep -o 'tests/golden/[A-Za-z0-9_]*\.json' \
                       docs/bench-format.md 2>/dev/null |
                     sed 's#tests/golden/##' | sort -u || true)"
present_golden="$( (cd tests/golden 2>/dev/null && ls -- *.json 2>/dev/null) |
                  sort -u || true)"
if [[ -z "${documented_golden}" ]]; then
  echo "check_docs: FAIL — docs/bench-format.md lists no golden baselines" >&2
  fail=1
fi
missing_in_docs="$(comm -13 <(echo "${documented_golden}") \
                            <(echo "${present_golden}"))"
missing_on_disk="$(comm -23 <(echo "${documented_golden}") \
                            <(echo "${present_golden}"))"
if [[ -n "${missing_in_docs}" ]]; then
  echo "check_docs: FAIL — golden files missing from docs/bench-format.md:" >&2
  echo "${missing_in_docs}" | sed 's/^/  /' >&2
  fail=1
fi
if [[ -n "${missing_on_disk}" ]]; then
  echo "check_docs: FAIL — docs/bench-format.md lists absent golden files:" >&2
  echo "${missing_on_disk}" | sed 's/^/  /' >&2
  fail=1
fi

# --- 4. SimplexStats counters are documented -------------------------
# Field names straight from the struct; each must appear in the solver
# README (plain or inside a backticked group like `sweep_ms`).
stats_fields="$(sed -n '/^struct SimplexStats/,/^};/p' src/lp/revised_simplex.h |
                grep -o '^  [a-z:]*[a-z_0-9<> ]* [a-z_0-9]* =' |
                awk '{print $(NF-1)}' || true)"
if [[ -z "${stats_fields}" ]]; then
  echo "check_docs: FAIL — could not parse SimplexStats fields from src/lp/revised_simplex.h" >&2
  fail=1
fi
while IFS= read -r field; do
  [[ -z "${field}" ]] && continue
  if ! grep -q "${field}" src/lp/README.md; then
    echo "check_docs: FAIL — SimplexStats::${field} is not documented in src/lp/README.md" >&2
    fail=1
  fi
done <<< "${stats_fields}"

# --- 5. dpmd ops and serve telemetry counters are documented ---------
# Op wire names from the protocol table in src/serve/protocol.cpp and
# counter fields from the EngineCounters struct; each must appear in
# docs/serving.md (in backticks or table rows).
serve_ops="$(sed -n '/^enum class Op/,/^};/p' src/serve/protocol.h |
             grep -o 'k[A-Z][A-Za-z]*' |
             sed 's/^k//' | tr '[:upper:]' '[:lower:]' || true)"
if [[ -z "${serve_ops}" ]]; then
  echo "check_docs: FAIL — could not parse Op values from src/serve/protocol.h" >&2
  fail=1
fi
while IFS= read -r op; do
  [[ -z "${op}" ]] && continue
  if ! grep -q "\`${op}\`" docs/serving.md; then
    echo "check_docs: FAIL — dpmd op \`${op}\` is not documented in docs/serving.md" >&2
    fail=1
  fi
done <<< "${serve_ops}"

serve_counters="$(sed -n '/^struct EngineCounters/,/^};/p' src/serve/engine.h |
                  grep -o '^  [a-z:]*[a-z_0-9<> ]* [a-z_0-9]* =' |
                  awk '{print $(NF-1)}' || true)"
if [[ -z "${serve_counters}" ]]; then
  echo "check_docs: FAIL — could not parse EngineCounters fields from src/serve/engine.h" >&2
  fail=1
fi
while IFS= read -r field; do
  [[ -z "${field}" ]] && continue
  if ! grep -q "${field}" docs/serving.md; then
    echo "check_docs: FAIL — EngineCounters::${field} is not documented in docs/serving.md" >&2
    fail=1
  fi
done <<< "${serve_counters}"

# --- 6. supervisor recovery counters are documented -----------------
recovery_fields="$(sed -n '/^struct RecoveryTelemetry/,/^};/p' src/robust/supervisor.h |
                   grep -o '^  [a-z:]*[a-z_0-9<> ]* [a-z_0-9]*\(\[[A-Za-z]*\]\)\? =' |
                   sed 's/\[[A-Za-z]*\]//' | awk '{print $(NF-1)}' || true)"
if [[ -z "${recovery_fields}" ]]; then
  echo "check_docs: FAIL — could not parse RecoveryTelemetry fields from src/robust/supervisor.h" >&2
  fail=1
fi
while IFS= read -r field; do
  [[ -z "${field}" ]] && continue
  if ! grep -q "\`${field}\`" docs/robustness.md; then
    echo "check_docs: FAIL — RecoveryTelemetry::${field} is not documented in docs/robustness.md" >&2
    fail=1
  fi
done <<< "${recovery_fields}"

if [[ "${fail}" -ne 0 ]]; then
  exit 1
fi
echo "check_docs: OK (scenario table in sync, doc references exist, golden list in sync, SimplexStats documented, serving protocol documented, recovery counters documented)"
