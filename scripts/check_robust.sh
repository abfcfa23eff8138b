#!/usr/bin/env bash
# Robustness drift gate, run by scripts/verify.sh.
#
#   scripts/check_robust.sh
#
# Three checks:
#   1. No process-killing exits on the solve path: `abort(` and
#      `exit(` must not appear anywhere under src/lp/ or src/linalg/.
#      Every failure there must surface as a structured LpStatus /
#      thrown typed error that robust::SolveSupervisor can catch and
#      escalate (see docs/robustness.md).
#   2. Every FaultSite enumerator in src/robust/probe.h is documented
#      by name in docs/robustness.md, so a probe point cannot ship
#      without its failure semantics written down.
#   3. Every RecoveryRung enumerator in src/robust/outcome.h appears in
#      both docs/robustness.md and the solver README's failure-
#      semantics section — the escalation ladder is a documented
#      contract, not an implementation detail — and every rung the
#      numbered ladder lists in those two documents (a "N. `kName`"
#      line) is a RecoveryRung enumerator, so a deleted rung cannot
#      linger in the docs.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. no abort()/exit() on the solve path --------------------------
# \b keeps matches to real calls (std::abort(), abort(), exit(1)) and
# out of identifiers like `sort_exit_cols`.
hits="$(grep -rnE --include='*.cpp' --include='*.h' \
          '\b(std::)?(abort|exit)\(' src/lp src/linalg || true)"
if [[ -n "${hits}" ]]; then
  echo "check_robust: FAIL — abort()/exit() on the solve path:" >&2
  echo "${hits}" | sed 's/^/  /' >&2
  echo "  (surface a structured LpStatus or throw a typed error instead;" >&2
  echo "   see docs/robustness.md)" >&2
  fail=1
fi

# --- 2. every FaultSite is documented --------------------------------
sites="$(sed -n '/^enum class FaultSite/,/^};/p' src/robust/probe.h |
         grep -o '^  k[A-Za-z0-9]*' | tr -d ' ' || true)"
if [[ -z "${sites}" ]]; then
  echo "check_robust: FAIL — could not parse FaultSite from src/robust/probe.h" >&2
  fail=1
fi
while IFS= read -r site; do
  [[ -z "${site}" ]] && continue
  if ! grep -q "${site}" docs/robustness.md; then
    echo "check_robust: FAIL — FaultSite::${site} is not documented in docs/robustness.md" >&2
    fail=1
  fi
done <<< "${sites}"

# --- 3. every RecoveryRung is documented -----------------------------
rungs="$(sed -n '/^enum class RecoveryRung/,/^};/p' src/robust/outcome.h |
         grep -o '^  k[A-Za-z0-9]*' | tr -d ' ' || true)"
if [[ -z "${rungs}" ]]; then
  echo "check_robust: FAIL — could not parse RecoveryRung from src/robust/outcome.h" >&2
  fail=1
fi
while IFS= read -r rung; do
  [[ -z "${rung}" ]] && continue
  for doc in docs/robustness.md src/lp/README.md; do
    if ! grep -q "${rung}" "${doc}"; then
      echo "check_robust: FAIL — RecoveryRung::${rung} is not documented in ${doc}" >&2
      fail=1
    fi
  done
done <<< "${rungs}"
for doc in docs/robustness.md src/lp/README.md; do
  listed="$(grep -oE '^[0-9]+\. `k[A-Za-z0-9]*`' "${doc}" |
            grep -oE 'k[A-Za-z0-9]*' || true)"
  if [[ -z "${listed}" ]]; then
    echo "check_robust: FAIL — no numbered rung ladder found in ${doc}" >&2
    fail=1
  fi
  while IFS= read -r rung; do
    [[ -z "${rung}" ]] && continue
    if ! grep -qx "${rung}" <<< "${rungs}"; then
      echo "check_robust: FAIL — ${doc} lists rung ${rung}, which is not a RecoveryRung enumerator" >&2
      fail=1
    fi
  done <<< "${listed}"
done

if [[ "${fail}" -ne 0 ]]; then
  exit 1
fi
echo "check_robust: OK (no abort/exit on the solve path, FaultSite and RecoveryRung documented, no stale rung listed)"
