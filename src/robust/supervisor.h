// Supervised solve pipeline: runs the declared escalation ladder over
// the LP solvers and guarantees a structured outcome — a determination
// or a typed SolveFailure, never an escaping exception or an abort.
//
// Ladder (see RecoveryRung in outcome.h):
//   1. kPlain             — as requested: warm basis if provided, and
//                           the caller's retained simplex engine if
//                           one is passed in the options
//                           (lp::RetainedSimplex).  Later rungs always
//                           build their own engine.
//   2. kRetryRefactorize  — the same configuration again with every
//                           factorization rebuilt; a transient fault
//                           (consumed single-shot injection) re-solves
//                           along the identical pivot trajectory, so
//                           the recovered answer matches the fault-free
//                           run bit-for-bit.
//   3. kColdRestart       — drop the warm basis; fresh start.  Same
//                           exact problem, so a recovered solve matches
//                           the fault-free objective bit-for-bit.
//   4. kCrossCheck        — the dense tableau answers instead, at or
//                           below kCrossCheckTableauColumns columns;
//                           above it the rung does not run and the
//                           cold restart's typed failure stands.
//                           No rung ever solves a different LP, so a
//                           determination is always about the problem
//                           as posed.
// kIterationLimit, kNumericalFailure, and converted exceptions escalate;
// kDeadline and kBadModel stop the ladder immediately (retrying cannot
// help within the same deadline, and malformed input never heals).
//
// Recovery counts are kept in process-wide telemetry (relaxed atomics,
// same contract as lp::pivots_executed) and printed by
// `bench_scenarios --telemetry`.
#pragma once

#include <cstdint>

#include "lp/revised_simplex.h"
#include "robust/outcome.h"

namespace dpm::robust {

/// Columns at or below which the kCrossCheck rung runs the dense
/// tableau (O(rows x cols) per pivot).  Above it the rung does not
/// run, and the ladder ends on the cold restart's typed failure.
inline constexpr std::size_t kCrossCheckTableauColumns = 2048;

struct SupervisorOptions {
  /// Base options applied to every simplex rung.
  lp::RevisedSimplexOptions lp;
};

/// Process-wide recovery telemetry, aggregated across every supervised
/// solve since process start.
struct RecoveryTelemetry {
  std::uint64_t supervised = 0;    ///< supervised solves total
  std::uint64_t first_try = 0;     ///< determined on the kPlain rung
  std::uint64_t recovered = 0;     ///< determined after >= 1 escalation
  std::uint64_t unrecovered = 0;   ///< ladder exhausted or hard-stopped
  std::uint64_t rung_attempts[kNumRecoveryRungs] = {};
};
RecoveryTelemetry recovery_telemetry() noexcept;

class SolveSupervisor {
 public:
  explicit SolveSupervisor(SupervisorOptions options = {})
      : options_(options) {}

  /// Runs the ladder.  `warm`/`basis_out` follow the
  /// solve_revised_simplex contract; `basis_out` is only filled by
  /// simplex rungs (a cross-check determination leaves it untouched).
  /// Never throws on solver trouble; LpError from model validation
  /// surfaces as FailureReason::kBadModel.
  SolveOutcome solve(const lp::LpProblem& problem,
                     const lp::SimplexBasis* warm = nullptr,
                     lp::SimplexBasis* basis_out = nullptr) const;

  const SupervisorOptions& options() const noexcept { return options_; }

 private:
  SupervisorOptions options_;
};

}  // namespace dpm::robust
