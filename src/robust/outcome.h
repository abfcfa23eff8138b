// Structured solve outcomes: the failure taxonomy the supervised solve
// pipeline speaks instead of aborts and stray exceptions.
//
// Every solve attempt ends in one of three ways:
//   * a *determination* — kOptimal / kInfeasible / kUnbounded, a final
//     answer about the model;
//   * a *failure* — the solver hit a wall (numerical, budget, deadline)
//     and the answer is unknown.  SolveSupervisor escalates these;
//   * an *exception* — converted at the supervisor boundary into a
//     typed failure, never propagated to callers.
// A SolveOutcome records the full attempt history, so telemetry and
// tests can see exactly which ladder rung produced the answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lp/problem.h"

namespace dpm::robust {

/// Why a solve attempt failed to determine the model.  Coarse on
/// purpose: each reason implies a different remedy, and the ladder in
/// SolveSupervisor is keyed off exactly these distinctions.
enum class FailureReason : std::uint8_t {
  kSingularBasis = 0,   ///< refactorization failed; basis numerically wedged
  kNonFinite,           ///< NaN/Inf detected mid-solve (data or injection)
  kIterationLimit,      ///< pivot budget exhausted (or a degenerate stall)
  kDeadlineExpired,     ///< cooperative per-unit wall-clock deadline hit
  kInvariantViolation,  ///< internal invariant check tripped (verify builds)
  kBadModel,            ///< malformed input; retrying cannot help
};
inline constexpr std::size_t kNumFailureReasons = 6;

const char* to_string(FailureReason r) noexcept;

/// The declared escalation ladder, in firing order.  Each rung is a
/// strictly "colder" (more conservative, more expensive) way to ask the
/// same question of the same model.
enum class RecoveryRung : std::uint8_t {
  kPlain = 0,          ///< as requested: warm basis if provided
  kRetryRefactorize,   ///< the exact same configuration again, every
                       ///< factorization rebuilt from scratch: heals
                       ///< transient (e.g. consumed single-shot injected)
                       ///< faults with a pivot-for-pivot identical
                       ///< trajectory, so recovered results match the
                       ///< fault-free bytes exactly
  kColdRestart,        ///< drop the warm basis, fresh start from scratch
  kCrossCheck,         ///< the dense tableau on the same LP, at or below
                       ///< kCrossCheckTableauColumns columns (supervisor.h)
};
inline constexpr std::size_t kNumRecoveryRungs = 4;

const char* to_string(RecoveryRung r) noexcept;

/// A typed failure: what went wrong, on which rung, with context.
struct SolveFailure {
  FailureReason reason = FailureReason::kBadModel;
  RecoveryRung rung = RecoveryRung::kPlain;  ///< rung that produced it
  std::string detail;                        ///< solver note / exception text
};

/// One ladder attempt, recorded in order.
struct RecoveryStep {
  RecoveryRung rung = RecoveryRung::kPlain;
  lp::LpStatus status = lp::LpStatus::kIterationLimit;
  std::size_t iterations = 0;
  bool threw = false;  ///< attempt ended in an exception (converted)
};

/// The result of a supervised solve: the attempt history plus either a
/// determination (solution valid) or a typed failure (solution holds
/// the last attempt's state; do not trust its x/objective).
struct SolveOutcome {
  lp::LpSolution solution;
  std::vector<RecoveryStep> steps;
  std::optional<SolveFailure> failure;

  /// True when the model was determined: optimal, infeasible, or
  /// unbounded.  (`failure` is empty exactly when this holds.)
  bool determined() const noexcept {
    return solution.status == lp::LpStatus::kOptimal ||
           solution.status == lp::LpStatus::kInfeasible ||
           solution.status == lp::LpStatus::kUnbounded;
  }

  /// True when the answer needed at least one escalation past kPlain.
  bool recovered() const noexcept { return determined() && steps.size() > 1; }
};

}  // namespace dpm::robust
