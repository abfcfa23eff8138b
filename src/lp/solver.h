// Solver facade: one entry point, selectable backend.
//
// See src/lp/README.md for the backend-selection matrix, the pricing
// rule, and the warm-start contract.
#pragma once

#include "lp/interior_point.h"
#include "lp/problem.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace dpm::lp {

/// Which LP algorithm `solve()` dispatches to.
enum class Backend {
  /// Sparse revised simplex (the default, and the backend behind
  /// `PolicyOptimizer`): two-phase primal plus a boxed dual simplex,
  /// Forrest–Tomlin-updated Markowitz LU basis, partial pricing,
  /// native bounded variables, warm-startable via `SimplexBasis`.
  kRevisedSimplex,
  /// Dense two-phase tableau — the small, auditable reference
  /// implementation every other backend is tested against.
  kSimplex,
  /// Mehrotra predictor–corrector interior point (PCx-style, the
  /// method the paper's tool used) — cross-validation on feasible
  /// bounded instances; guarded above ~4000 columns, where it falls
  /// back to the revised simplex with a stderr note.
  kInteriorPoint
};

/// Solves `problem` with the requested backend.  All backends share the
/// `LpSolution`/`LpStatus` contract and agree on feasible bounded
/// instances to ~1e-6 (enforced by tests/test_lp_agreement.cpp); only
/// the revised simplex certifies infeasibility/unboundedness on every
/// instance class.  Callers that need warm starts, per-solve stats, or
/// non-default options use `solve_revised_simplex` directly.
inline LpSolution solve(const LpProblem& problem,
                        Backend backend = Backend::kRevisedSimplex) {
  switch (backend) {
    case Backend::kInteriorPoint:
      return solve_interior_point(problem);
    case Backend::kSimplex:
      return solve_simplex(problem);
    case Backend::kRevisedSimplex:
      break;
  }
  return solve_revised_simplex(problem);
}

}  // namespace dpm::lp
