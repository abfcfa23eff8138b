// Bounded-variable revised simplex: native upper-bound handling (bound
// flips, two-sided ratio test, singleton-row absorption) against the
// explicit-row reformulation solved by the reference backends.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace dpm::lp {
namespace {

constexpr double kTol = 1e-6;

/// Random bounded instance: the feasible core of the agreement suite
/// plus finite upper bounds on a random subset of variables, tight
/// enough that some bind at the optimum.
LpProblem random_bounded(std::mt19937_64& gen) {
  std::uniform_real_distribution<double> u(0.1, 2.0);
  std::uniform_int_distribution<int> dim(2, 9);
  std::uniform_int_distribution<int> coin(0, 1);
  const int n = dim(gen);
  const int m = dim(gen);
  LpProblem p;
  for (int j = 0; j < n; ++j) p.add_variable(u(gen) - 1.0);  // mixed signs
  for (int i = 0; i < m; ++i) {
    Constraint c;
    for (int j = 0; j < n; ++j) c.terms.emplace_back(j, u(gen));
    c.sense = Sense::kLe;
    c.rhs = 1.0 + u(gen) * static_cast<double>(n);
    p.add_constraint(std::move(c));
  }
  for (int j = 0; j < n; ++j) {
    if (coin(gen)) p.set_upper_bound(j, u(gen));
  }
  return p;
}

TEST(BoundedSimplex, NativeBoundsAgreeWithExplicitRowFormulation) {
  for (int trial = 0; trial < 25; ++trial) {
    std::mt19937_64 gen(4000 + trial);
    const LpProblem p = random_bounded(gen);
    const LpProblem rows = bounds_as_rows(p);
    ASSERT_FALSE(rows.has_finite_upper_bounds());

    const LpSolution native = solve_revised_simplex(p);
    const LpSolution reference = solve_revised_simplex(rows);
    const LpSolution tableau = solve_simplex(p);  // reformulates inside

    ASSERT_EQ(native.status, LpStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(reference.status, LpStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(tableau.status, LpStatus::kOptimal) << "trial " << trial;
    const double scale = 1.0 + std::abs(reference.objective);
    EXPECT_NEAR(native.objective, reference.objective, kTol * scale)
        << "trial " << trial;
    EXPECT_NEAR(native.objective, tableau.objective, kTol * scale)
        << "trial " << trial;
    // The native solution respects the bounds of the original problem.
    EXPECT_LT(p.max_violation(native.x), 1e-7) << "trial " << trial;
  }
}

TEST(BoundedSimplex, OptimumAtUpperBoundsViaBoundFlips) {
  // min -x - 2y with x <= 1.5, y <= 2.5 and no other rows: the whole
  // solve is two bound flips (the basis is empty after absorption).
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t y = p.add_variable(-2.0);
  p.add_constraint({{{x, 1.0}}, Sense::kLe, 1.5, ""});
  p.add_constraint({{{y, 1.0}}, Sense::kLe, 2.5, ""});
  SimplexStats stats;
  RevisedSimplexOptions opt;
  opt.stats = &stats;
  const LpSolution s = solve_revised_simplex(p, opt);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 1.5, 1e-12);
  EXPECT_NEAR(s.x[y], 2.5, 1e-12);
  EXPECT_NEAR(s.objective, -6.5, 1e-12);
  EXPECT_EQ(stats.bound_flips, 2u);
}

TEST(BoundedSimplex, SingletonRowsAbsorbedIntoBounds) {
  // The degenerate instance of the tableau suite: two of the four rows
  // are singletons and vanish from the basis.
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t y = p.add_variable(-1.0);
  p.add_constraint({{{x, 1.0}}, Sense::kLe, 1.0, ""});
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 2.0, ""});
  p.add_constraint({{{x, 2.0}, {y, 2.0}}, Sense::kLe, 4.0, ""});
  p.add_constraint({{{y, 1.0}}, Sense::kLe, 1.0, ""});
  const LpSolution s = solve_revised_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-9);

  // The dense tableau keeps every row explicit and must agree.
  const LpSolution ref = solve_simplex(p);
  ASSERT_EQ(ref.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, ref.objective, 1e-9);

  // Row duals must certify the optimum (KKT): each reduced cost
  // c_j - sum_i a_ij y_i is <= 0 at the upper-bound side and >= 0 at
  // zero, with y_i <= 0 on every <= row.  The absorbed row x <= 1
  // binds at x = 1 and carries a real multiplier.
  ASSERT_EQ(s.duals.size(), p.num_constraints());
  std::vector<double> rc(p.costs().begin(), p.costs().end());
  for (std::size_t i = 0; i < p.num_constraints(); ++i) {
    EXPECT_LE(s.duals[i], 1e-9) << "row " << i;
    for (const auto& [j, v] : p.constraints()[i].terms) {
      rc[j] -= v * s.duals[i];
    }
  }
  for (std::size_t j = 0; j < p.num_variables(); ++j) {
    if (s.x[j] > 1e-9) EXPECT_LE(rc[j], 1e-9) << "col " << j;
    EXPECT_GE(rc[j], -1e-9) << "col " << j;  // no column has a bound
  }
  EXPECT_NEAR(s.x[x], 1.0, 1e-9);
}

TEST(BoundedSimplex, InfeasibleByContradictoryBound) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.set_upper_bound(x, 1.0);
  p.add_constraint({{{x, 1.0}}, Sense::kGe, 2.0, ""});  // needs x >= 2
  EXPECT_EQ(solve_revised_simplex(p).status, LpStatus::kInfeasible);
  EXPECT_EQ(solve_simplex(p).status, LpStatus::kInfeasible);
}

TEST(BoundedSimplex, NegativeSingletonRhsIsInfeasible) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_variable(1.0);
  p.add_constraint({{{x, 1.0}}, Sense::kLe, -0.5, ""});  // x <= -0.5
  EXPECT_EQ(solve_revised_simplex(p).status, LpStatus::kInfeasible);
  EXPECT_EQ(solve_simplex(p).status, LpStatus::kInfeasible);
}

TEST(BoundedSimplex, UpperBoundTamesUnboundedInstance) {
  // Without the bound this is unbounded (negative cost, no ceiling).
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  p.add_constraint({{{x, 1.0}}, Sense::kGe, 0.5, ""});
  EXPECT_EQ(solve_revised_simplex(p).status, LpStatus::kUnbounded);
  p.set_upper_bound(x, 3.0);
  const LpSolution s = solve_revised_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-9);
  EXPECT_NEAR(s.x[x], 3.0, 1e-9);
}

TEST(BoundedSimplex, WarmStartOnBoundedProblemRepricesInPlace) {
  std::mt19937_64 gen(99);
  const LpProblem p = random_bounded(gen);
  SimplexBasis basis;
  const LpSolution first = solve_revised_simplex(p, {}, nullptr, &basis);
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  EXPECT_FALSE(basis.at_upper.empty());  // bound flags travel with it
  // Unchanged problem: the warm basis is still optimal, so the re-solve
  // is zero pivots.
  const LpSolution warm = solve_revised_simplex(p, {}, &basis, nullptr);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_EQ(warm.iterations, 0u);
  EXPECT_NEAR(warm.objective, first.objective,
              kTol * (1.0 + std::abs(first.objective)));
}

TEST(BoundedSimplex, DualRestartAfterBoundTighteningMatchesColdSolve) {
  // The boxed dual simplex: tightening bounds keeps the basis dual
  // feasible (costs unchanged), so the warm re-solve repairs any primal
  // violation and must land on the cold optimum.  (On these loose
  // random instances the old basis often stays feasible — at-bound
  // variables just follow their bounds, zero pivots; the dedicated
  // instance below forces actual dual pivots.)
  for (int trial = 0; trial < 25; ++trial) {
    std::mt19937_64 gen(7000 + trial);
    LpProblem p = random_bounded(gen);
    SimplexBasis basis;
    const LpSolution loose = solve_revised_simplex(p, {}, nullptr, &basis);
    if (loose.status != LpStatus::kOptimal) continue;

    // Tighten every finite bound by 25% (keep zero-fixed ones fixed).
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      const double u = p.upper_bounds()[j];
      if (std::isfinite(u)) p.set_upper_bound(j, 0.75 * u);
    }
    const LpSolution warm = solve_revised_simplex(p, {}, &basis, nullptr);
    const LpSolution cold = solve_revised_simplex(p);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (cold.status != LpStatus::kOptimal) continue;
    EXPECT_NEAR(warm.objective, cold.objective,
                kTol * (1.0 + std::abs(cold.objective)))
        << "trial " << trial;
    EXPECT_LT(p.max_violation(warm.x), 1e-7) << "trial " << trial;
  }
}

TEST(BoundedSimplex, TighteningForcesDualPivotsThroughBasisChange) {
  // Fill a fixed demand from unit-capacity sources, cheapest first:
  //   min sum c_j x_j  s.t.  sum x_j = 3.5,  0 <= x_j <= 1.
  // Optimum: x1..x3 at upper, x4 = 0.5 basic.  Tightening every cap to
  // 0.75 leaves only 2.25 at the bounds, so the basic must grow past
  // its own cap — a genuine dual pivot (x5 enters), not a reprice.
  LpProblem p;
  for (int j = 0; j < 6; ++j) {
    p.add_variable(1.0 + static_cast<double>(j));
    p.set_upper_bound(static_cast<std::size_t>(j), 1.0);
  }
  p.add_constraint({{{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0},
                     {5, 1.0}},
                    Sense::kEq,
                    3.5,
                    ""});
  SimplexBasis basis;
  const LpSolution loose = solve_revised_simplex(p, {}, nullptr, &basis);
  ASSERT_EQ(loose.status, LpStatus::kOptimal);
  EXPECT_NEAR(loose.objective, 1.0 + 2.0 + 3.0 + 0.5 * 4.0, 1e-9);

  for (int j = 0; j < 6; ++j) p.set_upper_bound(static_cast<std::size_t>(j), 0.75);
  SimplexStats stats;
  RevisedSimplexOptions opt;
  opt.stats = &stats;
  const LpSolution warm = solve_revised_simplex(p, opt, &basis, nullptr);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  // New optimum: x1..x4 = 0.75 (3.0 total), x5 = 0.5.
  EXPECT_NEAR(warm.objective,
              0.75 * (1.0 + 2.0 + 3.0 + 4.0) + 0.5 * 5.0, 1e-9);
  EXPECT_GT(stats.dual_iterations, 0u);  // repaired by the dual phase
  const LpSolution cold = solve_revised_simplex(p);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(BoundedSimplex, DualRestartAfterBoundRelaxationMatchesColdSolve) {
  // Relaxing (or removing) bounds also preserves dual feasibility only
  // when the at-upper flags stay consistent — a column resting at a
  // bound that moved away must follow it, and one whose bound became
  // +inf drops to the lower bound (possibly costing a cold fallback,
  // never a wrong answer).
  for (int trial = 0; trial < 25; ++trial) {
    std::mt19937_64 gen(8000 + trial);
    LpProblem p = random_bounded(gen);
    SimplexBasis basis;
    const LpSolution tight = solve_revised_simplex(p, {}, nullptr, &basis);
    if (tight.status != LpStatus::kOptimal) continue;
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      const double u = p.upper_bounds()[j];
      if (!std::isfinite(u)) continue;
      p.set_upper_bound(j, trial % 2 == 0
                               ? 1.5 * u
                               : std::numeric_limits<double>::infinity());
    }
    const LpSolution warm = solve_revised_simplex(p, {}, &basis, nullptr);
    const LpSolution cold = solve_revised_simplex(p);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (cold.status != LpStatus::kOptimal) continue;
    EXPECT_NEAR(warm.objective, cold.objective,
                kTol * (1.0 + std::abs(cold.objective)))
        << "trial " << trial;
  }
}

TEST(BoundedSimplex, RhsMoveWithActiveBoundsWarmRestarts) {
  // Pareto-sweep shape on a bounded problem: same matrix, same bounds,
  // moving rhs — previously these fell back cold; the boxed dual phase
  // now reuses the basis.
  std::mt19937_64 gen(55);
  LpProblem p = random_bounded(gen);
  SimplexBasis basis;
  const LpSolution first = solve_revised_simplex(p, {}, nullptr, &basis);
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  for (const double scale : {0.9, 0.8, 0.7}) {
    for (std::size_t i = 0; i < p.num_constraints(); ++i) {
      p.set_rhs(i, p.constraints()[i].rhs * scale);
    }
    SimplexBasis next;
    const LpSolution warm = solve_revised_simplex(p, {}, &basis, &next);
    const LpSolution cold = solve_revised_simplex(p);
    ASSERT_EQ(warm.status, cold.status) << "scale " << scale;
    if (cold.status == LpStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective,
                  kTol * (1.0 + std::abs(cold.objective)))
          << "scale " << scale;
      basis = next;
    }
  }
}

TEST(BoundedSimplex, SetUpperBoundValidates) {
  LpProblem p;
  p.add_variable(1.0);
  EXPECT_THROW(p.set_upper_bound(3, 1.0), LpError);
  EXPECT_THROW(p.set_upper_bound(0, -1.0), LpError);
  p.set_upper_bound(0, 0.0);  // fixing at zero is legal
  p.add_constraint({{{0, 1.0}}, Sense::kGe, 0.0, ""});
  const LpSolution s = solve_revised_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 0.0, 1e-12);
}

TEST(BoundedSimplex, BoundsAsRowsKeepsShape) {
  LpProblem p;
  p.add_variable(1.0);
  p.add_variable(1.0);
  p.set_upper_bound(1, 2.0);
  p.add_constraint({{{0, 1.0}, {1, 1.0}}, Sense::kGe, 1.0, ""});
  const LpProblem rows = bounds_as_rows(p);
  EXPECT_EQ(rows.num_variables(), 2u);
  EXPECT_EQ(rows.num_constraints(), 2u);
  EXPECT_FALSE(rows.has_finite_upper_bounds());
  EXPECT_NEAR(rows.constraints()[1].rhs, 2.0, 1e-15);
}

TEST(BoundedSimplex, TableauSolvesReformulatedBounds) {
  std::mt19937_64 gen(123);
  const LpProblem p = random_bounded(gen);
  const LpSolution ref = solve_revised_simplex(p);
  ASSERT_EQ(ref.status, LpStatus::kOptimal);
  const LpSolution tab = solve_simplex(bounds_as_rows(p));
  ASSERT_EQ(tab.status, LpStatus::kOptimal);
  EXPECT_NEAR(tab.objective, ref.objective,
              kTol * (1.0 + std::abs(ref.objective)));
  EXPECT_LT(p.max_violation(tab.x), 1e-7);
}

TEST(RevisedSimplexStats, CountsRefactorizationsAndIterations) {
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> u(0.1, 2.0);
  LpProblem p;
  for (int j = 0; j < 30; ++j) p.add_variable(u(gen));
  linalg::Vector x0(30);
  for (auto& v : x0) v = u(gen);
  for (int i = 0; i < 20; ++i) {
    Constraint c;
    double rhs = 0.1;
    for (int j = 0; j < 30; ++j) {
      const double a = u(gen);
      c.terms.emplace_back(j, a);
      rhs += a * x0[j];
    }
    c.sense = Sense::kLe;
    c.rhs = rhs;
    p.add_constraint(std::move(c));
  }
  SimplexStats stats;
  RevisedSimplexOptions opt;
  opt.stats = &stats;
  const LpSolution s = solve_revised_simplex(p, opt);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_GE(stats.refactorizations, 1u);
  EXPECT_EQ(stats.iterations, s.iterations);
  EXPECT_GT(stats.factor_nonzeros, 0u);
  EXPECT_GE(stats.solve_ms, stats.refactor_ms);
}

}  // namespace
}  // namespace dpm::lp
