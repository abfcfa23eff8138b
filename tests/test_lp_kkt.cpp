// Optimality certificates of the revised simplex: every optimal answer
// must come with row duals that satisfy KKT on the problem as posed —
// including the singleton rows the engine absorbs into variable bounds
// instead of keeping them as basis rows — on cold solves and on warm
// restarts alike.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace dpm::lp {
namespace {

// Random bounded-box LP that is feasible and bounded by construction
// (rhs generated from a random interior point; every variable has a
// finite upper bound), seeded with the degenerate structure real
// models carry: singleton <=/= rows, duplicate columns, an empty
// column, and a redundant wide row.
LpProblem random_presolvable_lp(std::uint64_t seed, std::size_t n,
                                std::size_t m) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  LpProblem p;
  linalg::Vector xstar(n);
  for (std::size_t j = 0; j < n; ++j) {
    p.add_variable(2.0 * u(gen) - 1.0);
    p.set_upper_bound(j, 1.0 + 3.0 * u(gen));
    xstar[j] = u(gen) * p.upper_bounds()[j];
  }
  for (std::size_t i = 0; i < m; ++i) {
    Constraint c;
    const std::size_t terms = 2 + pick(gen) % 4;
    double act = 0.0;
    for (std::size_t t = 0; t < terms; ++t) {
      const std::size_t j = pick(gen);
      const double v = 0.2 + u(gen);
      c.terms.emplace_back(j, v);
      act += v * xstar[j];
    }
    if (u(gen) < 0.3) {
      c.sense = Sense::kEq;
      c.rhs = act;
    } else {
      c.sense = Sense::kLe;
      c.rhs = act + u(gen);
    }
    p.add_constraint(std::move(c));
  }
  // Singleton rows: a bound fold (<=) and an outright fix (=).
  const std::size_t s1 = pick(gen);
  p.add_constraint({{{s1, 1.0}}, Sense::kLe, 0.9 * xstar[s1] + 0.05, ""});
  const std::size_t s2 = (s1 + 1) % n;
  p.add_constraint({{{s2, 2.0}}, Sense::kEq, 2.0 * xstar[s2], ""});
  // Redundant row: huge rhs, never binding.
  {
    Constraint wide;
    wide.sense = Sense::kLe;
    wide.rhs = 1e6;
    for (std::size_t j = 0; j < n; j += 2) wide.terms.emplace_back(j, 1.0);
    p.add_constraint(std::move(wide));
  }
  // Duplicate column pair: equal column, equal cost (a tie in every
  // pricing pass); and one empty column (appears in no row) that
  // settles at its cost-preferred bound.
  const std::size_t dup = p.add_variable(p.costs()[0]);
  p.set_upper_bound(dup, 1.0 + u(gen));
  const std::size_t empty = p.add_variable(u(gen) < 0.5 ? 0.7 : -0.7);
  p.set_upper_bound(empty, 2.0);
  {
    // Mirror column 0's rows onto `dup` with identical coefficients.
    LpProblem q;
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      q.add_variable(p.costs()[j]);
      q.set_upper_bound(j, p.upper_bounds()[j]);
    }
    for (const Constraint& c : p.constraints()) {
      Constraint cc = c;
      for (const auto& [j, v] : c.terms)
        if (j == 0) cc.terms.emplace_back(dup, v);
      q.add_constraint(std::move(cc));
    }
    p = std::move(q);
  }
  return p;
}

// KKT check for min c'x, Ax {<=,=} b, 0 <= x <= u given row duals y:
// rc_j = c_j - a_j'y must be >= -tol when x_j is at its lower bound,
// <= tol at its upper bound, and ~0 strictly between; binding-direction
// sign on y for inequality rows; y_i ~ 0 on slack rows.
void expect_kkt(const LpProblem& p, const LpSolution& sol, double tol) {
  ASSERT_EQ(sol.duals.size(), p.num_constraints());
  linalg::Vector rc(p.costs().begin(), p.costs().end());
  for (std::size_t i = 0; i < p.num_constraints(); ++i) {
    const Constraint& c = p.constraints()[i];
    double act = 0.0;
    for (const auto& [j, v] : c.terms) {
      act += v * sol.x[j];
      rc[j] -= v * sol.duals[i];
    }
    if (c.sense == Sense::kLe) {
      EXPECT_LE(sol.duals[i], tol) << "row " << i;
      if (act < c.rhs - 1e-5)
        EXPECT_NEAR(sol.duals[i], 0.0, tol) << "slack row " << i;
    } else if (c.sense == Sense::kGe) {
      EXPECT_GE(sol.duals[i], -tol) << "row " << i;
      if (act > c.rhs + 1e-5)
        EXPECT_NEAR(sol.duals[i], 0.0, tol) << "slack row " << i;
    }
  }
  for (std::size_t j = 0; j < p.num_variables(); ++j) {
    const double uj = p.upper_bounds()[j];
    const bool at_lo = sol.x[j] <= 1e-6;
    const bool at_up = std::isfinite(uj) && sol.x[j] >= uj - 1e-6;
    if (!at_lo) EXPECT_LE(rc[j], tol) << "col " << j;
    if (!at_up) EXPECT_GE(rc[j], -tol) << "col " << j;
  }
}

TEST(LpKkt, ColdSolvesMatchTableauAndCertify) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const LpProblem p = random_presolvable_lp(seed, 24, 14);
    const LpSolution ref = solve_simplex(p);
    ASSERT_EQ(ref.status, LpStatus::kOptimal);
    const LpSolution sol = solve_revised_simplex(p);
    ASSERT_EQ(sol.status, LpStatus::kOptimal);
    EXPECT_NEAR(sol.objective, ref.objective,
                1e-7 * (1.0 + std::abs(ref.objective)));
    EXPECT_LE(p.max_violation(sol.x), 1e-6);
    EXPECT_NEAR(p.objective(sol.x), sol.objective, 1e-9);
    expect_kkt(p, sol, 1e-6);
  }
}

TEST(LpKkt, WarmSolvesAfterRhsMoveCertify) {
  // A warm restart repairs the moved rhs with the boxed dual simplex on
  // the same standard form; its absorbed rows must still report exact
  // multipliers.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    LpProblem p = random_presolvable_lp(seed, 24, 14);
    SimplexBasis basis;
    ASSERT_EQ(solve_revised_simplex(p, {}, nullptr, &basis).status,
              LpStatus::kOptimal);
    p.set_rhs(0, p.constraints()[0].rhs * 1.01 + 1e-3);
    const LpSolution warm = solve_revised_simplex(p, {}, &basis);
    ASSERT_EQ(warm.status, LpStatus::kOptimal);
    const LpSolution cold = solve_revised_simplex(p);
    ASSERT_EQ(cold.status, LpStatus::kOptimal);
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-7 * (1.0 + std::abs(cold.objective)));
    expect_kkt(p, warm, 1e-6);
  }
}

TEST(LpKkt, FullyAbsorbedLp) {
  // Two singleton rows (a bound fold and a fix), a slack wide row, and
  // a third column nothing but its cost decides.
  LpProblem p;
  const std::size_t a = p.add_variable(-1.0);  // wants its upper bound
  const std::size_t b = p.add_variable(2.0);
  const std::size_t c = p.add_variable(0.5);  // wants zero
  p.set_upper_bound(a, 5.0);
  p.set_upper_bound(b, 5.0);
  p.set_upper_bound(c, 5.0);
  p.add_constraint({{{a, 1.0}}, Sense::kLe, 2.0, ""});
  p.add_constraint({{{b, 2.0}}, Sense::kEq, 3.0, ""});
  p.add_constraint({{{a, 1.0}, {b, 1.0}, {c, 1.0}}, Sense::kLe, 100.0, ""});

  const LpSolution sol = solve_revised_simplex(p);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  ASSERT_EQ(sol.x.size(), 3u);
  EXPECT_NEAR(sol.x[a], 2.0, 1e-12);  // negative cost -> folded bound
  EXPECT_NEAR(sol.x[b], 1.5, 1e-12);  // fixed by the equality singleton
  EXPECT_NEAR(sol.x[c], 0.0, 1e-12);  // positive cost
  EXPECT_NEAR(sol.objective, -2.0 + 3.0 + 0.0, 1e-12);
  expect_kkt(p, sol, 1e-9);
}

TEST(LpKkt, InfeasibleSingletonAndUnboundedRay) {
  LpProblem infeasible;
  const std::size_t x = infeasible.add_variable(1.0);
  infeasible.add_constraint({{{x, 1.0}}, Sense::kLe, -1.0, ""});  // x >= 0
  EXPECT_EQ(solve_revised_simplex(infeasible).status, LpStatus::kInfeasible);

  LpProblem unbounded;
  unbounded.add_variable(-1.0);  // no upper bound, no constraint -> ray
  EXPECT_EQ(solve_revised_simplex(unbounded).status, LpStatus::kUnbounded);
}

}  // namespace
}  // namespace dpm::lp
