// Randomized agreement suite: the dense tableau simplex and the sparse
// revised simplex must tell the same story on the same instance.
// Statuses must match exactly on every instance class (feasible,
// infeasible, unbounded).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace dpm::lp {
namespace {

constexpr double kTol = 1e-6;

// Feasible bounded instance: A >= 0, rhs = A x0 + slack with x0 > 0,
// positive costs, plus one >= row bounding the optimum away from zero.
LpProblem random_feasible(std::mt19937_64& gen) {
  std::uniform_real_distribution<double> u(0.1, 2.0);
  std::uniform_int_distribution<int> dim(2, 9);
  const int n = dim(gen);
  const int m = dim(gen);
  LpProblem p;
  for (int j = 0; j < n; ++j) p.add_variable(u(gen));
  linalg::Vector x0(n);
  for (int j = 0; j < n; ++j) x0[j] = u(gen);
  for (int i = 0; i < m; ++i) {
    Constraint c;
    double rhs = 0.1;
    for (int j = 0; j < n; ++j) {
      const double a = u(gen);
      c.terms.emplace_back(j, a);
      rhs += a * x0[j];
    }
    c.sense = Sense::kLe;
    c.rhs = rhs;
    p.add_constraint(std::move(c));
  }
  Constraint floor_row;
  for (int j = 0; j < n; ++j) floor_row.terms.emplace_back(j, 1.0);
  floor_row.sense = Sense::kGe;
  floor_row.rhs = 0.5 * linalg::sum(x0);
  p.add_constraint(std::move(floor_row));
  return p;
}

// Infeasible instance: a random feasible core plus a contradictory pair
// sum(x) <= t, sum(x) >= t + gap.
LpProblem random_infeasible(std::mt19937_64& gen) {
  std::uniform_real_distribution<double> u(0.1, 2.0);
  LpProblem p = random_feasible(gen);
  const int n = static_cast<int>(p.num_variables());
  const double t = u(gen);
  Constraint le, ge;
  for (int j = 0; j < n; ++j) {
    le.terms.emplace_back(j, 1.0);
    ge.terms.emplace_back(j, 1.0);
  }
  le.sense = Sense::kLe;
  le.rhs = t;
  ge.sense = Sense::kGe;
  ge.rhs = t + 0.5 + u(gen);
  p.add_constraint(std::move(le));
  p.add_constraint(std::move(ge));
  return p;
}

// Unbounded instance: negative cost on a variable that appears only in
// >= rows with nonnegative coefficients — it can grow forever.
LpProblem random_unbounded(std::mt19937_64& gen) {
  std::uniform_real_distribution<double> u(0.1, 2.0);
  std::uniform_int_distribution<int> dim(2, 6);
  const int n = dim(gen);
  const int m = dim(gen);
  LpProblem p;
  p.add_variable(-u(gen));  // the escape direction
  for (int j = 1; j < n; ++j) p.add_variable(u(gen));
  for (int i = 0; i < m; ++i) {
    Constraint c;
    for (int j = 0; j < n; ++j) c.terms.emplace_back(j, u(gen));
    c.sense = Sense::kGe;
    c.rhs = u(gen);
    p.add_constraint(std::move(c));
  }
  return p;
}

class AgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(AgreementTest, FeasibleInstancesAgreeAcrossSimplexVariants) {
  std::mt19937_64 gen(1000 + GetParam());
  const LpProblem p = random_feasible(gen);

  const LpSolution tab = solve_simplex(p);
  const LpSolution rev = solve_revised_simplex(p);

  ASSERT_EQ(tab.status, LpStatus::kOptimal);
  ASSERT_EQ(rev.status, LpStatus::kOptimal);
  const double scale = 1.0 + std::abs(tab.objective);
  EXPECT_NEAR(tab.objective, rev.objective, kTol * scale);
  EXPECT_LT(p.max_violation(tab.x), 1e-7);
  EXPECT_LT(p.max_violation(rev.x), 1e-7);
}

TEST_P(AgreementTest, InfeasibleInstancesAgreeAcrossSimplexVariants) {
  std::mt19937_64 gen(2000 + GetParam());
  const LpProblem p = random_infeasible(gen);
  EXPECT_EQ(solve_simplex(p).status, LpStatus::kInfeasible);
  EXPECT_EQ(solve_revised_simplex(p).status, LpStatus::kInfeasible);
}

TEST_P(AgreementTest, UnboundedInstancesAgreeAcrossSimplexVariants) {
  std::mt19937_64 gen(3000 + GetParam());
  const LpProblem p = random_unbounded(gen);
  EXPECT_EQ(solve_simplex(p).status, LpStatus::kUnbounded);
  EXPECT_EQ(solve_revised_simplex(p).status, LpStatus::kUnbounded);
}

// 17 seeds x {feasible, infeasible, unbounded} = 51 random instances.
INSTANTIATE_TEST_SUITE_P(RandomLps, AgreementTest, ::testing::Range(0, 17));

// ---------------------------------------------------------------------
// Revised-simplex specifics: pricing sections and warm starts.
// ---------------------------------------------------------------------

TEST(RevisedSimplex, PricingSectionsAgree) {
  // The default section covers every column of these small LPs (one
  // full Dantzig scan); three-column sections force the rotating
  // partial scan.  Both must land on the dense tableau's optimum.
  std::mt19937_64 gen(42);
  for (int trial = 0; trial < 10; ++trial) {
    const LpProblem p = random_feasible(gen);
    RevisedSimplexOptions partial;
    partial.partial_section = 3;
    const LpSolution a = solve_revised_simplex(p);
    const LpSolution b = solve_revised_simplex(p, partial);
    const LpSolution c = solve_simplex(p);
    ASSERT_EQ(a.status, LpStatus::kOptimal);
    ASSERT_EQ(b.status, LpStatus::kOptimal);
    ASSERT_EQ(c.status, LpStatus::kOptimal);
    EXPECT_NEAR(a.objective, c.objective,
                kTol * (1.0 + std::abs(c.objective)));
    EXPECT_NEAR(b.objective, c.objective,
                kTol * (1.0 + std::abs(c.objective)));
  }
}

TEST(RevisedSimplex, WarmStartAfterRhsChangeMatchesColdSolve) {
  std::mt19937_64 gen(77);
  for (int trial = 0; trial < 10; ++trial) {
    LpProblem p = random_feasible(gen);
    SimplexBasis basis;
    const LpSolution first = solve_revised_simplex(p, {}, nullptr, &basis);
    ASSERT_EQ(first.status, LpStatus::kOptimal);
    ASSERT_FALSE(basis.empty());

    // Tighten the >= floor row (the last of the feasible core): the old
    // basis stays dual feasible, the dual simplex restores primal
    // feasibility.
    const std::size_t floor_row = p.num_constraints() - 1;
    const double old_rhs = p.constraints()[floor_row].rhs;
    p.set_rhs(floor_row, old_rhs * 1.3);

    const LpSolution warm = solve_revised_simplex(p, {}, &basis, nullptr);
    const LpSolution cold = solve_revised_simplex(p);
    ASSERT_EQ(cold.status, warm.status) << "trial " << trial;
    if (cold.status == LpStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective,
                  kTol * (1.0 + std::abs(cold.objective)))
          << "trial " << trial;
      EXPECT_LT(p.max_violation(warm.x), 1e-7);
    }
  }
}

TEST(RevisedSimplex, WarmStartRefusesBasisWithArtificialPlaceholder) {
  // A redundant equality row parks an artificial in the optimal basis
  // (at value zero).  Changing that row's rhs afterwards makes the rows
  // inconsistent; a warm start from the artificial-carrying basis must
  // not report optimal for the now-infeasible problem — it has to fall
  // back to a cold phase-1 solve and agree with it.
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(0.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 1.0, ""});
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 1.0, ""});
  SimplexBasis basis;
  const LpSolution first = solve_revised_simplex(p, {}, nullptr, &basis);
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  EXPECT_NEAR(first.objective, 0.0, 1e-9);

  p.set_rhs(1, 2.0);  // rows now contradict each other
  const LpSolution warm = solve_revised_simplex(p, {}, &basis, nullptr);
  EXPECT_EQ(warm.status, LpStatus::kInfeasible);
  EXPECT_EQ(solve_revised_simplex(p).status, LpStatus::kInfeasible);
}

TEST(RevisedSimplex, WarmStartWithGarbageBasisFallsBackToCold) {
  std::mt19937_64 gen(5);
  const LpProblem p = random_feasible(gen);
  SimplexBasis junk;
  junk.basic.assign(p.num_constraints(), 0);  // singular: same column twice
  const LpSolution s = solve_revised_simplex(p, {}, &junk, nullptr);
  const LpSolution cold = solve_revised_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, cold.objective, kTol);
}

TEST(RevisedSimplex, EmptyProblemThrows) {
  EXPECT_THROW(solve_revised_simplex(LpProblem{}), LpError);
}

TEST(RevisedSimplex, SolvesDegenerateProblem) {
  // Redundant constraints through the optimum (same instance the
  // tableau suite uses).
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
}

TEST(RevisedSimplex, NegativeRhsHandled) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(1.0);
  p.add_constraint({{{x, 1.0}, {y, -1.0}}, Sense::kLe, -2.0, ""});
  const LpSolution s = solve_revised_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(RevisedSimplex, RedundantEqualityRowsAreHarmless) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(0.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 2.0, ""});
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 2.0, ""});
  const LpSolution s = solve_revised_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
  EXPECT_NEAR(s.x[1], 2.0, 1e-9);
}

TEST(SimplexVariants, AgreeOnSeed9) {
  std::mt19937_64 gen(9);
  const LpProblem p = random_feasible(gen);
  const LpSolution a = solve_revised_simplex(p);
  const LpSolution b = solve_simplex(p);
  ASSERT_EQ(a.status, LpStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, kTol * (1.0 + std::abs(b.objective)));
}

}  // namespace
}  // namespace dpm::lp
