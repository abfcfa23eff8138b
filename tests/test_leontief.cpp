// Lagrangian policy-iteration seed (lp/leontief.h) and the residual
// audit (lp::audit_residual):
//
//  * detection accepts PolicyOptimizer::build_lp output with zero or
//    one metric row and rejects two metric rows, `>=` rows, bounded
//    columns and the average-cost LP;
//  * seeded supervised solves of random small MDPs (point-mass and
//    uniform p0) match the dense tableau to 1e-9 in at most one pivot;
//  * a bound below every policy's metric still ends `infeasible`;
//  * an LU fault inside the seed search is typed, and the retry rung
//    recomputes the identical seed, so the answer is bitwise the
//    fault-free one;
//  * the hard corner's seed passed straight to the revised simplex at
//    cap 511 ends typed or optimal-and-audited, and the audit itself
//    turns an "optimal" point off its rows into a typed failure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "cases/example_system.h"
#include "dpm/average_optimizer.h"
#include "dpm/metrics.h"
#include "dpm/optimizer.h"
#include "lp/leontief.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "robust/fault_injection.h"
#include "robust/supervisor.h"
#include "serve/fleet.h"

namespace dpm {
namespace {

using robust::RecoveryRung;
using robust::SolveOutcome;
using robust::SolveSupervisor;

/// A random discounted MDP's LP2: `n` states, `na` actions, 3 random
/// successors per pair, costs in [0, 5), one metric in [0, 3) when
/// `metric_bound` is set (a per-step bound, scaled to the horizon).
lp::LpProblem random_mdp_lp(std::size_t n, std::size_t na, double gamma,
                            bool point_mass, std::uint64_t seed,
                            const double* metric_bound) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  lp::LpProblem p;
  lp::Constraint metric;
  metric.sense = lp::Sense::kLe;
  std::vector<lp::Constraint> balance(n);
  for (std::size_t j = 0; j < n; ++j) {
    balance[j].sense = lp::Sense::kEq;
    balance[j].rhs = point_mass ? (j == 0 ? 1.0 : 0.0) : 1.0 / double(n);
  }
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < na; ++a) {
      const std::size_t col = p.add_variable(5.0 * u(gen));
      metric.terms.emplace_back(col, 3.0 * u(gen));
      balance[s].terms.emplace_back(col, 1.0);
      double w[3];
      double total = 0.0;
      for (double& wk : w) total += (wk = 0.05 + u(gen));
      for (const double wk : w) {
        balance[pick(gen)].terms.emplace_back(col, -gamma * wk / total);
      }
    }
  }
  for (auto& row : balance) p.add_constraint(std::move(row));
  if (metric_bound != nullptr) {
    metric.rhs = *metric_bound / (1.0 - gamma);
    p.add_constraint(std::move(metric));
  }
  return p;
}

/// Per-step metric of an LP point: the last row's activity times 1 - gamma.
double metric_per_step(const lp::LpProblem& p, const linalg::Vector& x,
                       double gamma) {
  double total = 0.0;
  for (const auto& [j, v] : p.constraints().back().terms) total += v * x[j];
  return (1.0 - gamma) * total;
}

TEST(LeontiefForm, AcceptsBuildLpWithAtMostOneMetricRow) {
  const SystemModel model = cases::ExampleSystem::make_model();
  const PolicyOptimizer optimizer(model,
                                  cases::ExampleSystem::make_config(model, 0.99));
  const lp::LpProblem plain = optimizer.build_lp(metrics::power(model), {});
  const auto f0 = lp::LeontiefForm::detect(plain);
  ASSERT_TRUE(f0.has_value());
  EXPECT_FALSE(f0->has_side_row());
  EXPECT_EQ(f0->num_homes(), model.num_states());

  const lp::LpProblem one = optimizer.build_lp(
      metrics::power(model), {{metrics::queue_length(model), 0.5, "queue"}});
  const auto f1 = lp::LeontiefForm::detect(one);
  ASSERT_TRUE(f1.has_value());
  EXPECT_TRUE(f1->has_side_row());
  EXPECT_EQ(f1->num_columns(), one.num_variables());
}

TEST(LeontiefForm, RejectsWhatTheSeedCannotSolve) {
  const SystemModel model = cases::ExampleSystem::make_model();
  const PolicyOptimizer optimizer(model,
                                  cases::ExampleSystem::make_config(model, 0.99));
  // Two metric rows (K = 2).
  const lp::LpProblem two = optimizer.build_lp(
      metrics::power(model), {{metrics::queue_length(model), 0.5, "queue"},
                              {metrics::request_loss(model), 0.1, "loss"}});
  EXPECT_FALSE(lp::LeontiefForm::detect(two).has_value());

  const lp::LpProblem base = optimizer.build_lp(
      metrics::power(model), {{metrics::queue_length(model), 0.5, "queue"}});
  // A `>=` row.
  lp::LpProblem ge = optimizer.build_lp(metrics::power(model), {});
  lp::Constraint floor_row = base.constraints().back();
  floor_row.sense = lp::Sense::kGe;
  ge.add_constraint(floor_row);
  EXPECT_FALSE(lp::LeontiefForm::detect(ge).has_value());
  // A bounded column.
  lp::LpProblem bounded = base;
  bounded.set_upper_bound(0, 10.0);
  EXPECT_FALSE(lp::LeontiefForm::detect(bounded).has_value());
  // A negative equality rhs.
  lp::LpProblem negative = base;
  negative.set_rhs(0, -0.1);
  EXPECT_FALSE(lp::LeontiefForm::detect(negative).has_value());
  // The average-cost LP: its balance rows have margin 0 and its
  // normalization row gives every column a second positive entry.
  const AverageCostOptimizer average(model);
  EXPECT_FALSE(lp::LeontiefForm::detect(
                   average.build_lp(metrics::power(model), {}))
                   .has_value());
}

// Seeded supervised solves agree with the dense tableau to 1e-9, on the
// plain rung, in at most one pivot — unconstrained (K = 0) and with a
// binding metric row (K = 1), from a point mass and from uniform p0.
TEST(LagrangianSeed, SeededSolvesMatchTheTableau) {
  const double gamma = 0.95;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const bool point_mass : {true, false}) {
      const std::size_t n = 20 + seed % 3 * 7;
      const std::size_t na = 2 + seed % 3;
      // K = 0: the policy-iteration optimum is the LP optimum.
      const lp::LpProblem free_lp =
          random_mdp_lp(n, na, gamma, point_mass, seed, nullptr);
      // K = 1: a bound halfway between the unconstrained optimum's
      // metric and the metric-minimal policy's.
      const double loose = 1e9;
      const lp::LpProblem probe =
          random_mdp_lp(n, na, gamma, point_mass, seed, &loose);
      const lp::LpSolution unconstrained = lp::solve_simplex(probe);
      ASSERT_EQ(unconstrained.status, lp::LpStatus::kOptimal);
      const double d_free = metric_per_step(probe, unconstrained.x, gamma);
      // The metric-minimal value: the balance rows with the metric as
      // the cost.
      lp::LpProblem min_metric;
      std::vector<double> d(probe.num_variables(), 0.0);
      for (const auto& [j, v] : probe.constraints().back().terms) d[j] = v;
      for (const double dj : d) min_metric.add_variable(dj);
      for (std::size_t i = 0; i + 1 < probe.num_constraints(); ++i) {
        min_metric.add_constraint(probe.constraints()[i]);
      }
      const lp::LpSolution least = lp::solve_simplex(min_metric);
      ASSERT_EQ(least.status, lp::LpStatus::kOptimal);
      const double d_min = (1.0 - gamma) * least.objective;
      const double bound = d_min + 0.5 * (d_free - d_min);
      const lp::LpProblem bound_lp =
          random_mdp_lp(n, na, gamma, point_mass, seed, &bound);

      for (const lp::LpProblem* p : {&free_lp, &bound_lp}) {
        ASSERT_TRUE(lp::LeontiefForm::detect(*p).has_value());
        const SolveOutcome out = SolveSupervisor{}.solve(*p);
        ASSERT_TRUE(out.determined()) << "seed " << seed;
        ASSERT_EQ(out.solution.status, lp::LpStatus::kOptimal);
        EXPECT_EQ(out.steps.size(), 1u) << "seed " << seed;
        EXPECT_LE(out.solution.iterations, 1u) << "seed " << seed;
        EXPECT_GT(out.seed_factorizations, 0u);
        const lp::LpSolution want = lp::solve_simplex(*p);
        ASSERT_EQ(want.status, lp::LpStatus::kOptimal);
        EXPECT_NEAR(out.solution.objective, want.objective,
                    1e-9 * (1.0 + std::abs(want.objective)))
            << "seed " << seed << " point_mass " << point_mass;
        EXPECT_LT(p->max_violation(out.solution.x), 1e-9);
      }
    }
  }
}

// A bound below every policy's metric: the seed declines (no lambda
// bracket) and the cold path determines the LP infeasible.
TEST(LagrangianSeed, UnreachableBoundStaysInfeasible) {
  const SystemModel model = serve::fleet_model_spec(0, 6).compose();
  OptimizerConfig config;
  config.discount = 0.99;
  config.initial_distribution = model.uniform_distribution();
  const PolicyOptimizer optimizer(model, config);
  // Uniform p0 starts some sessions with a full queue, so the average
  // queue cannot be driven to 1e-3.
  const lp::LpProblem p = optimizer.build_lp(
      metrics::power(model), {{metrics::queue_length(model), 1e-3, "queue"}});
  const auto form = lp::LeontiefForm::detect(p);
  ASSERT_TRUE(form.has_value());
  EXPECT_TRUE(lp::lagrangian_seed(*form).empty());

  const SolveOutcome out = SolveSupervisor{}.solve(p);
  ASSERT_TRUE(out.determined());
  EXPECT_EQ(out.solution.status, lp::LpStatus::kInfeasible);
  EXPECT_EQ(lp::solve_simplex(p).status, lp::LpStatus::kInfeasible);
}

// An injected LU failure inside the seed search throws a typed
// LinalgError on the plain rung; the retry recomputes the identical
// seed and the answer is bitwise the fault-free one.  A fault on the
// engine's factorization of the installed seed is typed the same way.
TEST(LagrangianSeed, LuFaultRecoversBitwise) {
  const double bound = 1.2;
  const lp::LpProblem p =
      random_mdp_lp(40, 3, 0.97, /*point_mass=*/true, 7, &bound);
  const SolveOutcome clean = SolveSupervisor{}.solve(p);
  ASSERT_TRUE(clean.determined());
  ASSERT_EQ(clean.solution.status, lp::LpStatus::kOptimal);
  ASSERT_EQ(clean.steps.size(), 1u);
  const std::size_t seed_lus = clean.seed_factorizations;
  ASSERT_GT(seed_lus, 2u);

  for (const std::uint64_t fire_at : {std::uint64_t{1}, std::uint64_t{2},
                                      std::uint64_t{seed_lus},
                                      std::uint64_t{seed_lus + 1}}) {
    robust::FaultPlan plan;
    plan.site = robust::FaultSite::kLuFactorize;
    plan.fire_at = fire_at;
    robust::FaultScope scope(plan);
    const SolveOutcome out = SolveSupervisor{}.solve(p);
    ASSERT_EQ(scope.fired(), 1u) << fire_at;
    ASSERT_TRUE(out.determined()) << fire_at;
    ASSERT_EQ(out.steps.size(), 2u) << fire_at;
    EXPECT_EQ(out.steps[0].status, lp::LpStatus::kNumericalFailure);
    // Inside the search the fault throws; on the installed seed the
    // engine reports a singular refactorization.
    EXPECT_EQ(out.steps[0].threw, fire_at <= seed_lus) << fire_at;
    EXPECT_EQ(out.steps[1].rung, RecoveryRung::kRetryRefactorize);
    EXPECT_EQ(out.solution.objective, clean.solution.objective) << fire_at;
    EXPECT_EQ(out.solution.iterations, clean.solution.iterations);
    ASSERT_EQ(out.solution.x.size(), clean.solution.x.size());
    for (std::size_t j = 0; j < out.solution.x.size(); ++j) {
      ASSERT_EQ(out.solution.x[j], clean.solution.x[j]) << fire_at << " " << j;
    }
  }
}

// The hard corner's seed handed straight to the revised simplex at cap
// 511, gamma = 0.999.  The engine's LU of that basis is unstable; before
// the residual audit its phase 2 returned "optimal" at 1.853 per step
// (the optimum is 2.978) with the queue row violated by 8.84e3.  Now the
// solve ends typed, or optimal with its rows satisfied.
TEST(ResidualAudit, CornerSeedEndsTypedOrAudited) {
  const SystemModel model = serve::fleet_model_spec(0, 511).compose();
  OptimizerConfig config;
  config.discount = 0.999;
  config.initial_distribution.assign(model.num_states(), 0.0);
  config.initial_distribution[0] = 1.0;
  const PolicyOptimizer optimizer(model, config);
  const lp::LpProblem p = optimizer.build_lp(
      metrics::power(model), {{metrics::queue_length(model), 0.5, "queue"}});
  const auto form = lp::LeontiefForm::detect(p);
  ASSERT_TRUE(form.has_value());
  const std::vector<std::size_t> seed = lp::lagrangian_seed(*form);
  ASSERT_FALSE(seed.empty());

  lp::RevisedSimplexOptions opt;
  opt.crash_columns = &seed;
  lp::SimplexBasis basis;
  const lp::LpSolution sol = lp::solve_revised_simplex(p, opt, nullptr, &basis);
  if (sol.status == lp::LpStatus::kOptimal) {
    for (std::size_t i = 0; i < p.num_constraints(); ++i) {
      double lhs = 0.0;
      for (const auto& [j, v] : p.constraints()[i].terms) lhs += v * sol.x[j];
      EXPECT_LE(lhs - p.constraints()[i].rhs,
                opt.feas_tol * (1.0 + std::abs(p.constraints()[i].rhs)))
          << i;
    }
    EXPECT_NEAR((1.0 - config.discount) * sol.objective, 2.9780556717, 1e-9);
  } else {
    EXPECT_EQ(sol.status, lp::LpStatus::kNumericalFailure);
    ASSERT_NE(sol.note, nullptr);
    EXPECT_TRUE(basis.empty());  // a rejected basis is never handed out
  }
}

TEST(ResidualAudit, FlagsAPointOffItsRows) {
  lp::LpProblem p;
  p.add_variable(1.0);
  p.add_variable(1.0);
  lp::Constraint eq;
  eq.sense = lp::Sense::kEq;
  eq.rhs = 1.0;
  eq.terms = {{0, 1.0}, {1, 1.0}};
  p.add_constraint(eq);
  lp::Constraint le;
  le.sense = lp::Sense::kLe;
  le.rhs = 100.0;
  le.terms = {{0, 1.0}};
  p.add_constraint(le);

  lp::LpSolution sol;
  sol.status = lp::LpStatus::kOptimal;
  sol.x = {0.5, 0.5};
  lp::audit_residual(p, 1e-7, sol);
  EXPECT_EQ(sol.status, lp::LpStatus::kOptimal);
  EXPECT_EQ(sol.note, nullptr);

  // Within feas_tol * (1 + |b|) of the `<=` row's rhs: accepted.
  sol.x = {100.0 + 5e-6, -99.0 - 5e-6};
  lp::audit_residual(p, 1e-7, sol);
  EXPECT_EQ(sol.status, lp::LpStatus::kOptimal);

  // Past it: a typed failure.
  sol.x = {100.0 + 2e-5, -99.0 - 2e-5};
  lp::audit_residual(p, 1e-7, sol);
  EXPECT_EQ(sol.status, lp::LpStatus::kNumericalFailure);
  ASSERT_NE(sol.note, nullptr);
  EXPECT_STREQ(sol.note, "primal-residual");

  // An equality residual, and a non-optimal status passing untouched.
  lp::LpSolution off;
  off.status = lp::LpStatus::kOptimal;
  off.x = {0.5, 0.6};
  lp::audit_residual(p, 1e-7, off);
  EXPECT_EQ(off.status, lp::LpStatus::kNumericalFailure);
  lp::LpSolution infeasible;
  infeasible.status = lp::LpStatus::kInfeasible;
  lp::audit_residual(p, 1e-7, infeasible);
  EXPECT_EQ(infeasible.status, lp::LpStatus::kInfeasible);

  EXPECT_STREQ(robust::to_string(robust::FailureReason::kPrimalResidual),
               "primal-residual");
}

}  // namespace
}  // namespace dpm
