// Tests for the policy optimizer: LP construction (Appendix A),
// optimality (Theorems A.1/A.2), constraint handling, Pareto structure
// (Theorem 4.1).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "cases/example_system.h"
#include "cases/heuristics.h"
#include "dpm/evaluation.h"
#include "dpm/optimizer.h"
#include "dpm/value_iteration.h"
#include "lp/simplex.h"

namespace dpm {
namespace {

using cases::ExampleSystem;

OptimizerConfig example_config(const SystemModel& m, double gamma = 0.999) {
  return ExampleSystem::make_config(m, gamma);
}

TEST(Optimizer, ConfigValidation) {
  const SystemModel m = ExampleSystem::make_model();
  OptimizerConfig bad = example_config(m);
  bad.discount = 1.0;
  EXPECT_THROW(PolicyOptimizer(m, bad), ModelError);
  bad = example_config(m);
  bad.initial_distribution = linalg::Vector(3, 0.0);
  EXPECT_THROW(PolicyOptimizer(m, bad), ModelError);
  bad = example_config(m);
  bad.initial_distribution = linalg::Vector(8, 0.0);  // sums to 0
  EXPECT_THROW(PolicyOptimizer(m, bad), ModelError);
}

TEST(Optimizer, DefaultInitialDistributionIsUniform) {
  const SystemModel m = ExampleSystem::make_model();
  OptimizerConfig cfg;
  cfg.discount = 0.99;
  const PolicyOptimizer opt(m, cfg);
  EXPECT_NEAR(opt.config().initial_distribution[0], 1.0 / 8.0, 1e-12);
}

TEST(Optimizer, LpHasExpectedShape) {
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  const lp::LpProblem p = opt.build_lp(
      metrics::power(m), {{metrics::queue_length(m), 0.5, "perf"}});
  // 8 states x 2 commands = 16 unknowns (Example A.1); 8 balance rows +
  // 1 metric row.
  EXPECT_EQ(p.num_variables(), 16u);
  EXPECT_EQ(p.num_constraints(), 9u);
}

TEST(Optimizer, UnconstrainedFrequenciesSumToHorizon) {
  const SystemModel m = ExampleSystem::make_model();
  const double gamma = 0.999;
  const PolicyOptimizer opt(m, example_config(m, gamma));
  const OptimizationResult r = opt.minimize(metrics::power(m));
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(linalg::sum(r.frequencies), 1.0 / (1.0 - gamma), 1e-6);
}

TEST(Optimizer, UnconstrainedOptimumIsDeterministic) {
  // Theorem A.1/A.2: with no (active) side constraints the optimal
  // policy is deterministic on all reachable states.
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  const OptimizationResult r = opt.minimize(metrics::power(m));
  ASSERT_TRUE(r.feasible);
  const std::size_t na = m.num_commands();
  for (std::size_t s = 0; s < m.num_states(); ++s) {
    double reach = 0.0;
    for (std::size_t a = 0; a < na; ++a) reach += r.frequencies[s * na + a];
    if (reach < 1e-9) continue;  // unreachable states are unconstrained
    double max_p = 0.0;
    for (std::size_t a = 0; a < na; ++a) {
      max_p = std::max(max_p, r.policy->probability(s, a));
    }
    EXPECT_GT(max_p, 1.0 - 1e-6) << "state " << s;
  }
}

TEST(Optimizer, MatchesValueIterationUnconstrained) {
  // LP2 and value iteration must agree on the optimal discounted cost.
  const SystemModel m = ExampleSystem::make_model();
  const double gamma = 0.99;
  const PolicyOptimizer opt(m, example_config(m, gamma));
  const OptimizationResult lp = opt.minimize(metrics::queue_length(m));
  ASSERT_TRUE(lp.feasible);

  const ValueIterationResult vi =
      value_iteration(m, metrics::queue_length(m), gamma);
  ASSERT_TRUE(vi.converged);
  // LP objective (per-step) vs p0 . v* scaled by (1 - gamma).
  const std::size_t s0 = m.index_of({ExampleSystem::kSpOn, 0, 0});
  EXPECT_NEAR(lp.objective_per_step, (1.0 - gamma) * vi.values[s0], 1e-6);
}

TEST(Optimizer, ConstraintIsRespected) {
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  const OptimizationResult r = opt.minimize_power(/*max_avg_queue=*/0.3);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.constraint_per_step.size(), 1u);
  EXPECT_LE(r.constraint_per_step[0], 0.3 + 1e-7);
}

TEST(Optimizer, ActiveConstraintRandomizesPolicy) {
  // Theorem A.2: when the constraint binds, the optimum is randomized.
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  // Pick a bound strictly between the unconstrained optimum queue and
  // the always-on queue so the constraint must bind.
  const OptimizationResult r = opt.minimize_power(0.3);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.constraint_per_step[0], 0.3, 1e-6)
      << "constraint expected to be active";
  EXPECT_FALSE(r.policy->is_deterministic(1e-6));
}

TEST(Optimizer, InfeasibleDetected) {
  // Queue-length average below the workload's floor is impossible
  // (Fig. 6's infeasible region).
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  const OptimizationResult r = opt.minimize_power(/*max_avg_queue=*/0.0001);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.lp_status, lp::LpStatus::kInfeasible);
}

TEST(Optimizer, ExtractedPolicyReproducesLpCosts) {
  // Evaluating the extracted policy exactly must reproduce the LP's
  // objective and constraint values (the frequencies ARE the policy's
  // discounted frequencies).
  const SystemModel m = ExampleSystem::make_model();
  const double gamma = 0.999;
  const PolicyOptimizer opt(m, example_config(m, gamma));
  const OptimizationResult r = opt.minimize_power(0.35);
  ASSERT_TRUE(r.feasible);
  const PolicyEvaluation ev(m, *r.policy, gamma,
                            opt.config().initial_distribution);
  EXPECT_NEAR(ev.per_step(metrics::power(m)), r.objective_per_step, 1e-6);
  EXPECT_NEAR(ev.per_step(metrics::queue_length(m)),
              r.constraint_per_step[0], 1e-6);
}

TEST(Optimizer, OptimalBeatsHeuristicsUnderSameConstraint) {
  const SystemModel m = ExampleSystem::make_model();
  const double gamma = 0.999;
  const PolicyOptimizer opt(m, example_config(m, gamma));
  const OptimizationResult r = opt.minimize_power(0.4);
  ASSERT_TRUE(r.feasible);
  // Any feasible heuristic meeting the same queue constraint cannot be
  // cheaper.  The always-on policy trivially meets it.
  const PolicyEvaluation on(m,
                            cases::always_on_policy(m, ExampleSystem::kCmdOn),
                            gamma, opt.config().initial_distribution);
  ASSERT_LE(on.per_step(metrics::queue_length(m)), 0.4);
  EXPECT_LE(r.objective_per_step,
            on.per_step(metrics::power(m)) + 1e-9);
}

TEST(Optimizer, RequestLossConstraintSupported) {
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  // The loss floor at this workload is ~0.155 (the requester's burst
  // tail overwhelms a capacity-1 queue even when always on); 0.18 is a
  // binding but feasible bound.
  const OptimizationResult r =
      opt.minimize_power(0.5, /*max_loss_rate=*/0.18);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.constraint_per_step.size(), 2u);
  EXPECT_LE(r.constraint_per_step[1], 0.18 + 1e-8);
}

TEST(Optimizer, TighterConstraintNeverCheaper) {
  // Monotonicity of the tradeoff curve f(P).
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  double last_power = -1.0;
  for (const double q : {0.6, 0.5, 0.4, 0.3, 0.25}) {
    const OptimizationResult r = opt.minimize_power(q);
    ASSERT_TRUE(r.feasible) << "queue bound " << q;
    EXPECT_GE(r.objective_per_step, last_power - 1e-8);
    last_power = r.objective_per_step;
  }
}

TEST(Optimizer, ParetoCurveIsConvex) {
  // Theorem 4.1: the efficient-allocation set is convex, so power as a
  // function of the queue bound has nonincreasing increments.
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  const std::vector<double> bounds{0.25, 0.3, 0.35, 0.4, 0.45, 0.5};
  const auto curve = opt.sweep(metrics::power(m), metrics::queue_length(m),
                               "queue", bounds);
  ASSERT_EQ(curve.size(), bounds.size());
  for (const auto& pt : curve) ASSERT_TRUE(pt.feasible);
  for (std::size_t i = 2; i < curve.size(); ++i) {
    const double d1 = curve[i - 1].objective - curve[i - 2].objective;
    const double d2 = curve[i].objective - curve[i - 1].objective;
    // Equal spacing: slopes must be nondecreasing toward 0 (convex,
    // nonincreasing curve).
    EXPECT_LE(d1, d2 + 1e-6);
  }
}

TEST(Optimizer, SweepMarksInfeasiblePoints) {
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  const auto curve = opt.sweep(metrics::power(m), metrics::queue_length(m),
                               "queue", {0.0001, 0.5});
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_FALSE(curve[0].feasible);
  EXPECT_TRUE(curve[1].feasible);
  EXPECT_FALSE(curve[0].policy.has_value());
}

TEST(Optimizer, WarmStartedSweepMatchesColdSolves) {
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m, 0.999));
  const std::vector<double> bounds{0.2, 0.3, 0.4, 0.5, 0.7};
  const std::vector<OptimizationConstraint> fixed{
      {metrics::request_loss(m), 0.3, "loss"}};

  // Warm-started sweep (revised-simplex default backend) vs. independent
  // cold solves of exactly the same instances.
  const auto curve = opt.sweep(metrics::power(m), metrics::queue_length(m),
                               "queue", bounds, fixed);
  ASSERT_EQ(curve.size(), bounds.size());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    std::vector<OptimizationConstraint> constraints = fixed;
    constraints.push_back({metrics::queue_length(m), bounds[i], "queue"});
    const OptimizationResult cold = opt.minimize(metrics::power(m),
                                                 constraints);
    ASSERT_EQ(curve[i].feasible, cold.feasible) << "bound " << bounds[i];
    if (cold.feasible) {
      EXPECT_NEAR(curve[i].objective, cold.objective_per_step,
                  1e-6 * (1.0 + std::abs(cold.objective_per_step)))
          << "bound " << bounds[i];
    }
  }
}

TEST(Optimizer, TableauAgrees) {
  const SystemModel m = ExampleSystem::make_model();
  const OptimizerConfig cfg = example_config(m, 0.99);
  const PolicyOptimizer opt(m, cfg);
  const OptimizationResult r = opt.minimize_power(0.4);
  ASSERT_TRUE(r.feasible);
  const lp::LpSolution t = lp::solve_simplex(opt.build_lp(
      metrics::power(m), {{metrics::queue_length(m), 0.4, "performance"}}));
  ASSERT_EQ(t.status, lp::LpStatus::kOptimal);
  EXPECT_NEAR(r.objective_per_step, (1.0 - cfg.discount) * t.objective,
              1e-9 * (1.0 + std::abs(r.objective_per_step)));
}

TEST(Optimizer, Lp3Lp4Duality) {
  // Appendix A: "the minimum power consumption obtained by solving LP4
  // for a given performance constraint D is equal to the value we
  // should assign to the power constraint if we want to obtain a
  // solution of LP3 with minimum performance penalty D."
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  const double queue_bound = 0.35;
  const OptimizationResult lp4 = opt.minimize_power(queue_bound);
  ASSERT_TRUE(lp4.feasible);
  // Feed LP4's optimal power back as LP3's power budget:
  const OptimizationResult lp3 =
      opt.minimize_penalty(lp4.objective_per_step + 1e-9);
  ASSERT_TRUE(lp3.feasible);
  EXPECT_NEAR(lp3.objective_per_step, queue_bound, 1e-6);
}

TEST(Optimizer, MinimizePenaltyRespectsPowerBudget) {
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  for (const double budget : {1.5, 2.0, 2.5}) {
    const OptimizationResult r = opt.minimize_penalty(budget);
    ASSERT_TRUE(r.feasible) << "budget " << budget;
    EXPECT_LE(r.constraint_per_step[0], budget + 1e-7);
  }
}

TEST(Optimizer, PenaltyFallsWithPowerBudget) {
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  double last = 1e300;
  for (const double budget : {1.2, 1.6, 2.0, 2.4, 2.8}) {
    const OptimizationResult r = opt.minimize_penalty(budget);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.objective_per_step, last + 1e-8);
    last = r.objective_per_step;
  }
}

TEST(Optimizer, ExtractPolicyValidatesSize) {
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  EXPECT_THROW(opt.extract_policy(linalg::Vector(3, 1.0)), ModelError);
}

TEST(Optimizer, ExtractPolicyUniformOnUnreachable) {
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, example_config(m));
  linalg::Vector x(m.num_states() * m.num_commands(), 0.0);
  x[0] = 1.0;  // only state 0 / command 0 visited
  const Policy p = opt.extract_policy(x);
  EXPECT_DOUBLE_EQ(p.probability(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.probability(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(p.probability(1, 1), 0.5);
}

// Property: optimal cost from the LP can never beat the best of a large
// family of randomized-shutdown policies by being *worse* — i.e., the LP
// optimum lower-bounds every member (global optimality, Theorem A.1).
class GlobalOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(GlobalOptimalityTest, LpLowerBoundsRandomPolicies) {
  const int seed = GetParam();
  const SystemModel m = ExampleSystem::make_model();
  const double gamma = 0.995;
  const PolicyOptimizer opt(m, example_config(m, gamma));
  const OptimizationResult r = opt.minimize(metrics::power(m));
  ASSERT_TRUE(r.feasible);

  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  linalg::Matrix d(m.num_states(), m.num_commands());
  for (std::size_t s = 0; s < m.num_states(); ++s) {
    const double p = u(gen);
    d(s, 0) = p;
    d(s, 1) = 1.0 - p;
  }
  const PolicyEvaluation ev(m, Policy::randomized(d), gamma,
                            opt.config().initial_distribution);
  EXPECT_GE(ev.per_step(metrics::power(m)),
            r.objective_per_step - 1e-8)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobalOptimalityTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace dpm
