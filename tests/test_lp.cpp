// Unit and property tests for the LP solvers (simplex and interior
// point), plus the retained revised-simplex engine's session loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "dpm/metrics.h"
#include "dpm/optimizer.h"
#include "lp/revised_simplex.h"
#include "lp/solver.h"
#include "robust/supervisor.h"
#include "serve/fleet.h"

namespace dpm::lp {
namespace {

// min -x - y  s.t.  x + y <= 4, x <= 2, y <= 3  -> optimum -4 on a face.
LpProblem box_problem() {
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0, "x");
  const std::size_t y = p.add_variable(-1.0, "y");
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, "cap"});
  p.add_constraint({{{x, 1.0}}, Sense::kLe, 2.0, "xmax"});
  p.add_constraint({{{y, 1.0}}, Sense::kLe, 3.0, "ymax"});
  return p;
}

TEST(Problem, VariableNamesAndCosts) {
  LpProblem p;
  EXPECT_EQ(p.add_variable(1.5, "a"), 0u);
  EXPECT_EQ(p.add_variable(-2.0), 1u);
  EXPECT_EQ(p.variable_name(0), "a");
  EXPECT_EQ(p.variable_name(1), "x1");
  EXPECT_EQ(p.costs()[1], -2.0);
}

TEST(Problem, RejectsUnknownVariable) {
  LpProblem p;
  p.add_variable(1.0);
  EXPECT_THROW(p.add_constraint({{{5, 1.0}}, Sense::kEq, 0.0, ""}), LpError);
}

TEST(Problem, MergesDuplicateTerms) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_constraint({{{x, 1.0}, {x, 2.0}}, Sense::kEq, 3.0, ""});
  ASSERT_EQ(p.constraints()[0].terms.size(), 1u);
  EXPECT_EQ(p.constraints()[0].terms[0].second, 3.0);
}

TEST(Problem, DenseConstraintSizeChecked) {
  LpProblem p;
  p.add_variable(1.0);
  EXPECT_THROW(p.add_dense_constraint({1.0, 2.0}, Sense::kLe, 1.0), LpError);
}

TEST(Problem, MaxViolation) {
  LpProblem p = box_problem();
  EXPECT_NEAR(p.max_violation({2.0, 3.0}), 1.0, 1e-12);  // cap exceeded by 1
  EXPECT_NEAR(p.max_violation({1.0, 1.0}), 0.0, 1e-12);
  EXPECT_NEAR(p.max_violation({-0.5, 0.0}), 0.5, 1e-12);  // x >= 0
}

TEST(Problem, StatusToString) {
  EXPECT_STREQ(to_string(LpStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(LpStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(LpStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(LpStatus::kIterationLimit), "iteration-limit");
}

// ---------------------------------------------------------------------
// Simplex
// ---------------------------------------------------------------------

TEST(Simplex, SolvesBoxProblem) {
  const LpSolution s = solve_simplex(box_problem());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-9);
  EXPECT_NEAR(s.x[0] + s.x[1], 4.0, 1e-9);
}

TEST(Simplex, SolvesEqualityProblem) {
  // min x + 2y s.t. x + y = 3  -> x = 3, y = 0, obj = 3.
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(2.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 3.0, ""});
  const LpSolution s = solve_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
}

TEST(Simplex, SolvesGeConstraints) {
  // min 2x + 3y s.t. x + y >= 5, x >= 1 -> (4, 1)?  cost 2x+3y minimized
  // by pushing y to 0: (5, 0) violates nothing, cost 10.
  LpProblem p;
  const std::size_t x = p.add_variable(2.0);
  const std::size_t y = p.add_variable(3.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kGe, 5.0, ""});
  p.add_constraint({{{x, 1.0}}, Sense::kGe, 1.0, ""});
  const LpSolution s = solve_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-9);
  EXPECT_NEAR(s.x[0], 5.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_constraint({{{x, 1.0}}, Sense::kLe, 1.0, ""});
  p.add_constraint({{{x, 1.0}}, Sense::kGe, 2.0, ""});
  EXPECT_EQ(solve_simplex(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);  // min -x, x free upward
  p.add_variable(1.0);
  p.add_constraint({{{x, -1.0}}, Sense::kLe, 0.0, ""});  // -x <= 0 always
  EXPECT_EQ(solve_simplex(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsHandled) {
  // x - y <= -2 with min x + y  ->  y >= x + 2, best (0, 2).
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(1.0);
  p.add_constraint({{{x, 1.0}, {y, -1.0}}, Sense::kLe, -2.0, ""});
  const LpSolution s = solve_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: several redundant constraints through the
  // optimum.
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t y = p.add_variable(-1.0);
  p.add_constraint({{{x, 1.0}}, Sense::kLe, 1.0, ""});
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 2.0, ""});
  p.add_constraint({{{x, 2.0}, {y, 2.0}}, Sense::kLe, 4.0, ""});
  p.add_constraint({{{y, 1.0}}, Sense::kLe, 1.0, ""});
  const LpSolution s = solve_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-9);
}

TEST(Simplex, EmptyProblemThrows) {
  EXPECT_THROW(solve_simplex(LpProblem{}), LpError);
}

TEST(Simplex, RedundantEqualityRowsAreHarmless) {
  // x + y = 2 listed twice; min x -> (0, 2).
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(0.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 2.0, ""});
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 2.0, ""});
  const LpSolution s = solve_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
  EXPECT_NEAR(s.x[1], 2.0, 1e-9);
}

// ---------------------------------------------------------------------
// Interior point
// ---------------------------------------------------------------------

TEST(InteriorPoint, SolvesBoxProblem) {
  const LpSolution s = solve_interior_point(box_problem());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-6);
}

TEST(InteriorPoint, SolvesEqualityProblem) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(2.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 3.0, ""});
  const LpSolution s = solve_interior_point(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
}

TEST(InteriorPoint, EmptyProblemThrows) {
  EXPECT_THROW(solve_interior_point(LpProblem{}), LpError);
}

TEST(SolverFacade, DispatchesBackends) {
  const LpProblem p = box_problem();
  const LpSolution a = solve(p, Backend::kSimplex);
  const LpSolution b = solve(p, Backend::kInteriorPoint);
  ASSERT_EQ(a.status, LpStatus::kOptimal);
  ASSERT_EQ(b.status, LpStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-5);
}

// Property: on random feasible bounded LPs, the two backends agree on
// the optimal objective and both satisfy the constraints.
class SolverAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreementTest, SimplexMatchesInteriorPoint) {
  const int seed = GetParam();
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.1, 2.0);
  std::uniform_int_distribution<int> dim(2, 8);

  const int n = dim(gen);
  const int m = dim(gen);
  LpProblem p;
  for (int j = 0; j < n; ++j) p.add_variable(u(gen));
  // Feasible by construction: A x <= A x0 + slack with x0 > 0, A >= 0,
  // and one >= row keeping the problem bounded away from 0.
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
  {
    Constraint c;
    for (int j = 0; j < n; ++j) c.terms.emplace_back(j, 1.0);
    c.sense = Sense::kGe;
    c.rhs = 0.5 * linalg::sum(x0);
    p.add_constraint(std::move(c));
  }

  const LpSolution s1 = solve_simplex(p);
  const LpSolution s2 = solve_interior_point(p);
  ASSERT_EQ(s1.status, LpStatus::kOptimal) << "seed " << seed;
  ASSERT_EQ(s2.status, LpStatus::kOptimal) << "seed " << seed;
  EXPECT_NEAR(s1.objective, s2.objective,
              1e-5 * (1.0 + std::abs(s1.objective)))
      << "seed " << seed;
  EXPECT_LT(p.max_violation(s1.x), 1e-7);
  EXPECT_LT(p.max_violation(s2.x), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SolverAgreementTest,
                         ::testing::Range(0, 25));

// --- retained engine: the dpmd session loop ----------------------------
//
// A session serves a stream of rhs points of one LP.  The reference is
// a new engine per solve: a supervised solve warm-started from the
// session basis, then a supervised canonical finish from its basis.
// The retained loop is what PolicyEngine runs: both solves on the
// session's retained engine, the finish skipped when the repair left
// the basis where it started.  Every point must agree bit for bit.

struct Served {
  bool determined = false;
  LpSolution solution;
  std::uint64_t pivots = 0;  // determining-rung iterations, both solves
};

std::uint64_t rung_pivots(const robust::SolveOutcome& outcome) {
  return outcome.steps.empty() ? 0 : outcome.steps.back().iterations;
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Served serve_point(const LpProblem& lp, SimplexBasis& basis,
                   RetainedSimplex* retained) {
  robust::SupervisorOptions options;
  options.lp.retained = retained;
  const robust::SolveSupervisor supervisor(options);
  const bool warm = !basis.empty();
  SimplexBasis working;
  robust::SolveOutcome outcome =
      supervisor.solve(lp, warm ? &basis : nullptr, &working);
  Served served;
  served.pivots = rung_pivots(outcome);
  if (outcome.determined() &&
      outcome.solution.status == LpStatus::kOptimal) {
    const robust::RecoveryRung rung = outcome.steps.back().rung;
    if (retained != nullptr && warm &&
        (rung == robust::RecoveryRung::kPlain ||
         rung == robust::RecoveryRung::kRetryRefactorize) &&
        working == basis) {
      served.pivots *= 2;  // the finish would repeat this very solve
    } else {
      SimplexBasis canonical;
      outcome = supervisor.solve(lp, &working, &canonical);
      served.pivots += rung_pivots(outcome);
      working = std::move(canonical);
    }
  }
  served.determined = outcome.determined();
  served.solution = outcome.solution;
  if (served.determined && served.solution.status == LpStatus::kOptimal) {
    basis = std::move(working);
  }
  return served;
}

TEST(RetainedSimplex, SessionLoopMatchesNewEnginesBitwise) {
  // A small fleet MDP LP: balance rows (p0), a queue bound, a "ge"
  // throughput floor stored negated (its rhs crosses zero), plus an
  // empty row and a singleton row whose absorption depends on the rhs.
  const SystemModel model = serve::fleet_model_spec(1, 3).compose();
  OptimizerConfig config;
  config.discount = 0.99;
  const PolicyOptimizer optimizer(model, config);
  const StateActionMetric throughput = metrics::throughput(model);
  std::vector<OptimizationConstraint> constraints(2);
  constraints[0].metric = metrics::queue_length(model);
  constraints[0].per_step_bound = 0.6;
  constraints[1].metric = [throughput](std::size_t s, std::size_t a) {
    return -throughput(s, a);
  };
  constraints[1].per_step_bound = 0.0;
  LpProblem lp = optimizer.build_lp(metrics::power(model), constraints);
  const std::size_t n = model.num_states();
  const double horizon = 1.0 / (1.0 - config.discount);
  const std::size_t queue_row = n;
  const std::size_t floor_row = n + 1;
  const std::size_t empty_row = lp.num_constraints();
  lp.add_constraint({{}, Sense::kLe, 1.0, "empty"});
  const std::size_t singleton_row = lp.num_constraints();
  lp.add_constraint({{{0, 1.0}}, Sense::kLe, horizon, "cap-x0"});

  std::mt19937_64 rng(20240515);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto set_p0 = [&](bool sparse) {
    linalg::Vector p0(n, 0.0);
    double mass = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (sparse && unit(rng) < 0.6) continue;  // zero entries
      p0[j] = 0.05 + unit(rng);
      mass += p0[j];
    }
    if (mass == 0.0) {
      p0[0] = 1.0;
      mass = 1.0;
    }
    for (std::size_t j = 0; j < n; ++j) lp.set_rhs(j, p0[j] / mass);
  };
  set_p0(false);

  SimplexBasis fresh_basis, kept_basis;
  RetainedSimplex engine;
  std::size_t skipped = 0, pivoting = 0, infeasible_then_feasible = 0;
  std::size_t floor_sign_flips = 0, evictions = 0;
  bool last_infeasible = false;
  double last_floor = 0.0;
  std::uint64_t fresh_refactors = 0, kept_refactors = 0;
  for (int step = 0; step < 160; ++step) {
    const double r = unit(rng);
    if (r < 0.04) {
      // LRU eviction, then re-registration: both sessions start over.
      engine.reset();
      fresh_basis = SimplexBasis{};
      kept_basis = SimplexBasis{};
      ++evictions;
    } else if (r < 0.2) {
      set_p0(unit(rng) < 0.7);
    } else if (r < 0.3) {
      const double floor = 0.04 * unit(rng) - 0.02;  // crosses zero
      if ((floor > 0.0) != (last_floor > 0.0)) ++floor_sign_flips;
      last_floor = floor;
      lp.set_rhs(floor_row, -floor * horizon);
    } else if (r < 0.36) {
      const double pick = unit(rng);
      lp.set_rhs(empty_row, pick < 0.2 ? -1.0 : pick < 0.5 ? 0.0 : 2.0);
    } else if (r < 0.44) {
      const double pick = unit(rng);
      lp.set_rhs(singleton_row,
                 pick < 0.1 ? -1.0 : (pick < 0.5 ? 0.3 : 1.0) * horizon);
    } else {
      // A bound move; now and then one no policy meets.
      const double pick = unit(rng);
      const double bound = pick < 0.08 ? 0.02 : 0.6 + 0.8 * unit(rng);
      lp.set_rhs(queue_row, bound * horizon);
    }

    const std::uint64_t r0 = sweep_telemetry().refactorizations;
    const Served want = serve_point(lp, fresh_basis, nullptr);
    const std::uint64_t r1 = sweep_telemetry().refactorizations;
    const bool warm = !kept_basis.empty();
    const SimplexBasis before = kept_basis;
    const Served got = serve_point(lp, kept_basis, &engine);
    const std::uint64_t r2 = sweep_telemetry().refactorizations;
    fresh_refactors += r1 - r0;
    kept_refactors += r2 - r1;

    ASSERT_EQ(got.determined, want.determined) << "step " << step;
    ASSERT_EQ(got.solution.status, want.solution.status) << "step " << step;
    ASSERT_EQ(got.pivots, want.pivots) << "step " << step;
    ASSERT_TRUE(kept_basis == fresh_basis) << "step " << step;
    if (want.solution.status == LpStatus::kOptimal) {
      ASSERT_EQ(std::memcmp(&got.solution.objective, &want.solution.objective,
                            sizeof(double)),
                0)
          << "step " << step;
      ASSERT_TRUE(same_bits(got.solution.x, want.solution.x))
          << "step " << step;
      ASSERT_TRUE(same_bits(got.solution.duals, want.solution.duals))
          << "step " << step;
      if (warm && kept_basis == before) {
        ++skipped;
      } else if (warm) {
        ++pivoting;
      }
      if (last_infeasible) ++infeasible_then_feasible;
    }
    last_infeasible = want.solution.status == LpStatus::kInfeasible;
  }
  // The walk reached every case it is meant to cover.
  EXPECT_GT(skipped, 20u);
  EXPECT_GT(pivoting, 10u);
  EXPECT_GT(infeasible_then_feasible, 5u);
  EXPECT_GT(floor_sign_flips, 3u);
  EXPECT_GT(evictions, 2u);
  // ...and the retained engine saved from-scratch LUs doing it.
  EXPECT_LT(2 * kept_refactors, fresh_refactors);
}

// Direct solves through one handle, cold and warm from assorted bases
// of earlier points, against a new engine per solve.  The LP has more
// columns than a partial-pricing section, so the pricing rotation
// matters; the throughput floor's negated rhs crosses zero, so cold
// phase 1 runs with either artificial sign; and warm starts from bases
// other than the one the engine's LU was built for must refactorize.
TEST(RetainedSimplex, ReusedEngineSolvesLikeANewOne) {
  const SystemModel model = serve::fleet_model_spec(2, 32).compose();
  OptimizerConfig config;
  config.discount = 0.99;
  const PolicyOptimizer optimizer(model, config);
  const StateActionMetric throughput = metrics::throughput(model);
  std::vector<OptimizationConstraint> constraints(2);
  constraints[0].metric = metrics::queue_length(model);
  constraints[1].metric = [throughput](std::size_t s, std::size_t a) {
    return -throughput(s, a);
  };
  LpProblem lp = optimizer.build_lp(metrics::power(model), constraints);
  ASSERT_GT(lp.num_variables(), 256u);
  const std::size_t n = model.num_states();
  const double horizon = 1.0 / (1.0 - config.discount);

  const RevisedSimplexOptions fresh;
  RetainedSimplex handle;
  RevisedSimplexOptions kept = fresh;
  kept.retained = &handle;

  const auto expect_same = [&](const SimplexBasis* warm, const char* what,
                               int step, SimplexBasis* out) {
    SimplexBasis want_basis;
    const LpSolution want = solve_revised_simplex(lp, fresh, warm, &want_basis);
    const LpSolution got = solve_revised_simplex(lp, kept, warm, out);
    EXPECT_EQ(got.status, want.status) << what << " step " << step;
    EXPECT_EQ(got.iterations, want.iterations) << what << " step " << step;
    if (want.status != LpStatus::kOptimal) return false;
    EXPECT_EQ(std::memcmp(&got.objective, &want.objective, sizeof(double)),
              0)
        << what << " step " << step;
    EXPECT_TRUE(same_bits(got.x, want.x)) << what << " step " << step;
    EXPECT_TRUE(same_bits(got.duals, want.duals)) << what << " step " << step;
    EXPECT_TRUE(*out == want_basis) << what << " step " << step;
    return true;
  };

  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<SimplexBasis> seen;
  std::size_t optimal = 0;
  for (int step = 0; step < 12; ++step) {
    double mass = 0.0;
    linalg::Vector p0(n, 0.0);
    for (double& p : p0) {
      p = step % 2 == 0 && unit(rng) < 0.5 ? 0.0 : 0.1 + unit(rng);
      mass += p;
    }
    for (std::size_t j = 0; j < n; ++j) lp.set_rhs(j, p0[j] / mass);
    lp.set_rhs(n, (12.0 + 16.0 * unit(rng)) * horizon);
    lp.set_rhs(n + 1, -(step % 3 == 0 ? -0.01 : 0.01 * unit(rng)) * horizon);

    SimplexBasis cold;
    if (!expect_same(nullptr, "cold", step, &cold)) continue;
    ++optimal;
    SimplexBasis scratch;
    if (!seen.empty()) {
      expect_same(&seen.back(), "warm from the last point", step, &scratch);
      expect_same(&seen[seen.size() / 2], "warm from an older point", step,
                  &scratch);
    }
    expect_same(&cold, "warm from its own optimum", step, &scratch);
    expect_same(&cold, "the same again", step, &scratch);
    seen.push_back(cold);
  }
  EXPECT_GT(optimal, 8u);
}

}  // namespace
}  // namespace dpm::lp
