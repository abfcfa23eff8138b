// Policy-iteration crash bases (dpm/crash.h + the engine's
// crash_columns option): a crash-seeded solve must reach the same
// optimum as the cold solve in (substantially) fewer pivots on
// structured MDP balance-equation LPs.  A malformed seed (wrong shape,
// nothing valid to install) degrades to the ordinary cold solve; one
// that installs but will not factor is a typed failure the
// supervisor's cold restart clears — never a wrong answer.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "dpm/crash.h"
#include "lp/revised_simplex.h"
#include "markov/sparse_chain.h"
#include "robust/fault_injection.h"
#include "robust/supervisor.h"

namespace dpm {
namespace {

markov::SparseControlledChain random_chain(std::size_t n, std::size_t na,
                                           std::size_t succ,
                                           std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.05, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::vector<std::vector<markov::TransitionRow>> rows(
      na, std::vector<markov::TransitionRow>(n));
  for (std::size_t a = 0; a < na; ++a) {
    for (std::size_t s = 0; s < n; ++s) {
      double total = 0.0;
      for (std::size_t k = 0; k < succ; ++k) {
        rows[a][s].emplace_back(pick(gen), u(gen));
        total += rows[a][s].back().second;
      }
      for (auto& [to, w] : rows[a][s]) w /= total;
    }
  }
  return markov::SparseControlledChain(n, std::move(rows));
}

/// The LP2 shape: balance equalities over the chain, one loose metric
/// cap.  Returns the problem and the per-pair costs.
lp::LpProblem balance_lp(const markov::SparseControlledChain& chain,
                         double gamma, linalg::Matrix& cost_out,
                         std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::size_t n = chain.num_states();
  const std::size_t na = chain.num_commands();
  cost_out = linalg::Matrix(n, na);
  lp::LpProblem p;
  lp::Constraint cap;
  cap.sense = lp::Sense::kLe;
  double max_metric = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < na; ++a) {
      const double c = 5.0 * u(gen);
      cost_out(s, a) = c;
      p.add_variable(c);
      const double m = 3.0 * u(gen);
      cap.terms.emplace_back(s * na + a, m);
      max_metric = std::max(max_metric, m);
    }
  }
  std::vector<lp::Constraint> balance(n);
  for (std::size_t j = 0; j < n; ++j) {
    balance[j].sense = lp::Sense::kEq;
    balance[j].rhs = 1.0 / static_cast<double>(n);
  }
  for (std::size_t a = 0; a < na; ++a) {
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t col = s * na + a;
      balance[s].terms.emplace_back(col, 1.0);
      for (const auto& [j, w] : chain.row(a, s)) {
        balance[j].terms.emplace_back(col, -gamma * w);
      }
    }
  }
  for (auto& c : balance) p.add_constraint(std::move(c));
  cap.rhs = 0.8 * max_metric / (1.0 - gamma);
  p.add_constraint(std::move(cap));
  return p;
}

// Crash vs cold on a structured model: identical objective, fewer
// pivots, and the stats record the seed's survival.
TEST(CrashBasis, MatchesColdObjectiveInFewerPivots) {
  const std::size_t n = 400, na = 4;
  const double gamma = 0.99;
  const markov::SparseControlledChain chain = random_chain(n, na, 4, 21);
  linalg::Matrix cost;
  const lp::LpProblem p = balance_lp(chain, gamma, cost, 23);

  lp::SimplexStats cold_stats;
  lp::RevisedSimplexOptions cold_opt;
  cold_opt.stats = &cold_stats;
  const lp::LpSolution cold = lp::solve_revised_simplex(p, cold_opt);
  ASSERT_EQ(cold.status, lp::LpStatus::kOptimal);
  EXPECT_FALSE(cold_stats.crash_basis_used);
  EXPECT_EQ(cold_stats.crash_pivots_saved, 0u);

  const std::vector<std::size_t> actions = greedy_crash_actions(
      chain, [&](std::size_t s, std::size_t a) { return cost(s, a); }, gamma);
  ASSERT_EQ(actions.size(), n);
  const std::vector<std::size_t> crash_cols =
      crash_columns_for_lp(actions, na, p.num_constraints());
  ASSERT_EQ(crash_cols.size(), n + 1);
  EXPECT_GE(crash_cols.back(), p.num_variables());  // metric row unseeded

  lp::SimplexStats crash_stats;
  lp::RevisedSimplexOptions crash_opt;
  crash_opt.stats = &crash_stats;
  crash_opt.crash_columns = &crash_cols;
  const lp::LpSolution crash = lp::solve_revised_simplex(p, crash_opt);
  ASSERT_EQ(crash.status, lp::LpStatus::kOptimal);
  EXPECT_TRUE(crash_stats.crash_basis_used);
  EXPECT_GT(crash_stats.crash_pivots_saved, 0u);
  EXPECT_NEAR(crash.objective, cold.objective,
              1e-7 * (1.0 + std::abs(cold.objective)));
  // The whole point: the seed skips the phase-1 walk.
  EXPECT_LT(crash.iterations, cold.iterations / 2)
      << "crash=" << crash.iterations << " cold=" << cold.iterations;
}

// A singular seed (two rows nominating proportional columns) installs
// but will not factor.  Unsupervised that is a typed failure, as for a
// warm basis; supervised, the cold restart drops the seed and answers
// with the cold objective.  (The LP is not in Leontief form — x0 has
// two positive entries — so no Lagrangian seed replaces the caller's.)
TEST(CrashBasis, SingularSeedIsATypedFailureTheColdRestartClears) {
  lp::LpProblem p;
  p.add_variable(1.0);  // x0, column [1, 1]
  p.add_variable(1.0);  // x1, column [2, 2] — a multiple of x0's
  p.add_variable(1.0);  // x2, column [1, 0]
  lp::Constraint r0, r1;
  r0.sense = lp::Sense::kEq;
  r0.rhs = 2.0;
  r0.terms = {{0, 1.0}, {1, 2.0}, {2, 1.0}};
  r1.sense = lp::Sense::kEq;
  r1.rhs = 1.0;
  r1.terms = {{0, 1.0}, {1, 2.0}};
  p.add_constraint(std::move(r0));
  p.add_constraint(std::move(r1));

  const lp::LpSolution reference = lp::solve_revised_simplex(p);
  ASSERT_EQ(reference.status, lp::LpStatus::kOptimal);

  const std::vector<std::size_t> crash_cols = {0, 1};  // singular pair
  lp::SimplexStats stats;
  lp::RevisedSimplexOptions opt;
  opt.stats = &stats;
  opt.crash_columns = &crash_cols;
  const lp::LpSolution sol = lp::solve_revised_simplex(p, opt);
  EXPECT_EQ(sol.status, lp::LpStatus::kNumericalFailure);
  ASSERT_NE(sol.note, nullptr);
  EXPECT_STREQ(sol.note, "singular-refactorization");
  EXPECT_FALSE(stats.crash_basis_used);

  robust::SupervisorOptions sopt;
  sopt.lp.crash_columns = &crash_cols;
  const robust::SolveOutcome out = robust::SolveSupervisor(sopt).solve(p);
  ASSERT_TRUE(out.determined());
  ASSERT_EQ(out.solution.status, lp::LpStatus::kOptimal);
  EXPECT_EQ(out.steps.back().rung, robust::RecoveryRung::kColdRestart);
  EXPECT_EQ(out.solution.objective, reference.objective);
}

// Structurally defective seeds: wrong length and no valid nomination
// are malformed and solve cold-equivalent, silently.  An all-duplicate
// nomination installs its one valid seed (column 7 on row 0, where it
// has no entry) and so will not factor: a typed failure unsupervised,
// the cold objective on the supervisor's cold restart.
TEST(CrashBasis, DefectiveSeedsAreHarmless) {
  const std::size_t n = 60, na = 3;
  const markov::SparseControlledChain chain = random_chain(n, na, 3, 31);
  linalg::Matrix cost;
  const lp::LpProblem p = balance_lp(chain, 0.95, cost, 33);
  const lp::LpSolution reference = lp::solve_revised_simplex(p);
  ASSERT_EQ(reference.status, lp::LpStatus::kOptimal);

  const std::size_t none = std::numeric_limits<std::size_t>::max();
  const std::vector<std::vector<std::size_t>> malformed = {
      std::vector<std::size_t>(n / 2, 0),       // wrong length
      std::vector<std::size_t>(n + 1, none),    // right length, no seeds
  };
  for (const auto& crash_cols : malformed) {
    lp::RevisedSimplexOptions opt;
    opt.crash_columns = &crash_cols;
    const lp::LpSolution sol = lp::solve_revised_simplex(p, opt);
    ASSERT_EQ(sol.status, lp::LpStatus::kOptimal);
    EXPECT_NEAR(sol.objective, reference.objective,
                1e-7 * (1.0 + std::abs(reference.objective)));
  }

  const std::vector<std::size_t> duplicates(n + 1, 7);
  lp::RevisedSimplexOptions opt;
  opt.crash_columns = &duplicates;
  const lp::LpSolution sol = lp::solve_revised_simplex(p, opt);
  EXPECT_EQ(sol.status, lp::LpStatus::kNumericalFailure);

  // Supervised, the LP is in Leontief form, so the Lagrangian seed
  // replaces the defective one on the first two rungs.
  robust::SupervisorOptions sopt;
  sopt.lp.crash_columns = &duplicates;
  const robust::SolveOutcome out = robust::SolveSupervisor(sopt).solve(p);
  ASSERT_TRUE(out.determined());
  ASSERT_EQ(out.solution.status, lp::LpStatus::kOptimal);
  EXPECT_EQ(out.steps.size(), 1u);
  EXPECT_NEAR(out.solution.objective, reference.objective,
              1e-9 * (1.0 + std::abs(reference.objective)));

  // A second, loose `<=` row takes the LP out of Leontief form, so the
  // caller's seed reaches the engine: both seeded rungs fail typed and
  // the cold restart answers with the cold objective.
  lp::LpProblem loose = p;
  lp::Constraint cap;
  cap.sense = lp::Sense::kLe;
  cap.rhs = 1e9;
  for (std::size_t j = 0; j < p.num_variables(); ++j) {
    cap.terms.emplace_back(j, 1.0);
  }
  loose.add_constraint(std::move(cap));
  const lp::LpSolution loose_reference = lp::solve_revised_simplex(loose);
  ASSERT_EQ(loose_reference.status, lp::LpStatus::kOptimal);
  const std::vector<std::size_t> loose_duplicates(n + 2, 7);
  sopt.lp.crash_columns = &loose_duplicates;
  const robust::SolveOutcome cold = robust::SolveSupervisor(sopt).solve(loose);
  ASSERT_TRUE(cold.determined());
  ASSERT_EQ(cold.solution.status, lp::LpStatus::kOptimal);
  ASSERT_EQ(cold.steps.size(), 3u);
  EXPECT_EQ(cold.steps[0].status, lp::LpStatus::kNumericalFailure);
  EXPECT_EQ(cold.steps.back().rung, robust::RecoveryRung::kColdRestart);
  EXPECT_EQ(cold.solution.objective, loose_reference.objective);
}

// A single-shot injected fault on the crash-installation probe
// (FaultSite::kWarmBasis fires on the crash path when no warm basis is
// supplied) must surface as a typed failure that the supervisor's
// retry rung absorbs — and because the retry reuses the crash options
// verbatim, the recovered solution is byte-identical to fault-free.
TEST(CrashBasis, CorruptedCrashSeedRecoversBitwiseViaSupervisor) {
  const std::size_t n = 150, na = 3;
  const double gamma = 0.98;
  const markov::SparseControlledChain chain = random_chain(n, na, 3, 51);
  linalg::Matrix cost;
  const lp::LpProblem p = balance_lp(chain, gamma, cost, 53);
  const std::vector<std::size_t> actions = greedy_crash_actions(
      chain, [&](std::size_t s, std::size_t a) { return cost(s, a); }, gamma);
  const std::vector<std::size_t> crash_cols =
      crash_columns_for_lp(actions, na, p.num_constraints());

  robust::SupervisorOptions sopt;
  sopt.lp.crash_columns = &crash_cols;
  const robust::SolveSupervisor supervisor(sopt);
  const robust::SolveOutcome clean = supervisor.solve(p);
  ASSERT_TRUE(clean.determined());

  robust::FaultPlan plan;
  plan.site = robust::FaultSite::kWarmBasis;
  plan.fire_at = 1;
  robust::FaultScope scope(plan);
  const robust::SolveOutcome out = supervisor.solve(p);
  ASSERT_TRUE(out.determined());
  ASSERT_EQ(scope.fired(), 1u);
  EXPECT_TRUE(out.recovered());
  EXPECT_EQ(out.steps[0].status, lp::LpStatus::kNumericalFailure);
  ASSERT_EQ(out.solution.x.size(), clean.solution.x.size());
  EXPECT_EQ(std::memcmp(out.solution.x.data(), clean.solution.x.data(),
                        clean.solution.x.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&out.solution.objective, &clean.solution.objective,
                        sizeof(double)),
            0);
}

// The crash helper itself: deterministic actions, stabilizing rounds.
TEST(CrashBasis, GreedyActionsAreDeterministicAndInRange) {
  const std::size_t n = 120, na = 5;
  const markov::SparseControlledChain chain = random_chain(n, na, 3, 41);
  linalg::Matrix cost;
  balance_lp(chain, 0.97, cost, 43);
  const auto metric = [&](std::size_t s, std::size_t a) { return cost(s, a); };
  const std::vector<std::size_t> a1 =
      greedy_crash_actions(chain, metric, 0.97);
  const std::vector<std::size_t> a2 =
      greedy_crash_actions(chain, metric, 0.97);
  ASSERT_EQ(a1.size(), n);
  EXPECT_EQ(a1, a2);
  for (const std::size_t a : a1) EXPECT_LT(a, na);
}

}  // namespace
}  // namespace dpm
