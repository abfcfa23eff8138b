// LP-solver scaling: dense tableau vs. sparse revised simplex, plus
// crash-seeded vs. from-scratch cold solves, warm-started vs. cold
// Pareto sweeps, and bound-tightened dual restarts.
//
// Four experiments back the revised-simplex backend:
//   1. synthetic MDP policy LPs at n_states * n_commands in
//      {500, 2000, 8000, 20000, 50000} (the balance-equation structure
//      of LP2 with a handful of successors per state-action pair).
//      Each size is solved three ways — crash-seeded revised simplex
//      (a few modified-policy-iteration sweeps nominate the greedy
//      policy's occupation-measure columns, see dpm/crash.h), plain
//      cold revised simplex, and the dense tableau (capped) — same
//      statuses/objectives, wall-clock compared.  Assembly time,
//      constraint nonzeros, pivot counts, refactorization counts, the
//      update-vs-sweep cost split, hypersparsity and dense-block
//      telemetry are recorded so the sparse-pipeline story stays
//      machine-comparable across PRs.  The headline "revised" record
//      is the crash-seeded solve (what PolicyOptimizer runs at scale);
//      the no-crash solve is kept as its own record;
//   2. the disk-drive power/performance Pareto sweep (Fig. 6 protocol on
//      the Sec. VI disk model): per-point pivot counts of the
//      warm-started sweep() against independent cold solves;
//   3. bound-tightened warm restart: the largest synthetic LP with
//      loose per-variable upper bounds is solved once, every bound is
//      tightened 10%, and the saved basis warm-starts the re-solve —
//      the boxed dual simplex repairs the primal infeasibility in a
//      few dozen pivots where a cold solve replays thousands.
//
// `--smoke` (or DPMOPT_BENCH_SMOKE=1) shrinks every size so the bench
// runs in milliseconds under `ctest -L bench`; it also *asserts* that
// tiny instances keep the dense-block machinery off (block_sweeps must
// stay 0 below BasisFactorization::kBlockMinBasis — the n*na = 500
// small-size regression guard).
//
// `--tail-smoke` runs a single deterministic mid-size instance and
// prints one machine-parsable line (block telemetry + crash/cold pivot
// counts) for scripts/verify.sh --perf-smoke to gate on.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "bench_util.h"
#include "cases/disk_drive.h"
#include "dpm/crash.h"
#include "dpm/optimizer.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "markov/sparse_chain.h"

using namespace dpm;

namespace {

/// A synthetic discounted MDP: random controlled chain with `succ`
/// successors per (s, a), a per-pair "power" cost, and a per-pair
/// capacity metric.  The LP below is its balance-equation LP2; keeping
/// the chain around (instead of emitting constraints directly) is what
/// lets the crash heuristic run its value sweeps.
struct SyntheticMdp {
  markov::SparseControlledChain chain;
  std::vector<double> cost;    // n * na, the objective
  std::vector<double> metric;  // n * na, the kLe capacity row
};

SyntheticMdp synthetic_mdp(std::size_t n, std::size_t na, std::size_t succ,
                           std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::vector<double> cost(n * na), metric(n * na);
  std::vector<std::vector<markov::TransitionRow>> rows(
      na, std::vector<markov::TransitionRow>(n));
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < na; ++a) {
      cost[s * na + a] = 5.0 * u(gen);
      metric[s * na + a] = 3.0 * u(gen);
      markov::TransitionRow& row = rows[a][s];
      row.resize(succ);
      double total = 0.0;
      for (auto& [to, w] : row) {
        to = pick(gen);
        w = 0.05 + u(gen);
        total += w;
      }
      for (auto& [to, w] : row) w /= total;
    }
  }
  return {markov::SparseControlledChain(n, std::move(rows)), std::move(cost),
          std::move(metric)};
}

/// Balance equations sum_a x(j,a) - gamma sum_{s,a} P_a(s,j) x(s,a) =
/// p0_j plus one loose capacity row over `metric`.
lp::LpProblem assemble_lp(const SyntheticMdp& mdp, double gamma) {
  const std::size_t n = mdp.chain.num_states();
  const std::size_t na = mdp.chain.num_commands();
  lp::LpProblem p;
  for (const double c : mdp.cost) p.add_variable(c);

  std::vector<lp::Constraint> balance(n);
  for (std::size_t j = 0; j < n; ++j) {
    balance[j].sense = lp::Sense::kEq;
    balance[j].rhs = 1.0 / static_cast<double>(n);
  }
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < na; ++a) {
      const std::size_t col = s * na + a;
      balance[s].terms.emplace_back(col, 1.0);
      for (const auto& [j, w] : mdp.chain.row(a, s)) {
        balance[j].terms.emplace_back(col, -gamma * w);
      }
    }
  }
  for (auto& c : balance) p.add_constraint(std::move(c));

  lp::Constraint cap;
  cap.sense = lp::Sense::kLe;
  cap.name = "metric";
  cap.terms.reserve(n * na);
  double max_metric = 0.0;
  for (std::size_t col = 0; col < n * na; ++col) {
    cap.terms.emplace_back(col, mdp.metric[col]);
    max_metric = std::max(max_metric, mdp.metric[col]);
  }
  cap.rhs = 0.8 * max_metric / (1.0 - gamma);
  p.add_constraint(std::move(cap));
  return p;
}

std::vector<std::size_t> crash_for(const SyntheticMdp& mdp, double gamma,
                                   std::size_t num_rows) {
  const std::size_t na = mdp.chain.num_commands();
  const std::vector<std::size_t> actions = greedy_crash_actions(
      mdp.chain,
      [&](std::size_t s, std::size_t a) { return mdp.cost[s * na + a]; },
      gamma);
  return crash_columns_for_lp(actions, na, num_rows);
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

struct SizeSpec {
  std::size_t n, na, succ;
};

/// `--tail-smoke`: one deterministic mid-size instance, solved crash
/// and cold, telemetry printed on a single greppable line.  Exits
/// nonzero on objective disagreement so verify.sh fails loudly.
int run_tail_smoke() {
  const double gamma = 0.999;
  const SyntheticMdp mdp = synthetic_mdp(1000, 8, 4, /*seed=*/17);
  const lp::LpProblem p = assemble_lp(mdp, gamma);

  lp::SimplexStats cold_stats;
  lp::RevisedSimplexOptions cold_opt;
  cold_opt.stats = &cold_stats;
  const lp::LpSolution cold = lp::solve_revised_simplex(p, cold_opt);

  const std::vector<std::size_t> crash_cols =
      crash_for(mdp, gamma, p.num_constraints());
  lp::SimplexStats crash_stats;
  lp::RevisedSimplexOptions crash_opt;
  crash_opt.stats = &crash_stats;
  crash_opt.crash_columns = &crash_cols;
  const lp::LpSolution crash = lp::solve_revised_simplex(p, crash_opt);

  // Tiny-instance guard: below kBlockMinBasis the dense block (and its
  // bookkeeping) must never engage.
  const SyntheticMdp tiny = synthetic_mdp(40, 2, 3, /*seed=*/17);
  lp::SimplexStats tiny_stats;
  lp::RevisedSimplexOptions tiny_opt;
  tiny_opt.stats = &tiny_stats;
  (void)lp::solve_revised_simplex(assemble_lp(tiny, gamma), tiny_opt);

  const double sweeps = static_cast<double>(cold_stats.sparse_sweeps +
                                            cold_stats.dense_sweeps);
  const double block_pct =
      sweeps > 0.0
          ? 100.0 * static_cast<double>(cold_stats.block_sweeps) / sweeps
          : 0.0;
  const bool objectives_match =
      cold.status == lp::LpStatus::kOptimal &&
      crash.status == lp::LpStatus::kOptimal &&
      std::abs(cold.objective - crash.objective) <=
          1e-7 * (1.0 + std::abs(cold.objective));
  std::printf(
      "tail-smoke: size=8000 cold_pivots=%zu crash_pivots=%zu "
      "crash_saved=%zu block_sweeps=%zu block_entries=%zu block_pct=%.1f "
      "tiny_block_sweeps=%zu objectives_match=%d\n",
      cold.iterations, crash.iterations, crash_stats.crash_pivots_saved,
      static_cast<std::size_t>(cold_stats.block_sweeps),
      static_cast<std::size_t>(cold_stats.block_entries), block_pct,
      static_cast<std::size_t>(tiny_stats.block_sweeps),
      objectives_match ? 1 : 0);
  if (!objectives_match) {
    std::fprintf(stderr,
                 "tail-smoke: crash/cold objective mismatch (%.12g vs %.12g)\n",
                 crash.objective, cold.objective);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--tail-smoke")) return run_tail_smoke();

  const bool smoke = bench::smoke_mode(argc, argv);
  bench::banner("LP scaling (revised simplex vs dense tableau)",
                "synthetic MDP balance-equation LPs; gamma = 0.999; "
                "crash-seeded vs cold solves; plus warm vs cold Pareto "
                "sweeps on the disk model");
  bench::JsonReport report("lp_scale", /*enabled=*/!smoke);

  const std::vector<SizeSpec> sizes =
      smoke ? std::vector<SizeSpec>{{40, 2, 3}}
            : std::vector<SizeSpec>{{125, 4, 4},
                                    {500, 4, 4},
                                    {1000, 8, 4},
                                    {2500, 8, 4},
                                    {6250, 8, 4}};
  // The dense tableau is O(rows x cols) per pivot: past this size it
  // contributes hours, not a comparison — the revised backend still
  // runs and reports its own cost split + hypersparsity telemetry.
  const std::size_t tableau_cap = 8000;
  const double gamma = 0.999;

  bench::section("solver scaling");
  std::printf("  %-10s %9s %8s %9s %8s %10s %7s %8s %8s %8s\n", "size n*na",
              "backend", "asm_ms", "wall_ms", "pivots", "objective", "refac",
              "refac_ms", "swp_ms", "upd_ms");
  for (const SizeSpec& spec : sizes) {
    const std::size_t nna = spec.n * spec.na;

    bench::WallTimer t_asm;
    const SyntheticMdp mdp = synthetic_mdp(spec.n, spec.na, spec.succ,
                                           /*seed=*/17);
    const lp::LpProblem p = assemble_lp(mdp, gamma);
    const double asm_ms = t_asm.elapsed_ms();
    std::size_t nnz = 0;
    for (const auto& c : p.constraints()) nnz += c.terms.size();

    // Crash-seeded solve: derive the policy-iteration seed, then solve.
    // Derivation is counted in the crash wall time — that is the
    // end-to-end price a cold PolicyOptimizer::minimize pays.
    bench::WallTimer t_crash;
    const std::vector<std::size_t> crash_cols =
        crash_for(mdp, gamma, p.num_constraints());
    const double derive_ms = t_crash.elapsed_ms();
    lp::SimplexStats crash_stats;
    lp::RevisedSimplexOptions crash_opt;
    crash_opt.stats = &crash_stats;
    crash_opt.crash_columns = &crash_cols;
    const lp::LpSolution crash = lp::solve_revised_simplex(p, crash_opt);
    const double crash_ms = t_crash.elapsed_ms();

    // Plain cold solve (no seed) — the across-PR comparable record and
    // the source of the sweep/update/hypersparsity telemetry.
    lp::SimplexStats stats;
    lp::RevisedSimplexOptions rev_opt;
    rev_opt.stats = &stats;
    bench::WallTimer t_rev;
    const lp::LpSolution rev = lp::solve_revised_simplex(p, rev_opt);
    const double rev_ms = t_rev.elapsed_ms();

    const bool run_tableau = nna <= tableau_cap;
    bench::WallTimer t_tab;
    const lp::LpSolution tab =
        run_tableau ? lp::solve_simplex(p) : lp::LpSolution{};
    const double tab_ms = t_tab.elapsed_ms();

    const double scaled_rev = rev.objective * (1.0 - gamma);
    const double scaled_crash = crash.objective * (1.0 - gamma);
    const double scaled_tab = tab.objective * (1.0 - gamma);
    std::printf("  %-10zu %9s %8.2f %9.2f %8zu %10.6f %7zu %8.2f %8.2f %8.2f\n",
                nna, "crash", asm_ms, crash_ms, crash.iterations, scaled_crash,
                crash_stats.refactorizations, crash_stats.refactor_ms,
                crash_stats.sweep_ms, crash_stats.update_ms);
    std::printf("  %-10zu %9s %8.2f %9.2f %8zu %10.6f %7zu %8.2f %8.2f %8.2f\n",
                nna, "cold", asm_ms, rev_ms, rev.iterations, scaled_rev,
                stats.refactorizations, stats.refactor_ms, stats.sweep_ms,
                stats.update_ms);
    std::printf("  %-10s %9s   seed derive %.1f ms, %zu seeded columns "
                "survive to optimality, %.2fx fewer pivots, %.2fx wall\n",
                "", "crash", derive_ms, crash_stats.crash_pivots_saved,
                static_cast<double>(rev.iterations) /
                    static_cast<double>(std::max<std::size_t>(
                        crash.iterations, 1)),
                rev_ms / std::max(crash_ms, 1e-9));
    if (run_tableau) {
      std::printf("  %-10zu %9s %8.2f %9.2f %8zu %10.6f\n", nna, "tableau",
                  asm_ms, tab_ms, tab.iterations, scaled_tab);
    } else {
      std::printf("  %-10zu %9s   (skipped above n*na=%zu)\n", nna, "tableau",
                  tableau_cap);
    }
    // The per-iteration cost split: triangular sweeps (applying the
    // factorization) vs maintaining it (FT updates + refactorizations).
    const double iters = static_cast<double>(std::max<std::size_t>(
        rev.iterations, 1));
    const double sweep_per_iter = stats.sweep_ms / iters;
    const double maint_per_iter = (stats.update_ms + stats.refactor_ms) / iters;
    if (run_tableau) {
      std::printf("  %-10s %9s %8.2fx   nnz %.1fk, per-iter: sweep %.1f us, "
                  "update+refactor %.1f us, ft/refac %zu/%zu\n",
                  "", "speedup", tab_ms / rev_ms,
                  static_cast<double>(nnz) / 1000.0, 1e3 * sweep_per_iter,
                  1e3 * maint_per_iter, stats.ft_updates,
                  stats.refactorizations);
    }
    // Hypersparsity telemetry: what fraction of the triangular sweeps
    // stayed on the Gilbert-Peierls reachability path, and the mean
    // vector entries touched per sweep (a dense sweep touches the full
    // basis dimension; sparse sweeps only their reach).  Dense-block
    // telemetry: how many sweeps routed their tail through the
    // contiguous block kernels, and what share of all touched entries
    // the block carried.
    const double total_sweeps = static_cast<double>(
        stats.sparse_sweeps + stats.dense_sweeps);
    const double sparse_frac =
        total_sweeps > 0.0 ? static_cast<double>(stats.sparse_sweeps) /
                                 total_sweeps
                           : 0.0;
    const double touched_per_sweep =
        total_sweeps > 0.0 ? static_cast<double>(stats.touched_entries) /
                                 total_sweeps
                           : 0.0;
    const double block_pct =
        total_sweeps > 0.0
            ? 100.0 * static_cast<double>(stats.block_sweeps) / total_sweeps
            : 0.0;
    std::printf("  %-10s %9s   sparse %zu / dense %zu sweeps (%.1f%% sparse), "
                "%.1f entries touched/sweep\n",
                "", "hypersp", static_cast<std::size_t>(stats.sparse_sweeps),
                static_cast<std::size_t>(stats.dense_sweeps),
                100.0 * sparse_frac, touched_per_sweep);
    std::printf("  %-10s %9s   %zu block sweeps (%.1f%% of all sweeps), "
                "%.1fM block nonzeros processed\n",
                "", "block", static_cast<std::size_t>(stats.block_sweeps),
                block_pct,
                static_cast<double>(stats.block_entries) / 1e6);
    if (smoke && stats.block_sweeps + crash_stats.block_sweeps != 0) {
      std::fprintf(stderr,
                   "FAIL: dense block engaged on a tiny instance "
                   "(block_sweeps=%zu) — the small-size gate regressed\n",
                   static_cast<std::size_t>(stats.block_sweeps +
                                            crash_stats.block_sweeps));
      return 1;
    }
    if (crash.status != rev.status ||
        std::abs(crash.objective - rev.objective) >
            1e-7 * (1.0 + std::abs(rev.objective))) {
      std::fprintf(stderr,
                   "FAIL: crash/cold disagreement at n*na=%zu "
                   "(%.12g vs %.12g)\n",
                   nna, crash.objective, rev.objective);
      return 1;
    }
    // Headline record: the crash-seeded solve (what the optimizer runs
    // at scale).  The plain cold solve keeps its own record.
    report.add("revised n*na=" + std::to_string(nna), crash_ms,
               crash.iterations, scaled_crash);
    report.add("nocrash revised n*na=" + std::to_string(nna), rev_ms,
               rev.iterations, scaled_rev);
    report.add("crash-derive n*na=" + std::to_string(nna), derive_ms,
               crash_stats.crash_pivots_saved, scaled_crash);
    report.add("tableau n*na=" + std::to_string(nna), tab_ms, tab.iterations,
               scaled_tab);
    report.add("assembly n*na=" + std::to_string(nna), asm_ms, nnz,
               static_cast<double>(nnz));
    report.add("refactor n*na=" + std::to_string(nna), stats.refactor_ms,
               stats.refactorizations,
               stats.refactor_ms / std::max(rev_ms, 1e-9));
    report.add("sweep n*na=" + std::to_string(nna), stats.sweep_ms,
               rev.iterations, sweep_per_iter);
    report.add("ft-update n*na=" + std::to_string(nna), stats.update_ms,
               stats.ft_updates, maint_per_iter);
    report.add("hypersparse n*na=" + std::to_string(nna),
               100.0 * sparse_frac,
               static_cast<std::size_t>(stats.sparse_sweeps),
               touched_per_sweep);
    report.add("dense-block n*na=" + std::to_string(nna), block_pct,
               static_cast<std::size_t>(stats.block_sweeps),
               static_cast<double>(stats.block_entries));
    report.add("end-to-end revised n*na=" + std::to_string(nna),
               asm_ms + crash_ms, crash.iterations, scaled_crash);
  }

  bench::section("warm-started Pareto sweep (disk model, Fig. 6 protocol)");
  const SystemModel m = cases::DiskDrive::make_model();
  const PolicyOptimizer opt(m, cases::DiskDrive::make_config(m, 0.999));
  const std::vector<double> queue_bounds =
      smoke ? std::vector<double>{0.5, 1.0, 2.0}
            : std::vector<double>{0.3, 0.4, 0.5, 0.6, 0.8,
                                  1.0, 1.2, 1.5, 2.0, 2.5};

  bench::WallTimer t_warm;
  const auto warm_curve = opt.sweep(
      metrics::power(m), metrics::queue_length(m), "queue", queue_bounds);
  const double warm_ms = t_warm.elapsed_ms();

  bench::WallTimer t_cold;
  std::vector<std::size_t> cold_iters;
  std::size_t cold_total = 0;
  double cold_last_objective = 0.0;
  for (const double bound : queue_bounds) {
    const OptimizationResult r = opt.minimize(
        metrics::power(m), {{metrics::queue_length(m), bound, "queue"}});
    cold_iters.push_back(r.lp_iterations);
    cold_total += r.lp_iterations;
    if (r.feasible) cold_last_objective = r.objective_per_step;
  }
  const double cold_ms = t_cold.elapsed_ms();

  std::printf("  %-10s", "queue<=");
  for (const double b : queue_bounds) std::printf(" %7.2f", b);
  std::printf("\n  %-10s", "warm its");
  std::size_t warm_total = 0;
  for (const auto& pt : warm_curve) {
    std::printf(" %7zu", pt.lp_iterations);
    warm_total += pt.lp_iterations;
  }
  std::printf("\n  %-10s", "cold its");
  for (const std::size_t it : cold_iters) std::printf(" %7zu", it);
  std::printf("\n");
  bench::fact("warm sweep total pivots", static_cast<double>(warm_total));
  bench::fact("cold sweep total pivots", static_cast<double>(cold_total));
  bench::fact("warm sweep wall_ms", warm_ms);
  bench::fact("cold sweep wall_ms", cold_ms);
  report.add("sweep warm (disk)", warm_ms, warm_total,
             warm_curve.back().objective);
  report.add("sweep cold (disk)", cold_ms, cold_total, cold_last_objective);

  bench::section("bound-tightened warm restart (boxed dual simplex)");
  {
    // Loose per-variable caps, solve, tighten every cap 10%, re-solve
    // warm from the saved basis.  The tightening leaves the basis dual
    // feasible (costs unchanged) but primal infeasible wherever a
    // basic or at-bound variable now violates its cap — exactly the
    // boxed dual simplex's job.
    const SizeSpec spec = smoke ? SizeSpec{40, 2, 3} : SizeSpec{1000, 8, 4};
    const std::size_t nna = spec.n * spec.na;
    lp::LpProblem p =
        assemble_lp(synthetic_mdp(spec.n, spec.na, spec.succ, /*seed=*/17),
                    gamma);
    const double loose =
        2.0 / ((1.0 - gamma) * static_cast<double>(spec.n));
    for (std::size_t j = 0; j < nna; ++j) p.set_upper_bound(j, loose);

    lp::SimplexBasis basis;
    bench::WallTimer t_loose;
    const lp::LpSolution sl = lp::solve_revised_simplex(p, {}, nullptr, &basis);
    const double loose_ms = t_loose.elapsed_ms();

    for (std::size_t j = 0; j < nna; ++j) p.set_upper_bound(j, 0.9 * loose);
    lp::SimplexStats warm_stats;
    lp::RevisedSimplexOptions warm_opt;
    warm_opt.stats = &warm_stats;
    bench::WallTimer t_warm2;
    const lp::LpSolution sw = lp::solve_revised_simplex(p, warm_opt, &basis);
    const double warm2_ms = t_warm2.elapsed_ms();

    bench::WallTimer t_cold2;
    const lp::LpSolution sc = lp::solve_revised_simplex(p);
    const double cold2_ms = t_cold2.elapsed_ms();

    std::printf("  loose solve: %zu pivots (%.1f ms); after 10%% tightening: "
                "warm %zu pivots (%zu dual, %zu flips, %.1f ms) vs cold %zu "
                "pivots (%.1f ms)\n",
                sl.iterations, loose_ms, sw.iterations,
                warm_stats.dual_iterations, warm_stats.bound_flips, warm2_ms,
                sc.iterations, cold2_ms);
    bench::fact("objective agreement (warm - cold)",
                (sw.objective - sc.objective) * (1.0 - gamma));
    report.add("tighten warm n*na=" + std::to_string(nna), warm2_ms,
               sw.iterations, sw.objective * (1.0 - gamma));
    report.add("tighten cold n*na=" + std::to_string(nna), cold2_ms,
               sc.iterations, sc.objective * (1.0 - gamma));
  }

  bench::section("criteria");
  bench::note("crash-seeded solves should match the cold objective exactly "
              "and spend a small fraction of the cold pivot count on these "
              "structured models (the seed is the greedy policy's "
              "occupation-measure basis)");
  bench::note("revised simplex should be >= 3x faster than the tableau at "
              "n*na = 8000, and >= 1.5x end-to-end (assembly + solve) over "
              "the PR 1 baseline (1953 ms solve at n*na = 8000)");
  bench::note("per-iteration factorization cost at n*na = 8000: the FT "
              "update grows the transform ~3x slower per pivot than the "
              "eta file (PR 2 baseline reached its 2x-fill trigger every "
              "~70 pivots / 30 refactorizations; FT stays within half "
              "that budget for 80+ pivots / ~26 refactorizations), with "
              "per-iter sweep cost at or below the eta baseline on these "
              "adversarial expander bases and well below it on "
              "structured models");
  bench::note("warm-started sweep should spend fewer pivots per point than "
              "cold solves after the first bound");
  bench::note("bound-tightened warm restart should finish in an order of "
              "magnitude fewer pivots than the cold re-solve, with equal "
              "objectives (the boxed dual phase)");
  return 0;
}
