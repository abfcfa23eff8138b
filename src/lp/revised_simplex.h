// Sparse revised simplex (two-phase primal, plus a boxed dual simplex).
//
// Operates on the LpProblem's CSC columns directly: each iteration costs
// two triangular solves against an LU-factorized basis (right-looking
// Markowitz LU, Forrest–Tomlin-updated between stability- or
// fill-triggered refactorizations) plus one pricing pass — instead of
// the dense tableau's O(rows x columns) pivot.  This is the solver
// for the MDP balance-equation LPs, whose columns have only a
// handful of nonzeros (one outgoing-flow term plus the few reachable
// successor states).
//
// Bounded variables: 0 <= x_j <= u_j is handled natively — nonbasic
// columns rest at either bound, the ratio test is two-sided, and a step
// limited by the entering variable's own bound becomes a bound *flip*
// (no basis change, no factorization update).  Singleton rows
// (a * x_j <= b and friends) are absorbed into the bound set during
// setup, shrinking the basis instead of wasting a row on them; a
// binding absorbed row still reports its exact multiplier (see
// LpSolution::duals).
//
// Warm starts: the optimal basis of a solved instance can be fed back to
// solve a neighboring instance (same matrix and senses; rhs *and*
// variable bounds may differ).  If the basis is still primal feasible it
// is re-priced in place; if the change made it primal infeasible, the
// boxed dual simplex drives it back in a handful of pivots — bound
// tightening and rhs moves alike, the engine behind
// PolicyOptimizer::sweep().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lp/problem.h"

namespace dpm::lp {

/// Per-solve instrumentation (optional; see RevisedSimplexOptions::stats).
/// The cost identity benches rely on:
///   solve_ms ~= sweep_ms (triangular solves) + update_ms (FT updates)
///             + refactor_ms (from-scratch LU) + pricing & ratio tests.
struct SimplexStats {
  std::size_t refactorizations = 0;  // from-scratch LU factorizations
  double refactor_ms = 0.0;          // wall time inside those
  std::size_t ft_updates = 0;        // successful Forrest-Tomlin updates
  double update_ms = 0.0;            // wall time inside factor updates
  double sweep_ms = 0.0;             // wall time in ftran/btran sweeps
  double solve_ms = 0.0;             // wall time of the whole solve
  std::size_t iterations = 0;        // pivots + bound flips
  std::size_t bound_flips = 0;       // iterations that were pure flips
  std::size_t dual_iterations = 0;   // pivots spent in the dual phase
  std::size_t factor_nonzeros = 0;   // nnz(L+U) of the last factorization
  // Hypersparsity telemetry (see BasisFactorization): triangular sweeps
  // that stayed on the Gilbert–Peierls sparse path vs sweeps that ran
  // (or fell back to) the dense scan, and total vector entries touched
  // (a dense sweep counts the full dimension m).
  std::uint64_t sparse_sweeps = 0;
  std::uint64_t dense_sweeps = 0;
  std::uint64_t touched_entries = 0;
  // Dense-block telemetry: sweeps whose tail segment ran through the
  // contiguous DenseBlock kernels, and the block nonzeros those sweeps
  // processed (counted separately from touched_entries, which accrues
  // the basis dimension per dense sweep — block_entries is the actual
  // dense-tail arithmetic volume).
  std::uint64_t block_sweeps = 0;
  std::uint64_t block_entries = 0;
  // Crash-basis telemetry: whether a crash seed survived installation
  // (nonsingular, adopted), and how many crash-seeded structural
  // columns were still basic at optimality — each one is a column the
  // simplex never had to price in, a deterministic proxy for pivots
  // the seed saved versus the all-logical cold start.
  bool crash_basis_used = false;
  std::size_t crash_pivots_saved = 0;
};

/// Process-wide hypersparsity odometer, aggregated across every
/// solve_revised_simplex call since process start (thread-safe,
/// monotone — same contract as pivots_executed()).  verify.sh's
/// perf-smoke gate reads it to assert the sparse path stays the common
/// case on the case-study scenarios, and that a dpmd near hit pays no
/// more from-scratch LUs than its basis moves call for.
struct SweepTelemetry {
  std::uint64_t sparse_sweeps = 0;
  std::uint64_t dense_sweeps = 0;
  std::uint64_t touched_entries = 0;
  std::uint64_t block_sweeps = 0;   // sweeps routed through the dense block
  std::uint64_t block_entries = 0;  // block nonzeros those sweeps processed
  std::uint64_t refactorizations = 0;  // from-scratch LU factorizations
};
SweepTelemetry sweep_telemetry() noexcept;

namespace detail {
class RevisedSimplex;
}

/// Opaque handle to a revised-simplex engine kept alive across the
/// solves of one LP whose right-hand side moves between them (see
/// RevisedSimplexOptions::retained).  It keeps the standard form built
/// from the problem (columns, row mirror, bounds, artificial signs) and
/// the engine's last factorization.  A solve through the handle
/// reuses both when they are exactly what a new engine would build:
///   * the standard form, unless the new rhs flips an artificial
///     column's sign (rhs < 0) or moves the rhs of a row the bound
///     absorption judged by its rhs (an empty or singleton row), or the
///     solve is of another LpProblem object, or the problem's
///     dimensions, upper bounds or structural options differ;
///   * the LU, when it is a from-scratch factorization (no
///     Forrest–Tomlin update since) of exactly the warm basis the solve
///     installs — the LU refactorize() would rebuild, bit for bit.
/// Every other piece of engine state (pricing rotation, duals, edge
/// weights, bound flags, artificial caps) is reset to its value after
/// construction, so a solve through the handle takes the same pivots
/// and returns the same bits as one on a new engine.  The handle drops
/// its engine after any solve whose outcome is not determined (a
/// failure, an exception, an expired deadline).  Not thread-safe: one
/// handle serves one caller at a time.
class RetainedSimplex {
 public:
  RetainedSimplex() noexcept;
  ~RetainedSimplex();
  RetainedSimplex(const RetainedSimplex&) = delete;
  RetainedSimplex& operator=(const RetainedSimplex&) = delete;

  /// Drops the retained engine; the next solve builds a new one.
  void reset() noexcept;

 private:
  friend struct RetainedAccess;  // revised_simplex.cpp
  std::unique_ptr<detail::RevisedSimplex> engine_;
};

struct RevisedSimplexOptions {
  std::size_t max_iterations = 20000;
  double pivot_tol = 1e-8;        // reject smaller ratio-test pivots
  double reduced_cost_tol = 1e-9;
  double feas_tol = 1e-7;         // phase-1 residual accepted as feasible
  /// Hard cap on Forrest-Tomlin updates between refactorizations.  The
  /// effective trigger is usually the amortized rule in
  /// BasisFactorization (extra sweep work since the last
  /// refactorization exceeds `refactor_work_ratio` times that
  /// refactorization's measured work), which self-balances cheap
  /// factorizations against heavily filling ones; this cap only bounds
  /// numerical drift on extreme instances.
  std::size_t refactor_interval = 1024;
  /// Amortized refactorization threshold (see
  /// BasisFactorization::needs_refactor): refactorize once the update
  /// transforms have cost `refactor_work_ratio` times as much extra
  /// sweep work as rebuilding would.  1.0 is the classic
  /// pay-as-much-as-a-rebuild balance; <= 0 falls back to the fixed
  /// interval alone.  The eta-file design used a fill ratio instead
  /// (eta nonzeros vs factor nonzeros) because it could not price a
  /// rebuild — the work-based rule both refactorizes ~3x less often on
  /// cheap bases and keeps sweeps near fresh-factor cost on heavy
  /// ones.
  double refactor_work_ratio = 1.0;
  /// Columns per pricing section; 0 picks a size proportional to
  /// sqrt(#columns) (at least 256).  Pricing scans the columns in
  /// rotating sections and enters the largest reduced-cost violation of
  /// the first section that has a candidate; Bland's rule takes over on
  /// a stall.  A full scan touches every column's sparse dot product per
  /// iteration, which dominates once columns outnumber rows; a section
  /// finds an entering column of almost the same quality at a fraction
  /// of the cost.
  std::size_t partial_section = 0;
  /// Switch to Bland's rule after this many non-improving iterations.
  std::size_t stall_limit = 64;
  /// Give up with kIterationLimit after this many non-improving Bland
  /// iterations; the supervisor escalates the stall.
  std::size_t bland_stall_abort = 2000;
  /// Cap on dual-simplex pivots in a warm start before falling back to a
  /// cold solve (warm starts are only worth it when they are short).
  std::size_t max_dual_iterations = 1000;
  /// Optional instrumentation sink (bench harnesses); reset and filled
  /// by solve_revised_simplex when non-null.
  SimplexStats* stats = nullptr;
  /// Optional crash basis: for each *original* constraint row, the
  /// structural column to seed basic (any value >= num_variables means
  /// "no seed; complete with a slack or artificial").  The MDP
  /// optimizer derives these from a few policy-iteration steps — the
  /// occupation-measure columns of the greedy deterministic policy form
  /// a nonsingular (I - gamma P)^T sub-basis over the balance rows.  A
  /// singular or malformed seed falls back to the ordinary cold start.
  /// Ignored when a warm basis is supplied.
  const std::vector<std::size_t>* crash_columns = nullptr;
  /// Optional retained engine (see RetainedSimplex), like `stats` a
  /// caller-owned handle rather than a tuning option: the solve runs on
  /// the handle's engine and leaves it there for the next solve of the
  /// same LP.  Results are bitwise those of a solve without it.
  RetainedSimplex* retained = nullptr;
};

/// Opaque warm-start handle: the basic column set over the solver's
/// internal standard form, plus the bound status of every nonbasic
/// column (which bound it rests at).  Only valid for problems with the
/// same constraint matrix, senses, and variable count; rhs and variable
/// bounds may differ — the boxed dual simplex repairs the primal
/// infeasibility either change introduces.
struct SimplexBasis {
  std::vector<std::size_t> basic;  // one standard-form column per row
  std::vector<char> at_upper;      // per standard-form column bound flag
  bool empty() const noexcept { return basic.empty(); }
  bool operator==(const SimplexBasis&) const = default;
};

/// Solves `problem` with the sparse revised simplex.
///
/// `warm` (optional) restarts from a previous basis; `basis_out`
/// (optional) receives the final basis on optimal termination.  Both may
/// be null; passing an incompatible warm basis silently falls back to a
/// cold solve.  The order of `warm->basic` does not matter: the solver
/// installs the columns in ascending order, so a warm solve depends on
/// the basis as a set.
LpSolution solve_revised_simplex(const LpProblem& problem,
                                 const RevisedSimplexOptions& options = {},
                                 const SimplexBasis* warm = nullptr,
                                 SimplexBasis* basis_out = nullptr);

/// Process-wide pivot odometer: total iterations (pivots + bound flips)
/// executed by every solve_revised_simplex call since process start.
/// Monotone and thread-safe; read it before and after an operation to
/// measure the simplex work it triggered.  The scenario result cache's
/// round-trip test uses it to prove a cache replay ran zero pivots.
std::uint64_t pivots_executed() noexcept;

}  // namespace dpm::lp
