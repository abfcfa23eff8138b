// Lagrangian policy-iteration seed for occupation-measure LPs.
//
// LP2 (PolicyOptimizer::build_lp) is a Leontief substitution system:
// every column has exactly one positive entry among the balance rows
// (its "home" row, the state it leaves) and, for gamma < 1, that entry
// exceeds the summed magnitude of the column's other balance entries.
// A choice of one column per home row is then a deterministic policy,
// and its columns form a nonsingular M-matrix basis (I - gamma P_pi)^T
// whose primal values B^-1 b are the policy's occupation measure.
//
// With at most one `<=` row (the "side" row: cost c, metric d, bound
// B), the LP optimum mixes two deterministic policies in one state, and
// both are optimal for the Lagrangian cost c + lambda* d (Theorem A.2;
// Altman, Constrained MDPs, 1999, Ch. 3; Puterman 1994 §6.9).  The seed
// below finds lambda* with policy iteration on the LP's own data, then
// the mixing pair, and hands the revised simplex that optimal basis as
// crash columns: the cold solve becomes a few PI solves plus a
// zero-pivot polish.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "lp/problem.h"

namespace dpm::lp {

/// The LP's data in Leontief form, extracted once in O(nnz).
class LeontiefForm {
 public:
  /// Returns the form when `problem` qualifies, nullopt otherwise.  A
  /// problem qualifies when every row is `=` or `<=` with at most one
  /// `<=` row; no column has a finite upper bound; every equality rhs
  /// is >= 0; every column has exactly one positive entry among the
  /// equality rows and that entry exceeds the summed magnitude of its
  /// other equality-row entries; every equality row is home to at least
  /// one column; and all the data are finite.
  static std::optional<LeontiefForm> detect(const LpProblem& problem);

  std::size_t num_rows() const noexcept { return num_rows_; }
  std::size_t num_columns() const noexcept { return cost_.size(); }
  std::size_t num_homes() const noexcept { return eq_rows_.size(); }
  bool has_side_row() const noexcept { return side_row_ < num_rows_; }

 private:
  friend class LagrangianSearch;  // leontief.cpp

  std::size_t num_rows_ = 0;
  std::vector<std::size_t> eq_rows_;    // original row of each home
  std::size_t side_row_ = 0;            // original row; num_rows_ if none
  double side_rhs_ = 0.0;               // B
  linalg::Vector rhs_;                  // b, per home
  linalg::Vector cost_, side_;          // c_j and d_j per column
  // Equality-row entries, CSC over home indices.
  std::vector<std::size_t> col_ptr_, entry_home_;
  std::vector<double> entry_value_;
  // Columns grouped by home row, ascending: the actions of each state.
  std::vector<std::size_t> action_ptr_, actions_;
};

/// Runs the lambda search on `form` and returns the seed in
/// RevisedSimplexOptions::crash_columns layout: one entry per original
/// row, `>= num_columns()` meaning "no seed" (the side row's slack when
/// the bound is loose).  Empty when the search declined: no lambda
/// bracket within the cap, a policy iteration that did not settle, or
/// brackets that failed to straddle the bound after rounding; the cold
/// path then decides the LP, infeasibility included.
///
/// Every policy basis is factorized with linalg::SparseLu;
/// `*factorizations` (when non-null) is advanced by one per
/// factorization as it happens, so a count survives a throw.  Throws
/// linalg::LinalgError when a policy basis does not factor (an injected
/// kLuFactorize fault or a numerically singular basis): the supervisor
/// types and escalates it, and the next rung recomputes the identical
/// seed.
std::vector<std::size_t> lagrangian_seed(const LeontiefForm& form,
                                         std::size_t* factorizations = nullptr);

}  // namespace dpm::lp
