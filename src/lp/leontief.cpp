#include "lp/leontief.h"

#include <cmath>
#include <limits>

#include "linalg/sparse_lu.h"

namespace dpm::lp {

namespace {

/// A policy-iteration switch needs a reduced cost below the incumbent's
/// by this fraction of the candidate's magnitude (|c + lambda d| plus
/// the summed |a_ij y_i|): strict improvement only, so PI terminates.
constexpr double kImprovementTol = 1e-10;
/// The home entry must beat the other equality entries by this
/// fraction of itself.  It keeps a margin-0 column (the average-cost
/// LP, where rounding can leave either side ahead) out of the form.
constexpr double kDominanceTol = 1e-12;
/// The secant step stops once the PI value at lambda meets the bracket
/// line within this fraction of the line's magnitude.
constexpr double kLineTol = 1e-11;
constexpr std::size_t kMaxRounds = 200;  // improvement rounds per PI solve
constexpr std::size_t kBracketCap = 20;  // lambda = 4^k for k < cap
constexpr std::size_t kSecantCap = 64;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

}  // namespace

std::optional<LeontiefForm> LeontiefForm::detect(const LpProblem& problem) {
  const std::size_t n = problem.num_variables();
  const std::vector<Constraint>& rows = problem.constraints();
  const std::size_t m = rows.size();
  if (n == 0 || problem.has_finite_upper_bounds()) return std::nullopt;

  LeontiefForm f;
  f.num_rows_ = m;
  f.side_row_ = m;
  f.col_ptr_.assign(n + 1, 0);
  f.side_.assign(n, 0.0);
  for (std::size_t i0 = 0; i0 < m; ++i0) {
    const Constraint& row = rows[i0];
    if (!std::isfinite(row.rhs)) return std::nullopt;
    if (row.sense == Sense::kGe) return std::nullopt;
    if (row.sense == Sense::kLe) {
      if (f.has_side_row()) return std::nullopt;
      f.side_row_ = i0;
      f.side_rhs_ = row.rhs;
      for (const auto& [j, v] : row.terms) f.side_[j] = v;
      continue;
    }
    if (row.rhs < 0.0) return std::nullopt;
    f.eq_rows_.push_back(i0);
    f.rhs_.push_back(row.rhs);
    for (const auto& [j, v] : row.terms) {
      if (v != 0.0) ++f.col_ptr_[j + 1];
    }
  }
  const std::size_t homes = f.eq_rows_.size();
  if (homes == 0) return std::nullopt;
  f.cost_ = problem.costs();
  for (std::size_t j = 0; j < n; ++j) {
    if (!std::isfinite(f.cost_[j]) || !std::isfinite(f.side_[j])) {
      return std::nullopt;
    }
    f.col_ptr_[j + 1] += f.col_ptr_[j];
  }

  // Equality entries by column, homes ascending within each column.
  f.entry_home_.resize(f.col_ptr_[n]);
  f.entry_value_.resize(f.col_ptr_[n]);
  std::vector<std::size_t> fill(f.col_ptr_.begin(), f.col_ptr_.end() - 1);
  for (std::size_t h = 0; h < homes; ++h) {
    for (const auto& [j, v] : rows[f.eq_rows_[h]].terms) {
      if (v == 0.0) continue;
      if (!std::isfinite(v)) return std::nullopt;
      f.entry_home_[fill[j]] = h;
      f.entry_value_[fill[j]++] = v;
    }
  }

  // One positive (home) entry per column, dominating the rest.
  std::vector<std::size_t> home(n);
  f.action_ptr_.assign(homes + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t positives = 0;
    double diagonal = 0.0;
    double others = 0.0;
    for (std::size_t k = f.col_ptr_[j]; k < f.col_ptr_[j + 1]; ++k) {
      const double v = f.entry_value_[k];
      if (v > 0.0) {
        ++positives;
        diagonal = v;
        home[j] = f.entry_home_[k];
      } else {
        others -= v;
      }
    }
    if (positives != 1 || !(diagonal - others > kDominanceTol * diagonal)) {
      return std::nullopt;
    }
    ++f.action_ptr_[home[j] + 1];
  }
  for (std::size_t h = 0; h < homes; ++h) {
    if (f.action_ptr_[h + 1] == 0) return std::nullopt;  // homeless row
    f.action_ptr_[h + 1] += f.action_ptr_[h];
  }
  f.actions_.resize(n);
  fill.assign(f.action_ptr_.begin(), f.action_ptr_.end() - 1);
  for (std::size_t j = 0; j < n; ++j) f.actions_[fill[home[j]]++] = j;
  return f;
}

/// Policy iteration on the form's data, and the lambda search over it.
/// A policy holds one column per home row.
class LagrangianSearch {
 public:
  LagrangianSearch(const LeontiefForm& form, std::size_t* factorizations)
      : f_(form),
        counter_(factorizations),
        cols_(form.num_homes()),
        y_(form.num_homes()),
        x_(form.num_homes()) {}

  std::vector<std::size_t> run() {
    const std::size_t homes = f_.num_homes();
    // Start from the cheapest column of each home row (lowest index on
    // ties): one O(nnz) pass that spares PI a round or two.
    Policy pol(homes);
    for (std::size_t h = 0; h < homes; ++h) {
      std::size_t best = f_.actions_[f_.action_ptr_[h]];
      for (std::size_t k = f_.action_ptr_[h]; k < f_.action_ptr_[h + 1]; ++k) {
        if (f_.cost_[f_.actions_[k]] < f_.cost_[best]) best = f_.actions_[k];
      }
      pol[h] = best;
    }
    if (!improve(0.0, pol)) return {};
    Point lo = measure(pol);
    const double bound = f_.side_rhs_;
    if (!f_.has_side_row() || lo.metric <= bound) {
      return seed(lo.policy, kNone);
    }

    // Bracket: lambda = 1, 4, 16, ... until the metric meets the bound.
    std::optional<Point> hi;
    double lambda = 1.0;
    for (std::size_t k = 0; k < kBracketCap && !hi; ++k, lambda *= 4.0) {
      if (!improve(lambda, pol)) return {};
      Point p = measure(pol);
      if (p.metric <= bound) {
        hi = std::move(p);
      } else {
        lo = std::move(p);
      }
    }
    if (!hi) return {};

    // Secant steps on the dual function: the two bracket lines meet at
    // lambda; stop when the PI value there lies on them (lambda*).
    double star = 0.0;
    for (std::size_t it = 0;; ++it) {
      if (it == kSecantCap) return {};
      star = (hi->cost - lo.cost) / (lo.metric - hi->metric);
      pol = hi->policy;
      if (!improve(star, pol)) return {};
      Point p = measure(pol);
      const double line = lo.cost + star * lo.metric;
      const double scale = std::abs(lo.cost) + star * std::abs(lo.metric);
      if (p.cost + star * p.metric >= line - kLineTol * scale) break;
      if (p.metric > bound) {
        lo = std::move(p);
      } else {
        hi = std::move(p);
      }
    }

    // Rerun PI at lambda* from both brackets.  Each bracket is optimal
    // at lambda* only on the states it reaches; the rerun makes it
    // optimal everywhere (switching only unreached states, so its
    // metric stays put), which every hybrid below then inherits.
    Policy above = lo.policy;
    Policy below = hi->policy;
    if (!improve(star, above)) return {};
    const double above_metric = measure(above).metric;
    if (!improve(star, below)) return {};
    const double below_metric = measure(below).metric;
    if (!(above_metric > bound) || !(below_metric <= bound)) return {};

    // Walk from the feasible bracket toward the other one: bisect the
    // hybrids "below with its first k differing states taken from
    // above" for two neighbours, one state apart, on either side of
    // the bound.  The feasible neighbour seeds the equality rows and
    // the other's column at the mixing state seeds the side row.
    std::vector<std::size_t> diff;
    for (std::size_t h = 0; h < homes; ++h) {
      if (above[h] != below[h]) diff.push_back(h);
    }
    std::size_t k_below = 0;
    std::size_t k_above = diff.size();
    Policy hybrid;
    while (k_above - k_below > 1) {
      const std::size_t mid = k_below + (k_above - k_below) / 2;
      hybrid = below;
      for (std::size_t t = 0; t < mid; ++t) hybrid[diff[t]] = above[diff[t]];
      factor(hybrid);
      if (measure(hybrid).metric > bound) {
        k_above = mid;
      } else {
        k_below = mid;
      }
    }
    hybrid = below;
    for (std::size_t t = 0; t < k_below; ++t) hybrid[diff[t]] = above[diff[t]];
    const std::size_t mixing = diff[k_below];
    return seed(hybrid, above[mixing]);
  }

 private:
  using Policy = std::vector<std::size_t>;

  /// A policy with its discounted cost C = c^T x and metric D = d^T x
  /// at the LP's rhs.
  struct Point {
    Policy policy;
    double cost = 0.0;
    double metric = 0.0;
  };

  void factor(const Policy& pol) {
    for (std::size_t h = 0; h < pol.size(); ++h) {
      const std::size_t j = pol[h];
      linalg::SparseColumn& col = cols_[h];
      col.clear();
      for (std::size_t k = f_.col_ptr_[j]; k < f_.col_ptr_[j + 1]; ++k) {
        col.emplace_back(f_.entry_home_[k], f_.entry_value_[k]);
      }
    }
    if (counter_ != nullptr) ++*counter_;
    if (!lu_.factorize(pol.size(), cols_)) {
      throw linalg::LinalgError(
          "lagrangian-seed: policy basis did not factor");
    }
  }

  /// C and D of `pol`, whose basis lu_ currently holds.
  Point measure(const Policy& pol) {
    x_ = f_.rhs_;
    lu_.ftran(x_);
    Point p;
    p.policy = pol;
    for (std::size_t h = 0; h < pol.size(); ++h) {
      p.cost += f_.cost_[pol[h]] * x_[h];
      p.metric += f_.side_[pol[h]] * x_[h];
    }
    return p;
  }

  /// Howard policy iteration on c + lambda d from `pol`, in place.
  /// Returns false when it has not settled within kMaxRounds.  On
  /// success lu_ holds the final policy's basis.
  bool improve(double lambda, Policy& pol) {
    for (std::size_t round = 0; round < kMaxRounds; ++round) {
      factor(pol);
      for (std::size_t h = 0; h < pol.size(); ++h) {
        y_[h] = f_.cost_[pol[h]] + lambda * f_.side_[pol[h]];
      }
      lu_.btran(y_);
      bool changed = false;
      for (std::size_t h = 0; h < pol.size(); ++h) {
        std::size_t best = pol[h];
        double best_rc = reduced_cost(best, lambda, nullptr);
        for (std::size_t k = f_.action_ptr_[h]; k < f_.action_ptr_[h + 1];
             ++k) {
          const std::size_t j = f_.actions_[k];
          if (j == pol[h]) continue;
          double scale = 0.0;
          const double rc = reduced_cost(j, lambda, &scale);
          if (rc < best_rc - kImprovementTol * scale) {
            best = j;
            best_rc = rc;
          }
        }
        if (best != pol[h]) {
          pol[h] = best;
          changed = true;
        }
      }
      if (!changed) return true;
    }
    return false;
  }

  /// c_j + lambda d_j - y^T a_j; `scale` receives its magnitude.
  double reduced_cost(std::size_t j, double lambda, double* scale) const {
    const double direct = f_.cost_[j] + lambda * f_.side_[j];
    double rc = direct;
    double mag = std::abs(direct);
    for (std::size_t k = f_.col_ptr_[j]; k < f_.col_ptr_[j + 1]; ++k) {
      const double t = f_.entry_value_[k] * y_[f_.entry_home_[k]];
      rc -= t;
      mag += std::abs(t);
    }
    if (scale != nullptr) *scale = mag;
    return rc;
  }

  std::vector<std::size_t> seed(const Policy& pol,
                                std::size_t side_column) const {
    std::vector<std::size_t> crash(f_.num_rows(), f_.num_columns());
    for (std::size_t h = 0; h < pol.size(); ++h) crash[f_.eq_rows_[h]] = pol[h];
    if (side_column != kNone) crash[f_.side_row_] = side_column;
    return crash;
  }

  const LeontiefForm& f_;
  std::size_t* counter_;
  linalg::SparseLu lu_;
  std::vector<linalg::SparseColumn> cols_;
  linalg::Vector y_, x_;
};

std::vector<std::size_t> lagrangian_seed(const LeontiefForm& form,
                                         std::size_t* factorizations) {
  return LagrangianSearch(form, factorizations).run();
}

}  // namespace dpm::lp
