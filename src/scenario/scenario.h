// Declarative scenario engine (the "as many scenarios as you can
// imagine" layer of the ROADMAP).
//
// A Scenario packages one paper experiment — a figure, a table, an
// ablation, an extension — as data: a name, a banner, and a factory
// that expands into *units*, the parallel quantum of the
// ExperimentRunner (scenario/runner.h).  Each unit runs on one worker
// thread with its own deterministic RNG stream derived from
// (scenario name, unit index), so results are byte-identical no matter
// how many workers execute the grid.
//
// Two declarative unit builders cover the paper's grids:
//  * sweep_unit — a constraint sweep over ONE model: the LP is built
//    once and every point after the first warm-starts from the previous
//    optimal basis (PolicyOptimizer::sweep).  One series == one unit,
//    because warm starts chain points sequentially.
//  * point_unit — one cell of a structural grid (Figs. 12-14: sleep
//    states, transition speeds, burstiness, memory, horizon, queue
//    capacity).  Every cell builds its own model, so cells are
//    embarrassingly parallel.
// Simulation-flavoured work (trace-driven circles, timeout heuristics,
// adaptive controllers) uses plain units with hand-written bodies.
//
// Expected-shape assertions live in two places: `UnitContext::check`
// for claims local to a unit, and `Scenario::check` for claims that
// relate units (an optimal curve lower-bounding heuristic points, say),
// fed by the key/value pairs units publish with `UnitContext::value`.
// A failed check fails the scenario run (and hence the smoke tests).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "dpm/optimizer.h"
#include "scenario/report.h"
#include "sim/hash.h"
#include "sim/rng.h"

namespace dpm::scenario {

using Record = JsonRecord;

/// Version of the result semantics: what a record's fields *mean* and
/// which algorithms produce them.  It is folded into every unit's cache
/// key, so bumping it invalidates the whole on-disk result cache —
/// required whenever a change legitimately moves results (solver
/// behavior, record naming, simulation semantics).  The golden-baseline
/// update procedure in docs/bench-format.md pairs such a bump with
/// regenerated baselines.
inline constexpr std::uint64_t kResultSchemaVersion = 2;

/// Everything a unit body may produce; assembled by the runner in unit
/// order, so output and JSON are independent of scheduling.
struct UnitOutput {
  std::vector<Record> records;
  std::vector<std::string> lines;     // human-readable table rows
  std::vector<std::string> failures;  // failed expected-shape assertions
  std::vector<std::pair<std::string, double>> values;  // cross-unit facts
  double wall_ms = 0.0;               // real time (stdout only, not JSON)
};

/// Handed to a unit body while it runs on a worker thread.
class UnitContext {
 public:
  UnitContext(std::string scenario_name, std::size_t unit_index, bool smoke)
      : scenario_(std::move(scenario_name)),
        index_(unit_index),
        smoke_(smoke),
        rng_(sim::derive_seed(scenario_, unit_index)) {}

  bool smoke() const noexcept { return smoke_; }

  /// Deterministic seed for this unit: a pure function of
  /// (scenario name, unit index, salt) — never of the worker thread.
  std::uint64_t seed(std::uint64_t salt = 0) const {
    return sim::derive_seed(scenario_, index_, salt);
  }

  /// The unit's own PRNG stream (seeded with seed(0)).
  sim::Rng& rng() noexcept { return rng_; }

  /// Monte-Carlo length helper: the full slice count, shrunk under
  /// --smoke so every scenario's smoke grid stays test-suite fast.
  std::size_t slices(std::size_t full, std::size_t smoke = 30000) const {
    return smoke_ ? std::min(full, smoke) : full;
  }

  /// Emits one record of the shared BENCH_*.json schema (wall_ms is
  /// fixed at 0 so the JSON is deterministic across --jobs settings).
  void record(std::string name, std::size_t iterations, double objective) {
    out_.records.push_back({std::move(name), 0.0, iterations, objective});
  }

  /// Buffered stdout line (printed in unit order by the runner).
  void line(std::string text) { out_.lines.push_back(std::move(text)); }
  void linef(const char* fmt, ...)
#if defined(__GNUC__)
      __attribute__((format(printf, 2, 3)))
#endif
      ;

  /// Publishes a named number for cross-unit shape checks.
  void value(std::string key, double v) {
    out_.values.emplace_back(std::move(key), v);
  }

  /// Expected-shape assertion; a failure fails the scenario run.
  void check(bool ok, std::string what) {
    if (!ok) out_.failures.push_back(std::move(what));
  }

  const std::string& scenario() const noexcept { return scenario_; }
  std::size_t unit_index() const noexcept { return index_; }
  UnitOutput& output() noexcept { return out_; }

 private:
  std::string scenario_;
  std::size_t index_;
  bool smoke_;
  sim::Rng rng_;
  UnitOutput out_;
};

/// The parallel quantum: a labelled body the runner executes on one
/// worker thread.
struct Unit {
  Unit() = default;
  Unit(std::string label_, std::function<void(UnitContext&)> run_,
       std::function<void(sim::Fnv1a&, bool)> fingerprint_ = nullptr)
      : label(std::move(label_)),
        run(std::move(run_)),
        fingerprint(std::move(fingerprint_)) {}

  std::string label;
  std::function<void(UnitContext&)> run;
  /// Optional content fingerprint: streams the unit's *inputs* — the
  /// composed model, optimizer config, LP content, grid points — into
  /// `h`, making the unit's cache key a content address (see
  /// Scenario::unit_key and scenario/cache.h).  sweep_unit and
  /// point_unit install one automatically.  Hand-written units may
  /// leave it empty; their key then degrades to (schema version,
  /// scenario, unit index, label, smoke flag), which still replays
  /// correctly across reruns of one build and is invalidated by
  /// kResultSchemaVersion bumps on semantic changes.
  std::function<void(sim::Fnv1a& h, bool smoke)> fingerprint;
};

/// Read-side of the cross-unit value store for Scenario::check.
class ShapeChecker {
 public:
  explicit ShapeChecker(std::map<std::string, double> values)
      : values_(std::move(values)) {}

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  /// Looks a published value up; a missing key records a failure and
  /// returns NaN so dependent comparisons fail loudly, not silently.
  double get(const std::string& key) {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    failures_.push_back("shape check referenced missing value '" + key + "'");
    return std::numeric_limits<double>::quiet_NaN();
  }

  /// get() for values used as loop bounds/indices: returns 0 (and
  /// records the failure) when the key is missing, so callers never
  /// convert the NaN sentinel to an integer (UB).  A unit that died
  /// before publishing its counts then yields an empty loop plus a
  /// missing-key failure instead of undefined behaviour.
  std::size_t count(const std::string& key) {
    const double v = get(key);
    if (!(v >= 0.0)) return 0;  // NaN or negative
    return static_cast<std::size_t>(v);
  }

  void check(bool ok, std::string what) {
    if (!ok) failures_.push_back(std::move(what));
  }

  const std::map<std::string, double>& values() const noexcept {
    return values_;
  }
  std::vector<std::string> take_failures() { return std::move(failures_); }

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
};

/// One comparator tolerance rule (scenario/compare.h): how far a
/// record's fields may drift from a baseline before --compare fails.
/// Declared per scenario next to its expected-shape assertions; the
/// first rule whose `name_contains` is a substring of the record name
/// wins, and records matching no rule use the defaults below.
///
/// Defaults suit deterministic LP records: objectives near-exact (the
/// 1e-7 relative slack absorbs refactor-level FP reassociation),
/// iteration counts loose (pivot counts legitimately move with solver
/// tuning; only order-of-magnitude blowups — a lost warm start — should
/// fail).  Monte-Carlo records need scenario-declared looser rules.
struct ToleranceRule {
  std::string name_contains;  // "" matches every record
  double objective_abs = 1e-9;
  double objective_rel = 1e-7;
  double iterations_abs = 50.0;
  double iterations_rel = 1.0;
};

/// One declarative experiment.  `units(smoke)` expands the grid; the
/// optional `check` runs after every unit finished, over the merged
/// value store.
struct Scenario {
  std::string name;   // registry key, e.g. "fig08_disk"
  std::string title;  // banner, e.g. "Table I + Figure 8(b) (Sec. VI-A)"
  std::string what;   // one-line description for --list
  std::function<std::vector<Unit>(bool smoke)> units;
  std::function<void(ShapeChecker&)> check;  // may be empty
  /// --compare tolerance rules, searched in declaration order (see
  /// ToleranceRule); empty means every record uses the defaults.
  std::vector<ToleranceRule> tolerances;

  /// Content-address of one unit: H(schema version, scenario name, unit
  /// index, label, smoke flag, unit fingerprint).  Expands `units(smoke)`
  /// to reach the unit; the runner, which already holds the expansion,
  /// uses the free `unit_key()` below.  `schema_version` is exposed for
  /// the property tests; production callers keep the default.
  std::uint64_t unit_key(
      std::size_t index, bool smoke,
      std::uint64_t schema_version = kResultSchemaVersion) const;
};

/// unit_key for an already-expanded unit (same value as the member).
std::uint64_t unit_key(const Scenario& sc, const Unit& unit,
                       std::size_t index, bool smoke,
                       std::uint64_t schema_version = kResultSchemaVersion);

// ---------------------------------------------------------------------
// Declarative builders
// ---------------------------------------------------------------------

enum class Monotone { kNone, kNonincreasing, kNondecreasing };

/// A warm-started Pareto/constraint sweep over one model: the
/// declarative core of Figs. 6, 8(b), 9(a), 9(b), 10 and the ablations.
/// Routed through PolicyOptimizer::sweep(), so every point after the
/// first restarts from the previous optimal basis; the unit records
/// per-point objectives/pivots plus cold-vs-warm pivot counts.
struct SweepSpec {
  std::string series;  // record-name prefix, unique within the scenario
  std::function<SystemModel()> model;
  std::function<OptimizerConfig(const SystemModel&)> config;
  std::function<StateActionMetric(const SystemModel&)> objective;
  std::function<StateActionMetric(const SystemModel&)> swept;
  std::string swept_name = "bound";
  std::vector<double> bounds;  // per-step bounds, in sweep order
  /// Fixed constraints held at every point (may be empty/null).
  std::function<std::vector<OptimizationConstraint>(const SystemModel&)>
      fixed;
  /// Pretty-printer for a bound (defaults to "%g"); Fig. 9a uses it to
  /// show "thpt>=t" for a bound stored as -t.
  std::function<std::string(double)> bound_label;
  /// Post-sweep hook on the same worker: simulation circles, structural
  /// inspection of pt.frequencies, extra per-point checks.
  std::function<void(const SystemModel&, const PolicyOptimizer&,
                     const std::vector<PolicyOptimizer::ParetoPoint>&,
                     UnitContext&)>
      inspect;
  /// Number of grid points kept under --smoke (evenly spaced subset,
  /// endpoints included); 0 keeps the full grid.
  std::size_t smoke_points = 3;
  /// Expected curve shape along the listed bound order.
  Monotone monotone = Monotone::kNone;
  /// When true, at least one point must be feasible (default).
  bool expect_some_feasible = true;
};

Unit sweep_unit(SweepSpec spec);

/// One independent cell of a structural grid: its own model, one cold
/// solve.  Cells parallelize freely because nothing is shared.
struct PointSpec {
  std::string name;  // record name, unique within the scenario
  std::function<SystemModel()> model;
  std::function<OptimizerConfig(const SystemModel&)> config;
  std::function<StateActionMetric(const SystemModel&)> objective;
  std::function<std::vector<OptimizationConstraint>(const SystemModel&)>
      constraints;
  bool expect_feasible = false;
};

Unit point_unit(PointSpec spec);

/// Evenly spaced subset of `bounds` (endpoints included) for smoke
/// grids; k == 0 or k >= size keeps everything.
std::vector<double> smoke_subset(const std::vector<double>& bounds,
                                 std::size_t k);

/// One feasible point of a sweep series, as published to the value
/// store by sweep_unit ("<series>/<i>/{bound,objective,feasible}").
struct CurvePoint {
  double bound = 0.0;
  double objective = 0.0;
};

/// Collects a series' feasible points back out of the value store for
/// cross-unit shape checks; records a failure when the series is empty.
std::vector<CurvePoint> collect_curve(ShapeChecker& c,
                                      const std::string& series);

/// The Fig. 8b / Fig. 9b dominance claim: the optimal curve lower-
/// bounds a (possibly simulated) reference point.  Finds the tightest
/// swept bound the point's achieved metric also satisfies and checks
/// the optimum there needs no more than the point's objective plus
/// slack (relative + absolute, absorbing Monte-Carlo noise).  No-op
/// when the point lies outside the swept grid.
void check_curve_dominates(ShapeChecker& c,
                           const std::vector<CurvePoint>& curve,
                           double point_metric, double point_objective,
                           double rel_slack, double abs_slack,
                           const std::string& what);

}  // namespace dpm::scenario
