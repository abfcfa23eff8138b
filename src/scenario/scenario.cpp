#include "scenario/scenario.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace dpm::scenario {

namespace {

/// Canonical hash of an optimizer configuration: everything that
/// changes the LP or the policy extraction.
void hash_config(sim::Fnv1a& h, const OptimizerConfig& cfg) {
  h.add_string("OptimizerConfig");
  h.add_double(cfg.discount);
  h.add_size(cfg.initial_distribution.size());
  for (const double p : cfg.initial_distribution) h.add_double(p);
}

}  // namespace

std::uint64_t unit_key(const Scenario& sc, const Unit& unit,
                       std::size_t index, bool smoke,
                       std::uint64_t schema_version) {
  sim::Fnv1a h;
  h.add_string("dpmopt-unit-key");
  h.add_u64(schema_version);
  h.add_string(sc.name);
  h.add_size(index);
  h.add_string(unit.label);
  h.add_byte(smoke ? 1 : 0);
  if (unit.fingerprint) {
    h.add_byte(1);
    unit.fingerprint(h, smoke);
  } else {
    h.add_byte(0);
  }
  return h.digest();
}

std::uint64_t Scenario::unit_key(std::size_t index, bool smoke,
                                 std::uint64_t schema_version) const {
  const std::vector<Unit> expanded = units(smoke);
  if (index >= expanded.size()) {
    throw std::out_of_range("Scenario::unit_key: unit index " +
                            std::to_string(index) + " out of range for '" +
                            name + "'");
  }
  return scenario::unit_key(*this, expanded[index], index, smoke,
                            schema_version);
}

void UnitContext::linef(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out_.lines.emplace_back(buf);
}

std::vector<double> smoke_subset(const std::vector<double>& bounds,
                                 std::size_t k) {
  if (k == 0 || k >= bounds.size()) return bounds;
  std::vector<double> out;
  out.reserve(k);
  if (k == 1) {
    out.push_back(bounds.back());
    return out;
  }
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t idx = i * (bounds.size() - 1) / (k - 1);
    out.push_back(bounds[idx]);
  }
  return out;
}

std::vector<CurvePoint> collect_curve(ShapeChecker& c,
                                      const std::string& series) {
  std::vector<CurvePoint> curve;
  const std::size_t points = c.count(series + "/points");
  for (std::size_t i = 0; i < points; ++i) {
    const std::string k = series + "/" + std::to_string(i);
    if (c.get(k + "/feasible") == 1.0) {
      curve.push_back({c.get(k + "/bound"), c.get(k + "/objective")});
    }
  }
  c.check(!curve.empty(),
          "sweep series '" + series + "' has no feasible point");
  return curve;
}

void check_curve_dominates(ShapeChecker& c,
                           const std::vector<CurvePoint>& curve,
                           double point_metric, double point_objective,
                           double rel_slack, double abs_slack,
                           const std::string& what) {
  for (const CurvePoint& pt : curve) {
    if (pt.bound >= point_metric) {
      c.check(pt.objective <=
                  point_objective + rel_slack * point_objective + abs_slack,
              what + " (objective " + std::to_string(point_objective) +
                  ", metric " + std::to_string(point_metric) +
                  ") beat the optimal curve at bound<=" +
                  std::to_string(pt.bound));
      return;
    }
  }
}

namespace {

std::string default_bound_label(const std::string& swept_name, double bound) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s<=%g", swept_name.c_str(), bound);
  return buf;
}

}  // namespace

Unit sweep_unit(SweepSpec sweep_spec) {
  // The run body and the cache fingerprint share one immutable spec.
  const auto sp = std::make_shared<const SweepSpec>(std::move(sweep_spec));
  Unit unit;
  unit.label = sp->series;
  // Content address of the series: the composed model, the optimizer
  // config, the LP the first grid point assembles (which canonically
  // covers objective, fixed constraints, and the swept metric via their
  // coefficients), and the grid itself.  One series is one unit, so a
  // warm-started sweep caches and replays as a whole — a replayed run
  // stays byte-identical to a cold one.
  unit.fingerprint = [sp](sim::Fnv1a& h, bool smoke) {
    const SystemModel model = sp->model();
    model.hash_into(h);
    const OptimizerConfig cfg = sp->config(model);
    hash_config(h, cfg);
    const std::vector<double> bounds =
        smoke ? smoke_subset(sp->bounds, sp->smoke_points) : sp->bounds;
    std::vector<OptimizationConstraint> constraints =
        sp->fixed ? sp->fixed(model) : std::vector<OptimizationConstraint>{};
    constraints.push_back({sp->swept(model),
                           bounds.empty() ? 0.0 : bounds.front(),
                           sp->swept_name});
    const PolicyOptimizer opt(model, cfg);
    opt.build_lp(sp->objective(model), constraints).hash_into(h);
    h.add_string(sp->swept_name);
    h.add_size(bounds.size());
    for (const double b : bounds) h.add_double(b);  // the grid points
  };
  unit.run = [sp](UnitContext& ctx) {
    const SweepSpec& spec = *sp;
    const SystemModel model = spec.model();
    const PolicyOptimizer opt(model, spec.config(model));
    const std::vector<OptimizationConstraint> fixed =
        spec.fixed ? spec.fixed(model) : std::vector<OptimizationConstraint>{};
    const std::vector<double> bounds =
        ctx.smoke() ? smoke_subset(spec.bounds, spec.smoke_points)
                    : spec.bounds;

    const auto curve = opt.sweep(spec.objective(model), spec.swept(model),
                                 spec.swept_name, bounds, fixed);

    const auto label = [&](double b) {
      return spec.bound_label ? spec.bound_label(b)
                              : default_bound_label(spec.swept_name, b);
    };

    std::size_t feasible_points = 0;
    std::size_t total_pivots = 0;
    double prev = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t i = 0; i < curve.size(); ++i) {
      const auto& pt = curve[i];
      total_pivots += pt.lp_iterations;
      const std::string pt_name = spec.series + " " + label(pt.bound);
      ctx.record(pt_name, pt.lp_iterations,
                 pt.feasible ? pt.objective : -1.0);
      if (pt.feasible) {
        ctx.linef("  %-44s %12.4f  pivots %4zu", pt_name.c_str(),
                  pt.objective, pt.lp_iterations);
      } else {
        ctx.linef("  %-44s %12s  pivots %4zu", pt_name.c_str(), "infeasible",
                  pt.lp_iterations);
      }
      const std::string vk = spec.series + "/" + std::to_string(i);
      ctx.value(vk + "/bound", pt.bound);
      ctx.value(vk + "/feasible", pt.feasible ? 1.0 : 0.0);
      if (pt.feasible) {
        ++feasible_points;
        ctx.value(vk + "/objective", pt.objective);
        if (!pt.constraint_per_step.empty()) {
          ctx.value(vk + "/achieved", pt.constraint_per_step.back());
        }
        // Expected curve shape along the sweep order.
        if (!std::isnan(prev)) {
          constexpr double kTol = 1e-6;
          if (spec.monotone == Monotone::kNonincreasing) {
            ctx.check(pt.objective <= prev + kTol,
                      spec.series + ": objective rose from " +
                          std::to_string(prev) + " to " +
                          std::to_string(pt.objective) + " at " +
                          label(pt.bound) +
                          " although the constraint was relaxed");
          } else if (spec.monotone == Monotone::kNondecreasing) {
            ctx.check(pt.objective >= prev - kTol,
                      spec.series + ": objective fell from " +
                          std::to_string(prev) + " to " +
                          std::to_string(pt.objective) + " at " +
                          label(pt.bound) +
                          " although the constraint was tightened");
          }
        }
        prev = pt.objective;
      }
    }
    ctx.value(spec.series + "/points", static_cast<double>(curve.size()));
    ctx.value(spec.series + "/feasible_points",
              static_cast<double>(feasible_points));
    if (spec.expect_some_feasible) {
      ctx.check(feasible_points > 0,
                spec.series + ": every sweep point came back infeasible");
    }

    // Warm-start effectiveness (before/after): the first point is a cold
    // solve, every later one restarts from the previous optimal basis.
    if (curve.size() > 1) {
      const std::size_t cold = curve.front().lp_iterations;
      const std::size_t warm = total_pivots - cold;
      const double warm_avg =
          static_cast<double>(warm) / static_cast<double>(curve.size() - 1);
      ctx.record(spec.series + " pivots: cold first point", cold,
                 static_cast<double>(cold));
      ctx.record(spec.series + " pivots: warm rest", warm, warm_avg);
      ctx.linef("  %-44s cold %4zu, warm avg %.1f/point", "warm-start pivots",
                cold, warm_avg);
      ctx.value(spec.series + "/pivots_cold", static_cast<double>(cold));
      ctx.value(spec.series + "/pivots_warm_avg", warm_avg);
    }

    if (spec.inspect) spec.inspect(model, opt, curve, ctx);
  };
  return unit;
}

Unit point_unit(PointSpec point_spec) {
  const auto sp = std::make_shared<const PointSpec>(std::move(point_spec));
  Unit unit;
  unit.label = sp->name;
  // Content address of the cell: its own model, config, and the exact
  // LP it solves (objective + constraint coefficients + scaled rhs).
  unit.fingerprint = [sp](sim::Fnv1a& h, bool /*smoke*/) {
    const SystemModel model = sp->model();
    model.hash_into(h);
    const OptimizerConfig cfg = sp->config(model);
    hash_config(h, cfg);
    const PolicyOptimizer opt(model, cfg);
    opt.build_lp(sp->objective(model),
                 sp->constraints ? sp->constraints(model)
                                 : std::vector<OptimizationConstraint>{})
        .hash_into(h);
  };
  unit.run = [sp](UnitContext& ctx) {
    const PointSpec& spec = *sp;
    const SystemModel model = spec.model();
    const PolicyOptimizer opt(model, spec.config(model));
    const std::vector<OptimizationConstraint> constraints =
        spec.constraints ? spec.constraints(model)
                         : std::vector<OptimizationConstraint>{};
    const OptimizationResult r =
        opt.minimize(spec.objective(model), constraints);
    ctx.record(spec.name, r.lp_iterations,
               r.feasible ? r.objective_per_step : -1.0);
    if (r.feasible) {
      ctx.linef("  %-44s %12.4f  pivots %4zu", spec.name.c_str(),
                r.objective_per_step, r.lp_iterations);
    } else {
      ctx.linef("  %-44s %12s  pivots %4zu", spec.name.c_str(), "infeasible",
                r.lp_iterations);
    }
    ctx.value(spec.name + "/feasible", r.feasible ? 1.0 : 0.0);
    if (r.feasible) ctx.value(spec.name + "/objective", r.objective_per_step);
    if (spec.expect_feasible) {
      ctx.check(r.feasible, spec.name + ": expected a feasible optimum");
    }
  };
  return unit;
}

}  // namespace dpm::scenario
