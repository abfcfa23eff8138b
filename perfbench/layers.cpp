// dpm_layers: the in-process half of the dpmd benchmark's traced run.
//
// Replays, in order, every request line one dpmd daemon served through
// the serving layers the daemon composes (protocol parse, model compose,
// LP assembly, rhs install and request keys, the working simplex solve,
// the canonical finish, serialization) and times each call from here, so
// the per-request wall time splits by layer without instrumenting the
// program itself.  The solve order mirrors PolicyEngine: one session per
// structural key (LRU-bounded at the daemon's default max_sessions), the
// crash seed on large cold solves, an exact-hit tier keyed by the solve
// key, the rhs installed per request, a supervised solve warm-started
// from the session's last optimal basis, then a zero-pivot supervised
// re-solve from a fresh factorization.  Pivots are counted the way the
// engine counts them (the determining rung of each of the two solves),
// so run.py can require the replay's tier counts and pivot totals to
// equal the daemon's counter deltas over the same lines.  The solver's
// own split (factorize, update, sweep) is the SimplexStats of the solves.
//
//   dpm_layers PRIME_FILE SAMPLE_FILE
//
// PRIME_FILE lines (everything the daemon served before the timed
// window) are replayed untimed; SAMPLE_FILE lines (the window) are timed.
// Prints one JSON object: per-layer sums over the sample, the sample's
// tier counts and pivots, and per sample line its objective_per_step and
// in-process milliseconds.  Supports the request shapes run.py sends:
// optimize/reoptimize with "le" constraints and an explicit initial
// distribution.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dpm/crash.h"
#include "dpm/optimizer.h"
#include "lp/revised_simplex.h"
#include "robust/supervisor.h"
#include "scenario/json.h"
#include "serve/protocol.h"

namespace {

using Clock = std::chrono::steady_clock;
using dpm::scenario::JsonValue;

constexpr std::size_t kCrashMinColumns = 4096;  // PolicyEngine's threshold
constexpr std::size_t kMaxSessions = 256;       // EngineOptions default

double ms_since(Clock::time_point& t) {
  const Clock::time_point now = Clock::now();
  const double ms = std::chrono::duration<double, std::milli>(now - t).count();
  t = now;
  return ms;
}

std::uint64_t outcome_pivots(const dpm::robust::SolveOutcome& outcome) {
  return outcome.steps.empty() ? 0 : outcome.steps.back().iterations;
}

struct Session {
  dpm::SystemModel model;
  double discount;
  std::string objective;
  std::unique_ptr<dpm::PolicyOptimizer> optimizer;
  std::vector<dpm::OptimizationConstraint> constraints;
  dpm::lp::LpProblem lp;
  std::vector<std::size_t> crash_cols;
  dpm::lp::SimplexBasis basis;
  std::uint64_t lru = 0;

  Session(dpm::SystemModel m, const dpm::serve::Request& request)
      : model(std::move(m)),
        discount(request.discount),
        objective(request.objective) {
    dpm::OptimizerConfig config;
    config.discount = discount;
    optimizer = std::make_unique<dpm::PolicyOptimizer>(model, config);
    for (const dpm::serve::ConstraintSpec& spec : request.constraints) {
      dpm::OptimizationConstraint oc;
      oc.metric = dpm::serve::metric_by_name(model, spec.metric);
      oc.per_step_bound = spec.bound;
      constraints.push_back(std::move(oc));
    }
    const dpm::StateActionMetric cost =
        dpm::serve::metric_by_name(model, objective);
    lp = optimizer->build_lp(cost, constraints);
    if (model.num_states() * model.num_commands() >= kCrashMinColumns) {
      crash_cols = dpm::crash_columns_for_lp(
          dpm::greedy_crash_actions(model.chain().sparse(), cost, discount),
          model.num_commands(), lp.num_constraints());
    }
  }
};

struct Layers {
  double parse_ms = 0, compose_ms = 0, lp_build_ms = 0, rhs_key_ms = 0;
  double solve_ms = 0, finish_ms = 0, serialize_ms = 0;
  double factorize_ms = 0, ft_update_ms = 0, sweep_ms = 0;
  double refactorizations = 0;
  double exact_hits = 0, near_hits = 0, cold_solves = 0;
  double repair_pivots = 0, cold_pivots = 0;
  std::vector<double> objectives, request_ms;

  void add(const dpm::lp::SimplexStats& s) {
    factorize_ms += s.refactor_ms;
    ft_update_ms += s.update_ms;
    sweep_ms += s.sweep_ms;
    refactorizations += double(s.refactorizations);
  }
};

class Replayer {
 public:
  // Serves one line into `L`.  Returns false (with a message on stderr)
  // when the line cannot be served.
  bool serve(const std::string& line, Layers& L) {
    const Clock::time_point start = Clock::now();
    Clock::time_point t = start;

    const dpm::serve::Request req = dpm::serve::parse_request(line);
    L.parse_ms += ms_since(t);

    std::optional<dpm::SystemModel> model;
    if (req.model) model = req.model->compose();
    L.compose_ms += ms_since(t);

    std::uint64_t structural = 0;
    if (model) {
      structural = dpm::serve::structural_request_key(
          *model, req.discount, req.objective, req.constraints);
    } else {
      const auto ref = dpm::serve::key_from_hex(req.model_ref);
      if (!ref) return fail("bad model_ref");
      structural = *ref;
    }
    const double key_ms = ms_since(t);

    auto it = sessions_.find(structural);
    if (it == sessions_.end()) {
      if (!model) return fail("unknown model_ref");
      if (sessions_.size() >= kMaxSessions) evict_stalest();
      it = sessions_
               .emplace(structural,
                        std::make_unique<Session>(std::move(*model), req))
               .first;
      L.lp_build_ms += ms_since(t);
    }
    Session& s = *it->second;
    s.lru = ++clock_;

    const std::size_t n = s.model.num_states();
    const double horizon = 1.0 / (1.0 - s.discount);
    const dpm::linalg::Vector p0 =
        req.initial.empty() ? s.model.uniform_distribution() : req.initial;
    if (p0.size() != n || req.constraints.size() != s.constraints.size()) {
      return fail("request does not match its session");
    }
    for (std::size_t j = 0; j < n; ++j) s.lp.set_rhs(j, p0[j]);
    for (std::size_t k = 0; k < req.constraints.size(); ++k) {
      s.lp.set_rhs(n + k, req.constraints[k].bound * horizon);
    }
    const std::uint64_t key =
        dpm::serve::solve_request_key(structural, s.lp, req.want_policy);
    const auto cached = answered_.find(key);
    L.rhs_key_ms += key_ms + ms_since(t);
    if (cached != answered_.end()) {
      L.exact_hits += 1;
      return finish_request(L, cached->second, start);
    }

    const bool warm = !s.basis.empty();
    dpm::lp::SimplexStats solve_stats;
    dpm::robust::SupervisorOptions options;
    options.lp.stats = &solve_stats;
    if (!warm && !s.crash_cols.empty()) options.lp.crash_columns = &s.crash_cols;
    dpm::lp::SimplexBasis working;
    const dpm::robust::SolveOutcome first =
        dpm::robust::SolveSupervisor(options).solve(
            s.lp, warm ? &s.basis : nullptr, &working);
    L.solve_ms += ms_since(t);
    L.add(solve_stats);
    if (!first.determined() ||
        first.solution.status != dpm::lp::LpStatus::kOptimal) {
      return fail("working solve not optimal");
    }

    dpm::lp::SimplexStats finish_stats;
    dpm::robust::SupervisorOptions certify;
    certify.lp.stats = &finish_stats;
    dpm::lp::SimplexBasis canonical;
    const dpm::robust::SolveOutcome finish =
        dpm::robust::SolveSupervisor(certify).solve(s.lp, &working, &canonical);
    L.finish_ms += ms_since(t);
    L.add(finish_stats);
    if (!finish.determined() ||
        finish.solution.status != dpm::lp::LpStatus::kOptimal) {
      return fail("canonical finish not optimal");
    }
    const double pivots = double(outcome_pivots(first) + outcome_pivots(finish));
    (warm ? L.near_hits : L.cold_solves) += 1;
    (warm ? L.repair_pivots : L.cold_pivots) += pivots;
    const dpm::lp::LpSolution& sol = finish.solution;
    s.basis = std::move(canonical);

    const double one_minus_gamma = 1.0 - s.discount;
    const std::size_t na = s.model.num_commands();
    JsonValue o = JsonValue::object();
    o.set("status", JsonValue::string("ok"));
    o.set("feasible", JsonValue::boolean(true));
    o.set("model_ref", JsonValue::string(dpm::serve::key_to_hex(structural)));
    o.set("objective", JsonValue::string(s.objective));
    o.set("objective_per_step",
          JsonValue::number(one_minus_gamma * sol.objective));
    JsonValue achieved = JsonValue::array();
    for (const dpm::OptimizationConstraint& c : s.constraints) {
      double total = 0.0;
      for (std::size_t col = 0; col < sol.x.size(); ++col) {
        if (sol.x[col] != 0.0) total += c.metric(col / na, col % na) * sol.x[col];
      }
      achieved.push_back(JsonValue::number(one_minus_gamma * total));
    }
    o.set("constraint_per_step", std::move(achieved));
    const std::string body = o.dump();
    L.serialize_ms += ms_since(t);
    if (body.empty()) return fail("empty response");
    const double objective = one_minus_gamma * sol.objective;
    answered_.emplace(key, objective);
    return finish_request(L, objective, start);
  }

 private:
  static bool finish_request(Layers& L, double objective,
                             Clock::time_point start) {
    L.objectives.push_back(objective);
    L.request_ms.push_back(ms_since(start));
    return true;
  }

  void evict_stalest() {
    auto stalest = sessions_.begin();
    for (auto probe = sessions_.begin(); probe != sessions_.end(); ++probe) {
      if (probe->second->lru < stalest->second->lru) stalest = probe;
    }
    sessions_.erase(stalest);
  }

  static bool fail(const std::string& why) {
    std::fprintf(stderr, "dpm_layers: %s\n", why.c_str());
    return false;
  }

  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::unordered_map<std::uint64_t, double> answered_;  // solve key -> optimum
  std::uint64_t clock_ = 0;
};

bool read_lines(const char* path, std::vector<std::string>& lines) {
  std::ifstream in(path);
  if (!in) return false;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return true;
}

JsonValue number_array(const std::vector<double>& values) {
  JsonValue a = JsonValue::array();
  for (const double v : values) a.push_back(JsonValue::number(v));
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s PRIME_FILE SAMPLE_FILE\n", argv[0]);
    return 2;
  }
  std::vector<std::string> prime, sample;
  if (!read_lines(argv[1], prime) || !read_lines(argv[2], sample)) {
    std::fprintf(stderr, "dpm_layers: cannot read input files\n");
    return 2;
  }

  Replayer replayer;
  Layers untimed, layers;
  try {
    for (const std::string& line : prime) {
      if (!replayer.serve(line, untimed)) return 1;
    }
    for (const std::string& line : sample) {
      if (!replayer.serve(line, layers)) return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpm_layers: %s\n", e.what());
    return 1;
  }

  JsonValue o = JsonValue::object();
  const std::pair<const char*, double> sums[] = {
      {"parse_ms", layers.parse_ms},       {"compose_ms", layers.compose_ms},
      {"lp_build_ms", layers.lp_build_ms}, {"rhs_key_ms", layers.rhs_key_ms},
      {"solve_ms", layers.solve_ms},       {"finish_ms", layers.finish_ms},
      {"serialize_ms", layers.serialize_ms},
      {"factorize_ms", layers.factorize_ms},
      {"ft_update_ms", layers.ft_update_ms},
      {"sweep_ms", layers.sweep_ms},
      {"refactorizations", layers.refactorizations},
      {"exact_hits", layers.exact_hits},   {"near_hits", layers.near_hits},
      {"cold_solves", layers.cold_solves},
      {"repair_pivots", layers.repair_pivots},
      {"cold_pivots", layers.cold_pivots},
  };
  for (const auto& [name, value] : sums) o.set(name, JsonValue::number(value));
  o.set("objectives", number_array(layers.objectives));
  o.set("request_ms", number_array(layers.request_ms));
  std::printf("%s\n", o.dump().c_str());
  return 0;
}
