#include "serve/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <utility>

#include "dpm/crash.h"
#include "dpm/evaluation.h"
#include "robust/probe.h"
#include "robust/supervisor.h"

namespace dpm::serve {

namespace {

using scenario::JsonValue;

/// Mirrors the PolicyOptimizer threshold: below this many columns the
/// crash machinery costs more than the pivots it saves.
constexpr std::size_t kCrashMinColumns = 4096;

/// Bounded latency reservoir (stats endpoint only).
constexpr std::size_t kMaxLatencySamples = 4096;

/// Process-wide aggregate across every engine (relaxed atomics, same
/// contract as lp::sweep_telemetry).
struct TelemetryCells {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> exact_hits{0};
  std::atomic<std::uint64_t> near_hits{0};
  std::atomic<std::uint64_t> cold_solves{0};
  std::atomic<std::uint64_t> evaluations{0};
  std::atomic<std::uint64_t> rejections{0};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> repair_pivots{0};
  std::atomic<std::uint64_t> cold_pivots{0};
  std::atomic<std::uint64_t> seed_factorizations{0};
  std::atomic<std::uint64_t> sheds{0};
  std::atomic<std::uint64_t> conn_sheds{0};
  std::atomic<std::uint64_t> session_evictions{0};
};
TelemetryCells g_telemetry;

void add_telemetry(const EngineCounters& delta) noexcept {
  const auto add = [](std::atomic<std::uint64_t>& cell, std::uint64_t v) {
    if (v != 0) cell.fetch_add(v, std::memory_order_relaxed);
  };
  add(g_telemetry.requests, delta.requests);
  add(g_telemetry.exact_hits, delta.exact_hits);
  add(g_telemetry.near_hits, delta.near_hits);
  add(g_telemetry.cold_solves, delta.cold_solves);
  add(g_telemetry.evaluations, delta.evaluations);
  add(g_telemetry.rejections, delta.rejections);
  add(g_telemetry.failures, delta.failures);
  add(g_telemetry.repair_pivots, delta.repair_pivots);
  add(g_telemetry.cold_pivots, delta.cold_pivots);
  add(g_telemetry.seed_factorizations, delta.seed_factorizations);
  add(g_telemetry.sheds, delta.sheds);
  add(g_telemetry.conn_sheds, delta.conn_sheds);
  add(g_telemetry.session_evictions, delta.session_evictions);
}

void add_counters(EngineCounters& into, const EngineCounters& delta) {
  into.requests += delta.requests;
  into.exact_hits += delta.exact_hits;
  into.near_hits += delta.near_hits;
  into.cold_solves += delta.cold_solves;
  into.evaluations += delta.evaluations;
  into.rejections += delta.rejections;
  into.failures += delta.failures;
  into.repair_pivots += delta.repair_pivots;
  into.cold_pivots += delta.cold_pivots;
  into.seed_factorizations += delta.seed_factorizations;
  into.sheds += delta.sheds;
  into.conn_sheds += delta.conn_sheds;
  into.session_evictions += delta.session_evictions;
}

/// Best-effort request-id recovery for responses produced *without*
/// parsing the line (admission sheds): a shed must stay cheap, so this
/// only recognizes a top-level "id" whose value is a plain string with
/// no escapes — anything else echoes an empty id.  Responses still
/// arrive in request order per connection, so clients can always match
/// by position.
std::string peek_id(const std::string& line) {
  const std::size_t at = line.find("\"id\"");
  if (at == std::string::npos) return {};
  std::size_t i = at + 4;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size() || line[i] != ':') return {};
  ++i;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size() || line[i] != '"') return {};
  const std::size_t start = ++i;
  while (i < line.size() && line[i] != '"' && line[i] != '\\') ++i;
  if (i >= line.size() || line[i] != '"') return {};
  return line.substr(start, i - start);
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Arms the cooperative solve deadline for the current request; always
/// cleared on exit so worker threads never leak a stale deadline.
class DeadlineGuard {
 public:
  explicit DeadlineGuard(double wall_ms) : armed_(wall_ms > 0.0) {
    if (armed_) robust::set_thread_deadline(wall_ms);
  }
  ~DeadlineGuard() {
    if (armed_) robust::clear_thread_deadline();
  }
  DeadlineGuard(const DeadlineGuard&) = delete;
  DeadlineGuard& operator=(const DeadlineGuard&) = delete;

 private:
  bool armed_;
};

// Pivots attributable to the *answer*: the determining (final) rung's
// iterations.  Abandoned rungs burn pivots too, but counting them
// would make the serving economics depend on absorbed transient
// faults (the supervisor's retry rung replays the clean trajectory
// bit-identically, so the final rung's count is fault-invariant); the
// process-wide lp::pivots_executed() odometer still sees every pivot.
std::uint64_t outcome_pivots(const robust::SolveOutcome& outcome) {
  return outcome.steps.empty() ? 0 : outcome.steps.back().iterations;
}

// True when the determining rung ran the kPlain configuration — the
// plain rung itself, or the retry rung that repeats it on a new engine
// — i.e. the configuration the canonical finish solves in.
bool replays_canonical_finish(const robust::SolveOutcome& outcome) {
  if (outcome.steps.empty()) return false;
  const robust::RecoveryRung rung = outcome.steps.back().rung;
  return rung == robust::RecoveryRung::kPlain ||
         rung == robust::RecoveryRung::kRetryRefactorize;
}

/// Validates a wire initial distribution against the model and returns
/// the effective p0 (uniform when empty).
linalg::Vector resolve_initial(const SystemModel& model,
                               const std::vector<double>& initial) {
  if (initial.empty()) return model.uniform_distribution();
  if (initial.size() != model.num_states()) {
    throw ProtocolError("bad-request",
                        "'initial' must have one entry per composed state");
  }
  double mass = 0.0;
  for (const double v : initial) {
    if (v < -1e-12) {
      throw ProtocolError("bad-request", "'initial' entries must be >= 0");
    }
    mass += v;
  }
  if (std::abs(mass - 1.0) > 1e-7) {
    throw ProtocolError("bad-request", "'initial' must sum to 1");
  }
  return initial;
}

}  // namespace

EngineCounters serve_telemetry() noexcept {
  EngineCounters t;
  t.requests = g_telemetry.requests.load(std::memory_order_relaxed);
  t.exact_hits = g_telemetry.exact_hits.load(std::memory_order_relaxed);
  t.near_hits = g_telemetry.near_hits.load(std::memory_order_relaxed);
  t.cold_solves = g_telemetry.cold_solves.load(std::memory_order_relaxed);
  t.evaluations = g_telemetry.evaluations.load(std::memory_order_relaxed);
  t.rejections = g_telemetry.rejections.load(std::memory_order_relaxed);
  t.failures = g_telemetry.failures.load(std::memory_order_relaxed);
  t.repair_pivots = g_telemetry.repair_pivots.load(std::memory_order_relaxed);
  t.cold_pivots = g_telemetry.cold_pivots.load(std::memory_order_relaxed);
  t.seed_factorizations =
      g_telemetry.seed_factorizations.load(std::memory_order_relaxed);
  t.sheds = g_telemetry.sheds.load(std::memory_order_relaxed);
  t.conn_sheds = g_telemetry.conn_sheds.load(std::memory_order_relaxed);
  t.session_evictions =
      g_telemetry.session_evictions.load(std::memory_order_relaxed);
  return t;
}

/// One registered model structure: the composed model, its LP (rhs
/// mutated per request), the crash seed, the last optimal basis the
/// next near-hit warm-starts from, and the simplex engine kept for this
/// LP (its standard form and the fresh LU of `basis`).  Heap-allocated
/// so the metric closures, the optimizer's model pointer and the LP the
/// retained engine is bound to stay put for the session's lifetime, and
/// shared so an evicted session outlives the requests still using it.
/// The fields set by the constructor are immutable afterwards; `mutex`
/// guards the rest (lp's rhs, basis, simplex) for one request at a time.
struct PolicyEngine::Session {
  SystemModel model;
  double discount = 0.0;
  std::string objective_name;
  std::vector<ConstraintSpec> specs;  // structural (bounds ignored)
  std::unique_ptr<PolicyOptimizer> optimizer;
  std::vector<OptimizationConstraint> constraints;  // ge senses negated
  lp::LpProblem lp;
  std::vector<std::size_t> crash_cols;  // empty below kCrashMinColumns
  lp::SimplexBasis basis;               // last optimal basis
  lp::RetainedSimplex simplex;          // engine kept across requests
  std::uint64_t structural = 0;
  std::uint64_t lru = 0;  // engine session_clock_ at last use (table lock)
  std::mutex mutex;

  Session(SystemModel m, const Request& request, std::uint64_t key)
      : model(std::move(m)),
        discount(request.discount),
        objective_name(request.objective),
        specs(request.constraints),
        structural(key) {
    OptimizerConfig config;
    config.discount = discount;
    optimizer = std::make_unique<PolicyOptimizer>(model, config);
    for (const ConstraintSpec& spec : specs) {
      OptimizationConstraint oc;
      const StateActionMetric metric = metric_by_name(model, spec.metric);
      // "ge" bounds below: negate metric and bound so the LP keeps its
      // all-kLe constraint block and the warm-start row layout.
      oc.metric = spec.lower_bound
                      ? StateActionMetric([metric](std::size_t s,
                                                   std::size_t a) {
                          return -metric(s, a);
                        })
                      : metric;
      oc.per_step_bound = spec.lower_bound ? -spec.bound : spec.bound;
      oc.name = spec.name;
      constraints.push_back(std::move(oc));
    }
    lp = optimizer->build_lp(metric_by_name(model, objective_name),
                             constraints);
    if (model.num_states() * model.num_commands() >= kCrashMinColumns) {
      const std::vector<std::size_t> actions = greedy_crash_actions(
          model.chain().sparse(), metric_by_name(model, objective_name),
          discount);
      crash_cols = crash_columns_for_lp(actions, model.num_commands(),
                                        lp.num_constraints());
    }
  }
};

struct PolicyEngine::Parsed {
  Request req;
  std::string error_code;    // non-empty: rejected before processing
  std::string error_detail;
  std::optional<SystemModel> model;  // composed inline model
  std::uint64_t structural = 0;      // solve ops only
};

PolicyEngine::PolicyEngine(EngineOptions options)
    : options_(std::move(options)) {
  if (options_.cache) {
    // An empty dir keeps the store purely in memory: ResultCache only
    // touches the filesystem in load()/flush(), which we then skip.
    cache_ = std::make_unique<scenario::ResultCache>(options_.cache_dir,
                                                     options_.cache_entries);
    if (!options_.cache_dir.empty()) cache_->load();
  }
}

PolicyEngine::~PolicyEngine() = default;

PolicyEngine::Parsed PolicyEngine::parse_one(const std::string& line) const {
  Parsed p;
  try {
    p.req = parse_request(line);
    if (p.req.model) p.model = p.req.model->compose();
    if (p.req.op == Op::kOptimize || p.req.op == Op::kReoptimize) {
      if (p.model) {
        p.structural = structural_request_key(*p.model, p.req.discount,
                                              p.req.objective,
                                              p.req.constraints);
      } else {
        const std::optional<std::uint64_t> ref = key_from_hex(p.req.model_ref);
        if (!ref) {
          throw ProtocolError("bad-request",
                              "'model_ref' must be a 16-hex request key");
        }
        p.structural = *ref;
      }
    }
  } catch (const ProtocolError& e) {
    p.error_code = e.code();
    p.error_detail = e.what();
  } catch (const std::exception& e) {
    p.error_code = "bad-request";
    p.error_detail = e.what();
  }
  return p;
}

std::string PolicyEngine::handle_line(const std::string& line) {
  const double t0 = now_ms();
  Parsed parsed = parse_one(line);
  EngineCounters delta;
  std::string response =
      compose_response(parsed.req.id, process(parsed, delta));
  record(delta, now_ms() - t0);
  return response;
}

std::string PolicyEngine::submit(const std::string& line) {
  std::size_t admitted = inflight_.load();
  do {
    if (options_.max_inflight > 0 && admitted >= options_.max_inflight) {
      // Admission budget exhausted: shed instead of queuing.  The line
      // is never parsed (shedding must stay cheap under a flood), so the
      // id echo is best-effort and the detail names the budget that
      // fired.
      EngineCounters delta;
      delta.sheds = 1;
      record(delta);
      return compose_response(
          peek_id(line),
          error_body("overloaded",
                     "admission budget exhausted (max_inflight=" +
                         std::to_string(options_.max_inflight) +
                         "); retry later"));
    }
  } while (!inflight_.compare_exchange_weak(admitted, admitted + 1));
  // Released on every exit, including a throw out of handle_line.
  struct InflightGuard {
    std::atomic<std::size_t>& inflight;
    ~InflightGuard() { --inflight; }
  } guard{inflight_};
  return handle_line(line);
}

std::string PolicyEngine::process(Parsed& parsed, EngineCounters& delta) {
  delta.requests += 1;
  if (!parsed.error_code.empty()) {
    delta.rejections += 1;
    return error_body(parsed.error_code, parsed.error_detail);
  }
  try {
    switch (parsed.req.op) {
      case Op::kOptimize:
      case Op::kReoptimize:
        return process_solve(parsed, delta);
      case Op::kEvaluate:
        return process_evaluate(parsed, delta);
      case Op::kStats:
        return stats_body(delta);
      case Op::kShutdown: {
        shutdown_ = true;
        JsonValue o = JsonValue::object();
        o.set("status", JsonValue::string("ok"));
        o.set("shutting_down", JsonValue::boolean(true));
        return o.dump();
      }
    }
  } catch (const ProtocolError& e) {
    delta.rejections += 1;
    return error_body(e.code(), e.what());
  } catch (const std::exception& e) {
    delta.rejections += 1;
    return error_body("bad-request", e.what());
  }
  return {};
}

void PolicyEngine::record(const EngineCounters& delta, double elapsed_ms) {
  add_telemetry(delta);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  add_counters(counters_, delta);
  if (elapsed_ms < 0.0) return;  // not a served request: no sample
  if (latency_samples_.size() >= kMaxLatencySamples) {
    latency_samples_[counters_.requests % kMaxLatencySamples] = elapsed_ms;
  } else {
    latency_samples_.push_back(elapsed_ms);
  }
}

bool PolicyEngine::cache_lookup(std::uint64_t key, std::string& body) {
  if (!cache_) return false;
  scenario::UnitOutput cached;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (!cache_->lookup(key, cached) || cached.lines.empty()) return false;
  body = std::move(cached.lines.front());
  return true;
}

void PolicyEngine::cache_store(std::uint64_t key, const std::string& body) {
  if (!cache_) return;
  scenario::UnitOutput out;
  out.lines.push_back(body);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_->store(key, "dpmd", key_to_hex(key), out);
}

std::shared_ptr<PolicyEngine::Session> PolicyEngine::resolve_session(
    Parsed& parsed, EngineCounters& delta) {
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    auto it = sessions_.find(parsed.structural);
    if (it != sessions_.end()) {
      it->second->lru = ++session_clock_;
      return it->second;
    }
  }
  if (!parsed.model) {
    throw ProtocolError("unknown-model",
                        "model_ref " + key_to_hex(parsed.structural) +
                            " is not registered; send the model inline");
  }
  // Built outside the table lock: LP assembly and the crash seed are the
  // expensive part of registering a structure.
  std::shared_ptr<Session> built;
  try {
    built = std::make_shared<Session>(std::move(*parsed.model), parsed.req,
                                      parsed.structural);
  } catch (const ModelError& e) {
    throw ProtocolError("bad-model", e.what());
  } catch (const lp::LpError& e) {
    throw ProtocolError("bad-model", e.what());
  }
  std::shared_ptr<Session> evicted;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(table_mutex_);
  auto it = sessions_.find(parsed.structural);
  if (it == sessions_.end()) {
    // LRU bound on the warm-start state: inserting past the cap drops
    // the stalest structure.  Its next request re-registers and pays a
    // cold solve — whose canonical finish makes the response bytes
    // identical to the evicted session's original cold solve, so
    // eviction is a pure economics (never correctness) event.  A request
    // still using the evicted session keeps it alive until it returns.
    if (options_.max_sessions > 0 &&
        sessions_.size() >= options_.max_sessions) {
      auto stalest = sessions_.begin();
      for (auto probe = sessions_.begin(); probe != sessions_.end(); ++probe) {
        if (probe->second->lru < stalest->second->lru) stalest = probe;
      }
      evicted = std::move(stalest->second);
      sessions_.erase(stalest);
      delta.session_evictions += 1;
    }
    it = sessions_.emplace(parsed.structural, std::move(built)).first;
  }
  // else another thread registered the structure first: drop this build
  // and share the winner's session.
  it->second->lru = ++session_clock_;
  return it->second;
}

std::string PolicyEngine::process_solve(Parsed& parsed,
                                        EngineCounters& delta) {
  const std::shared_ptr<Session> held = resolve_session(parsed, delta);
  const Session& session = *held;
  const Request& request = parsed.req;

  // A model_ref request must match the session's structural constraint
  // list — the bounds are the only per-request degrees of freedom.
  if (request.constraints.size() != session.specs.size()) {
    throw ProtocolError("bad-request",
                        "constraint list does not match the referenced model "
                        "structure");
  }
  for (std::size_t k = 0; k < session.specs.size(); ++k) {
    if (request.constraints[k].metric != session.specs[k].metric ||
        request.constraints[k].lower_bound != session.specs[k].lower_bound) {
      throw ProtocolError("bad-request",
                          "constraint list does not match the referenced "
                          "model structure");
    }
  }
  // A model_ref request cannot re-derive the structural inputs, so any
  // it supplies explicitly must agree with the session — silently
  // solving with the session's values would answer a different problem
  // than the one the client described.  Omitted fields default to the
  // session's.  (With an inline model these cannot mismatch: discount
  // and objective are part of the structural key that found the
  // session.)
  if (request.has_discount && request.discount != session.discount) {
    throw ProtocolError("bad-request",
                        "'discount' does not match the referenced model "
                        "(the structural key fixes the discount; omit the "
                        "field to reuse the session's)");
  }
  if (request.has_objective && request.objective != session.objective_name) {
    throw ProtocolError("bad-request",
                        "'objective' does not match the referenced model "
                        "(the structural key fixes the objective; omit the "
                        "field to reuse the session's)");
  }

  std::lock_guard<std::mutex> lock(held->mutex);
  return solve_in_session(*held, request, delta);
}

std::string PolicyEngine::solve_in_session(Session& session,
                                           const Request& request,
                                           EngineCounters& delta) {
  const std::size_t n = session.model.num_states();
  const double horizon = 1.0 / (1.0 - session.discount);

  // Install the request's constraint point: balance rows carry p0, the
  // metric rows carry bound * horizon (matrix and senses never change,
  // so the session basis stays structurally valid — the warm-start
  // contract of lp::LpProblem::set_rhs).
  const linalg::Vector p0 = resolve_initial(session.model, request.initial);
  for (std::size_t j = 0; j < n; ++j) session.lp.set_rhs(j, p0[j]);
  for (std::size_t k = 0; k < request.constraints.size(); ++k) {
    const ConstraintSpec& spec = request.constraints[k];
    const double bound = spec.lower_bound ? -spec.bound : spec.bound;
    session.lp.set_rhs(n + k, bound * horizon);
  }

  const std::uint64_t key =
      solve_request_key(session.structural, session.lp, request.want_policy);
  std::string body;
  if (cache_lookup(key, body)) {
    delta.exact_hits += 1;
    return body;
  }

  const bool warm = !session.basis.empty();
  robust::SupervisorOptions opts;
  opts.lp.retained = &session.simplex;
  if (!warm && !session.crash_cols.empty()) {
    opts.lp.crash_columns = &session.crash_cols;
  }
  const robust::SolveSupervisor supervisor(opts);

  DeadlineGuard deadline(options_.request_deadline_ms);
  lp::SimplexBasis basis_out;
  robust::SolveOutcome outcome = supervisor.solve(
      session.lp, warm ? &session.basis : nullptr, &basis_out);
  std::uint64_t pivots = outcome_pivots(outcome);
  const std::uint64_t seed_lus = outcome.seed_factorizations;

  const bool optimal = outcome.determined() &&
                       outcome.solution.status == lp::LpStatus::kOptimal;
  if (optimal && warm && replays_canonical_finish(outcome) &&
      basis_out == session.basis) {
    // The repair left the basis where it started.  The canonical finish
    // below would be a warm solve from basis_out == session.basis in the
    // configuration this solve just ran — the same computation — so this
    // answer already is the canonical one, bit for bit, and the finish's
    // pivot count would repeat this solve's.
    pivots += pivots;
  } else if (optimal) {
    // Canonical finish: recompute the solution from a fresh
    // factorization of the optimal basis (a zero-pivot warm re-solve),
    // so the reported numbers depend only on (LP, optimal basis) — a
    // warm repair and a cold solve landing on the same vertex answer
    // with identical bytes.  It runs on the session's engine: the
    // standard form is reused and the basis refactorized in place.
    robust::SupervisorOptions certify_opts;
    certify_opts.lp.retained = &session.simplex;
    const robust::SolveSupervisor certifier(certify_opts);
    lp::SimplexBasis certified_basis;
    robust::SolveOutcome certified =
        certifier.solve(session.lp, &basis_out, &certified_basis);
    pivots += outcome_pivots(certified);
    if (certified.determined()) {
      outcome = std::move(certified);
      basis_out = std::move(certified_basis);
    } else {
      outcome = std::move(certified);  // carry the failure out
    }
  }

  if (!outcome.determined()) {
    // An abandoned solve is its own tier: it contributes to no hit or
    // pivot economics (the work bought no reusable answer), and the
    // response is never cached so a retry recomputes from scratch.
    delta.failures += 1;
    return failure_body(*outcome.failure);  // never cached: must recompute
  }

  if (warm) {
    delta.near_hits += 1;
    delta.repair_pivots += pivots;
  } else {
    delta.cold_solves += 1;
    delta.cold_pivots += pivots;
    delta.seed_factorizations += seed_lus;
  }

  if (outcome.solution.status != lp::LpStatus::kOptimal) {
    JsonValue o = JsonValue::object();
    o.set("status", JsonValue::string("ok"));
    o.set("feasible", JsonValue::boolean(false));
    o.set("lp_status", JsonValue::string(lp::to_string(
                           outcome.solution.status)));
    o.set("model_ref", JsonValue::string(key_to_hex(session.structural)));
    body = o.dump();
  } else {
    session.basis = std::move(basis_out);
    const double one_minus_gamma = 1.0 - session.discount;
    const linalg::Vector& x = outcome.solution.x;
    const std::size_t na = session.model.num_commands();

    JsonValue o = JsonValue::object();
    o.set("status", JsonValue::string("ok"));
    o.set("feasible", JsonValue::boolean(true));
    o.set("model_ref", JsonValue::string(key_to_hex(session.structural)));
    o.set("objective", JsonValue::string(session.objective_name));
    o.set("objective_per_step",
          JsonValue::number(one_minus_gamma * outcome.solution.objective));
    JsonValue achieved = JsonValue::array();
    for (std::size_t k = 0; k < session.constraints.size(); ++k) {
      double total = 0.0;
      for (std::size_t col = 0; col < x.size(); ++col) {
        if (x[col] != 0.0) {
          total += session.constraints[k].metric(col / na, col % na) * x[col];
        }
      }
      double value = one_minus_gamma * total;
      if (session.specs[k].lower_bound) value = -value;  // report as requested
      achieved.push_back(JsonValue::number(value));
    }
    o.set("constraint_per_step", std::move(achieved));
    if (request.want_policy) {
      o.set("policy",
            json_matrix(session.optimizer->extract_policy(x).matrix()));
    }
    body = o.dump();
  }

  cache_store(key, body);
  return body;
}

std::string PolicyEngine::process_evaluate(const Parsed& parsed,
                                           EngineCounters& delta) {
  const Request& request = parsed.req;
  const SystemModel& model = *parsed.model;
  const std::size_t n = model.num_states();
  const std::size_t na = model.num_commands();

  if (request.policy.size() != n) {
    throw ProtocolError("bad-request",
                        "'policy' must have one row per composed state");
  }
  linalg::Matrix decisions(n, na);
  for (std::size_t s = 0; s < n; ++s) {
    if (request.policy[s].size() != na) {
      throw ProtocolError("bad-request",
                          "'policy' rows must have one entry per command");
    }
    for (std::size_t a = 0; a < na; ++a) decisions(s, a) = request.policy[s][a];
  }
  const linalg::Vector p0 = resolve_initial(model, request.initial);

  const std::uint64_t key = evaluate_request_key(model, request.discount, p0,
                                                 decisions, request.metrics);
  std::string body;
  if (cache_lookup(key, body)) {
    delta.exact_hits += 1;
    return body;
  }

  try {
    const Policy policy = Policy::randomized(std::move(decisions));
    const PolicyEvaluation evaluation(model, policy, request.discount, p0);
    JsonValue values = JsonValue::object();
    for (const std::string& name : request.metrics) {
      values.set(name, JsonValue::number(
                           evaluation.per_step(metric_by_name(model, name))));
    }
    JsonValue o = JsonValue::object();
    o.set("status", JsonValue::string("ok"));
    o.set("metrics", std::move(values));
    body = o.dump();
  } catch (const ModelError& e) {
    throw ProtocolError("bad-request", e.what());
  } catch (const linalg::LinalgError& e) {
    throw ProtocolError("bad-request", e.what());
  }
  delta.evaluations += 1;

  cache_store(key, body);
  return body;
}

/// `delta` is the stats request's own, not yet recorded, accounting.
std::string PolicyEngine::stats_body(const EngineCounters& delta) const {
  EngineCounters counters = this->counters();
  add_counters(counters, delta);
  JsonValue c = JsonValue::object();
  c.set("requests", JsonValue::number(double(counters.requests)));
  c.set("exact_hits", JsonValue::number(double(counters.exact_hits)));
  c.set("near_hits", JsonValue::number(double(counters.near_hits)));
  c.set("cold_solves", JsonValue::number(double(counters.cold_solves)));
  c.set("evaluations", JsonValue::number(double(counters.evaluations)));
  c.set("rejections", JsonValue::number(double(counters.rejections)));
  c.set("failures", JsonValue::number(double(counters.failures)));
  c.set("repair_pivots", JsonValue::number(double(counters.repair_pivots)));
  c.set("cold_pivots", JsonValue::number(double(counters.cold_pivots)));
  c.set("seed_factorizations",
        JsonValue::number(double(counters.seed_factorizations)));
  c.set("sheds", JsonValue::number(double(counters.sheds)));
  c.set("conn_sheds", JsonValue::number(double(counters.conn_sheds)));
  c.set("session_evictions",
        JsonValue::number(double(counters.session_evictions)));

  JsonValue cache = JsonValue::object();
  if (cache_) {
    const scenario::CacheStats s = cache_stats();
    cache.set("hits", JsonValue::number(double(s.hits)));
    cache.set("misses", JsonValue::number(double(s.misses)));
    cache.set("rejected", JsonValue::number(double(s.rejected)));
    cache.set("evicted", JsonValue::number(double(s.evicted)));
  }

  const LatencySummary summary = this->latency();
  JsonValue latency = JsonValue::object();
  if (summary.samples > 0) {
    latency.set("p50_ms", JsonValue::number(summary.p50_ms));
    latency.set("p99_ms", JsonValue::number(summary.p99_ms));
    latency.set("max_ms", JsonValue::number(summary.max_ms));
  }
  latency.set("samples", JsonValue::number(double(summary.samples)));

  JsonValue o = JsonValue::object();
  o.set("status", JsonValue::string("ok"));
  o.set("counters", std::move(c));
  o.set("sessions", JsonValue::number(double(num_sessions())));
  o.set("cache", std::move(cache));
  o.set("latency", std::move(latency));
  return o.dump();
}

void PolicyEngine::note_shed_connection() {
  EngineCounters delta;
  delta.conn_sheds = 1;
  record(delta);
}

void PolicyEngine::note_oversized_line() {
  EngineCounters delta;
  delta.rejections = 1;
  record(delta);
}

std::size_t PolicyEngine::inflight() const { return inflight_.load(); }

bool PolicyEngine::flush_cache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (!cache_ || options_.cache_dir.empty()) return true;
  return cache_->flush();
}

bool PolicyEngine::shutdown_requested() const noexcept { return shutdown_; }

EngineCounters PolicyEngine::counters() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return counters_;
}

LatencySummary PolicyEngine::latency() const {
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    samples = latency_samples_;
  }
  LatencySummary summary;
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.samples = samples.size();
  summary.p50_ms = samples[samples.size() / 2];
  summary.p99_ms = samples[(samples.size() * 99) / 100];
  summary.max_ms = samples.back();
  return summary;
}

scenario::CacheStats PolicyEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_ ? cache_->stats() : scenario::CacheStats{};
}

std::size_t PolicyEngine::num_sessions() const {
  std::lock_guard<std::mutex> lock(table_mutex_);
  return sessions_.size();
}

}  // namespace dpm::serve
