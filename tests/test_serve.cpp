// dpmd serving tier, single-threaded contracts (src/serve/):
//   * protocol JSON round-trips: parse(format(r)) == r field-for-field,
//     and wire member order does not matter;
//   * malformed requests come back as typed "error" responses with the
//     stable codes from docs/serving.md, never as crashes;
//   * request-key properties: any single perturbation of a request
//     ingredient changes its key, and structurally identical requests
//     written in different field orders share one;
//   * the exact-hit tier replays byte-identical responses with zero
//     additional simplex pivots;
//   * a session's retained simplex engine serves the bytes, pivots and
//     bases of a new engine per solve, and refactorizes only when a
//     near hit moves the basis.
//
// The multi-client admission/batching contracts live in
// test_serve_concurrency.cpp; injected-fault behaviour in
// test_fault_injection.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "dpm/optimizer.h"
#include "lp/revised_simplex.h"
#include "robust/supervisor.h"
#include "scenario/json.h"
#include "serve/engine.h"
#include "serve/fleet.h"
#include "serve/protocol.h"

namespace dpm {
namespace {

using scenario::JsonValue;
using serve::ConstraintSpec;
using serve::EngineCounters;
using serve::EngineOptions;
using serve::ModelSpec;
using serve::Op;
using serve::PolicyEngine;
using serve::ProtocolError;
using serve::Request;

// A fully-populated optimize request (ge + le constraints, explicit
// initial distribution, policy echo) over the smallest fleet design.
Request rich_optimize() {
  Request r;
  r.id = "r1";
  r.op = Op::kOptimize;
  r.model = serve::fleet_model_spec(0, /*queue_capacity=*/2);
  r.discount = 0.999;
  const SystemModel model = r.model->compose();
  r.initial.assign(model.num_states(),
                   1.0 / static_cast<double>(model.num_states()));
  r.objective = "power";
  ConstraintSpec queue;
  queue.metric = "queue_length";
  queue.bound = 0.5;
  r.constraints.push_back(queue);
  ConstraintSpec floor;
  floor.metric = "throughput";
  floor.lower_bound = true;  // wire sense "ge"
  floor.bound = 0.01;
  floor.name = "min-work";
  r.constraints.push_back(floor);
  r.want_policy = true;
  return r;
}

std::string expect_error_code(PolicyEngine& engine, const std::string& line) {
  const std::string response = engine.handle_line(line);
  const JsonValue parsed = JsonValue::parse(response);
  EXPECT_EQ(parsed.string_at("status"), "error") << response;
  return parsed.get("error")->string_at("code");
}

// --- protocol round trips ---------------------------------------------

TEST(ServeProtocol, FormatParseRoundTripsEveryOp) {
  const Request opt = rich_optimize();
  const Request back = serve::parse_request(serve::format_request(opt));
  EXPECT_EQ(serve::format_request(back), serve::format_request(opt));
  EXPECT_EQ(back.id, opt.id);
  EXPECT_EQ(back.op, Op::kOptimize);
  EXPECT_EQ(back.discount, opt.discount);
  EXPECT_EQ(back.initial, opt.initial);
  ASSERT_EQ(back.constraints.size(), 2u);
  EXPECT_EQ(back.constraints[1].metric, "throughput");
  EXPECT_TRUE(back.constraints[1].lower_bound);
  EXPECT_EQ(back.constraints[1].bound, 0.01);
  EXPECT_EQ(back.constraints[1].name, "min-work");
  EXPECT_TRUE(back.want_policy);
  ASSERT_TRUE(back.model.has_value());
  EXPECT_EQ(back.model->queue_capacity, 2u);

  Request reopt;
  reopt.id = "r2";
  reopt.op = Op::kReoptimize;
  reopt.model_ref = "00ff00ff00ff00ff";
  reopt.discount = 0.999;
  reopt.constraints.push_back(opt.constraints[0]);
  const Request reopt_back =
      serve::parse_request(serve::format_request(reopt));
  EXPECT_EQ(serve::format_request(reopt_back), serve::format_request(reopt));
  EXPECT_EQ(reopt_back.model_ref, reopt.model_ref);

  Request eval;
  eval.id = "r3";
  eval.op = Op::kEvaluate;
  eval.model = serve::fleet_model_spec(1, 2);
  eval.discount = 0.9;
  const SystemModel model = eval.model->compose();
  eval.policy.assign(model.num_states(),
                     std::vector<double>(model.num_commands(), 0.0));
  for (auto& row : eval.policy) row[1] = 1.0;
  eval.metrics = {"power", "request_loss"};
  const Request eval_back = serve::parse_request(serve::format_request(eval));
  EXPECT_EQ(serve::format_request(eval_back), serve::format_request(eval));
  EXPECT_EQ(eval_back.policy, eval.policy);
  EXPECT_EQ(eval_back.metrics, eval.metrics);

  for (const Op op : {Op::kStats, Op::kShutdown}) {
    Request admin;
    admin.id = "a";
    admin.op = op;
    const Request admin_back =
        serve::parse_request(serve::format_request(admin));
    EXPECT_EQ(admin_back.op, op);
    EXPECT_EQ(serve::format_request(admin_back), serve::format_request(admin));
  }
}

TEST(ServeProtocol, WireFieldOrderDoesNotMatter) {
  // The same request with members permuted parses to the same Request
  // (and therefore the same keys — the engine never sees raw bytes).
  const std::string a =
      R"({"id":"x","op":"optimize","discount":0.999,"objective":"power",)"
      R"("constraints":[{"metric":"queue_length","bound":0.5}],)"
      R"("model_ref":"00ff00ff00ff00ff"})";
  const std::string b =
      R"({"constraints":[{"bound":0.5,"metric":"queue_length"}],)"
      R"("objective":"power","op":"optimize","discount":0.999,)"
      R"("model_ref":"00ff00ff00ff00ff","id":"x"})";
  // optimize normally requires an inline model; use reoptimize so the
  // permuted lines stay self-contained.
  const std::string a2 = a, b2 = b;
  Request ra = serve::parse_request(
      std::string(a2).replace(a2.find("optimize"), 8, "reoptimize"));
  Request rb = serve::parse_request(
      std::string(b2).replace(b2.find("optimize"), 8, "reoptimize"));
  EXPECT_EQ(serve::format_request(ra), serve::format_request(rb));
}

TEST(ServeProtocol, OpAndKeyHelpersRoundTrip) {
  for (std::size_t i = 0; i < serve::kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    const char* name = serve::to_string(op);
    ASSERT_NE(name, nullptr);
    const std::optional<Op> back = serve::parse_op(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, op);
  }
  EXPECT_FALSE(serve::parse_op("solve").has_value());

  const std::uint64_t key = 0x0123456789ABCDEFull;
  const std::string hex = serve::key_to_hex(key);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(serve::key_from_hex(hex), key);
  EXPECT_FALSE(serve::key_from_hex("not-a-key").has_value());
  EXPECT_FALSE(serve::key_from_hex("0123456789abcde").has_value());   // short
  EXPECT_FALSE(serve::key_from_hex("0123456789abcdefff").has_value());
}

// --- typed rejections -------------------------------------------------

TEST(ServeProtocol, MalformedRequestsAreTypedRejections) {
  PolicyEngine engine{EngineOptions{}};
  EXPECT_EQ(expect_error_code(engine, "{truncated"), "bad-json");
  EXPECT_EQ(expect_error_code(engine, R"({"op":"teleport"})"), "unknown-op");
  // optimize without a model.
  EXPECT_EQ(expect_error_code(engine, R"({"op":"optimize"})"), "bad-request");
  // discount outside (0, 1).
  Request r = rich_optimize();
  r.discount = 1.0;
  EXPECT_EQ(expect_error_code(engine, serve::format_request(r)),
            "bad-request");
  // unknown metric names are caught at parse time.
  r = rich_optimize();
  r.objective = "entropy";
  EXPECT_EQ(expect_error_code(engine, serve::format_request(r)),
            "unknown-metric");
  r = rich_optimize();
  r.constraints[0].metric = "entropy";
  EXPECT_EQ(expect_error_code(engine, serve::format_request(r)),
            "unknown-metric");
  // reoptimize against a key nobody registered.
  Request miss;
  miss.op = Op::kReoptimize;
  miss.model_ref = "00ff00ff00ff00ff";
  miss.constraints.push_back(rich_optimize().constraints[0]);
  EXPECT_EQ(expect_error_code(engine, serve::format_request(miss)),
            "unknown-model");
  // a model that fails composition (non-stochastic transition row).
  r = rich_optimize();
  r.model->transitions[0](0, 0) = 0.25;  // row no longer sums to 1
  EXPECT_EQ(expect_error_code(engine, serve::format_request(r)), "bad-model");

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.rejections, 8u);
  EXPECT_EQ(counters.cold_solves, 0u);
}

// --- request-key properties -------------------------------------------

std::uint64_t structural_key_of(const Request& r) {
  return serve::structural_request_key(r.model->compose(), r.discount,
                                       r.objective, r.constraints);
}

TEST(ServeKeys, EverySinglePerturbationChangesTheStructuralKey) {
  const Request base = rich_optimize();
  const std::uint64_t key = structural_key_of(base);

  std::vector<std::pair<const char*, Request>> variants;
  const auto add = [&](const char* what, Request r) {
    variants.emplace_back(what, std::move(r));
  };
  {
    Request r = base;
    r.discount = 0.9991;
    add("discount", r);
  }
  {
    Request r = base;
    r.objective = "queue_length";
    add("objective metric", r);
  }
  {
    Request r = base;
    r.constraints[0].metric = "request_loss";
    add("constraint metric", r);
  }
  {
    Request r = base;
    r.constraints[1].lower_bound = false;
    add("constraint sense", r);
  }
  {
    Request r = base;
    r.constraints.pop_back();
    add("constraint count", r);
  }
  {
    Request r = base;
    r.model->service_rate(0, 0) = 0.81;
    add("service rate", r);
  }
  {
    Request r = base;
    r.model->power(0, 0) = 3.01;
    add("power entry", r);
  }
  {
    Request r = base;
    r.model->requester_transitions(0, 0) = 0.94;
    r.model->requester_transitions(0, 1) = 0.06;
    add("requester transition", r);
  }
  {
    Request r = base;
    r.model->queue_capacity = 3;
    add("queue capacity", r);
  }
  for (const auto& [what, r] : variants) {
    EXPECT_NE(structural_key_of(r), key) << "perturbing " << what
                                         << " must change the key";
  }
  // ...while a pure rhs move (bound, initial distribution) must NOT:
  // that is exactly the data a warm basis survives.
  Request moved = base;
  moved.constraints[0].bound = 0.75;
  moved.initial.assign(moved.initial.size(), 0.0);
  moved.initial[0] = 1.0;
  EXPECT_EQ(structural_key_of(moved), key);
}

TEST(ServeKeys, SolveKeySeparatesBoundsAndResponseShape) {
  const Request base = rich_optimize();
  const SystemModel model = base.model->compose();
  OptimizerConfig config;
  config.discount = base.discount;
  PolicyOptimizer optimizer(model, config);
  std::vector<OptimizationConstraint> cons;
  for (const auto& c : base.constraints) {
    cons.push_back({serve::metric_by_name(model, c.metric), c.bound, c.name});
  }
  const auto build = [&](const std::string& objective) {
    return optimizer.build_lp(serve::metric_by_name(model, objective), cons);
  };
  const lp::LpProblem lp = build(base.objective);
  const std::uint64_t structural = structural_key_of(base);
  const auto key_of = [&](const lp::LpProblem& problem) {
    return serve::solve_request_key(structural, problem, false);
  };

  const std::uint64_t full = key_of(lp);
  EXPECT_NE(serve::solve_request_key(structural, lp, true), full);

  // (a) Another structure with the same rhs is another answer.
  Request other = base;
  other.objective = "queue_length";
  ASSERT_NE(structural_key_of(other), structural);
  EXPECT_NE(serve::solve_request_key(structural_key_of(other), lp, false),
            full);

  // (b) One ulp on a balance row (p0) or on a metric row (bound) moves
  // the constraint point, and with it the key.
  const std::size_t metric_row = model.num_states();
  for (const std::size_t row : {std::size_t{0}, metric_row}) {
    lp::LpProblem moved = lp;
    const double rhs = lp.constraints()[row].rhs;
    moved.set_rhs(row, std::nextafter(rhs, rhs + 1.0));
    EXPECT_NE(key_of(moved), full) << "row " << row;
  }

  // (c) -0.0 and +0.0 are one rhs.
  lp::LpProblem plus_zero = lp;
  lp::LpProblem minus_zero = lp;
  plus_zero.set_rhs(0, 0.0);
  minus_zero.set_rhs(0, -0.0);
  EXPECT_EQ(key_of(plus_zero), key_of(minus_zero));

  // (d) The structural key owns the matrix, costs and bounds: editing
  // them under the same structural key and rhs leaves the key alone.
  EXPECT_EQ(key_of(build("queue_length")), full);
  lp::LpProblem capped = lp;
  capped.set_upper_bound(0, 0.5);
  EXPECT_EQ(key_of(capped), full);
}

TEST(ServeKeys, EvaluateKeyCoversPolicyAndMetricList) {
  const ModelSpec spec = serve::fleet_model_spec(0, 2);
  const SystemModel model = spec.compose();
  const linalg::Vector p0 = model.uniform_distribution();
  linalg::Matrix policy(model.num_states(), model.num_commands());
  for (std::size_t s = 0; s < model.num_states(); ++s) policy(s, 0) = 1.0;

  const std::uint64_t key =
      serve::evaluate_request_key(model, 0.999, p0, policy, {"power"});
  EXPECT_NE(serve::evaluate_request_key(model, 0.998, p0, policy, {"power"}),
            key);
  EXPECT_NE(serve::evaluate_request_key(model, 0.999, p0, policy,
                                        {"power", "queue_length"}),
            key);
  linalg::Matrix flipped = policy;
  flipped(0, 0) = 0.0;
  flipped(0, 1) = 1.0;
  EXPECT_NE(serve::evaluate_request_key(model, 0.999, p0, flipped, {"power"}),
            key);
  linalg::Vector skewed(p0.size(), 0.0);
  skewed[0] = 1.0;
  EXPECT_NE(serve::evaluate_request_key(model, 0.999, skewed, policy,
                                        {"power"}),
            key);
}

// --- exact-hit tier ---------------------------------------------------

TEST(ServeEngine, ExactHitReplaysByteIdenticalWithZeroPivots) {
  PolicyEngine engine{EngineOptions{}};
  Request r = rich_optimize();
  r.constraints[0].bound = 0.45;  // feasible at capacity 2 for variant 0
  const std::string line = serve::format_request(r);

  const std::string cold = engine.handle_line(line);
  EXPECT_NE(cold.find("\"status\":\"ok\""), std::string::npos) << cold;
  const EngineCounters after_cold = engine.counters();
  EXPECT_EQ(after_cold.cold_solves, 1u);
  EXPECT_EQ(after_cold.exact_hits, 0u);
  EXPECT_GT(after_cold.cold_pivots, 0u);

  const std::string replay = engine.handle_line(line);
  EXPECT_EQ(replay, cold);  // byte-identical, id included
  const EngineCounters after_replay = engine.counters();
  EXPECT_EQ(after_replay.exact_hits, 1u);
  EXPECT_EQ(after_replay.cold_pivots, after_cold.cold_pivots);
  EXPECT_EQ(after_replay.repair_pivots, after_cold.repair_pivots);

  // A different request id replays the same cached body: the responses
  // differ only in the id field.
  Request renamed = r;
  renamed.id = "r9";
  const std::string other = engine.handle_line(serve::format_request(renamed));
  EXPECT_EQ(engine.counters().exact_hits, 2u);
  const std::string cold_body = cold.substr(cold.find("\"status\""));
  const std::string other_body = other.substr(other.find("\"status\""));
  EXPECT_EQ(other_body, cold_body);
  EXPECT_NE(other, cold);

  // Two structures sent with the same initial distribution and bound
  // share every rhs, yet each is its own cold solve, not one exact hit.
  // (Dropping the throughput floor makes variant 0 a new structure too.)
  for (const std::size_t variant : {std::size_t{0}, std::size_t{1}}) {
    Request twin = r;
    twin.model = serve::fleet_model_spec(variant, /*queue_capacity=*/2);
    twin.constraints.pop_back();
    const std::string response =
        engine.handle_line(serve::format_request(twin));
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
        << response;
  }
  EXPECT_EQ(engine.counters().cold_solves, 3u);
  EXPECT_EQ(engine.counters().exact_hits, 2u);
}

TEST(ServeEngine, ModelRefReoptimizeWarmStartsTheSession) {
  PolicyEngine engine{EngineOptions{}};
  Request r = rich_optimize();
  r.constraints[0].bound = 0.45;
  const std::string cold = engine.handle_line(serve::format_request(r));
  const JsonValue parsed = JsonValue::parse(cold);
  ASSERT_NE(parsed.get("model_ref"), nullptr) << cold;
  const std::string ref = parsed.get("model_ref")->as_string();

  Request reopt;
  reopt.id = "warm";
  reopt.op = Op::kReoptimize;
  reopt.model_ref = ref;
  reopt.discount = r.discount;
  reopt.objective = r.objective;
  reopt.constraints = r.constraints;
  reopt.constraints[0].bound = 0.55;
  reopt.want_policy = true;
  const std::string warm = engine.handle_line(serve::format_request(reopt));
  EXPECT_NE(warm.find("\"status\":\"ok\""), std::string::npos) << warm;

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.cold_solves, 1u);
  EXPECT_EQ(counters.near_hits, 1u);
  EXPECT_EQ(engine.num_sessions(), 1u);
}

TEST(ServeEngine, ModelRefMismatchedDiscountOrObjectiveIsRejected) {
  PolicyEngine engine{EngineOptions{}};
  Request r = rich_optimize();
  r.constraints[0].bound = 0.45;
  const std::string cold = engine.handle_line(serve::format_request(r));
  const JsonValue parsed = JsonValue::parse(cold);
  ASSERT_NE(parsed.get("model_ref"), nullptr) << cold;
  const std::string ref = parsed.get("model_ref")->as_string();

  Request reopt;
  reopt.op = Op::kReoptimize;
  reopt.model_ref = ref;
  reopt.discount = r.discount;
  reopt.objective = r.objective;
  reopt.constraints = r.constraints;
  reopt.constraints[0].bound = 0.55;

  // An explicit discount or objective that disagrees with the session
  // would silently answer a different problem: typed rejection instead.
  Request bad = reopt;
  bad.discount = 0.9;
  EXPECT_EQ(expect_error_code(engine, serve::format_request(bad)),
            "bad-request");
  bad = reopt;
  bad.objective = "queue_length";
  EXPECT_EQ(expect_error_code(engine, serve::format_request(bad)),
            "bad-request");
  EXPECT_EQ(engine.counters().near_hits, 0u);

  // Omitting the fields reuses the session's values: still a near hit.
  const std::string sparse =
      "{\"op\":\"reoptimize\",\"model_ref\":\"" + ref +
      "\",\"constraints\":[{\"metric\":\"queue_length\",\"bound\":0.55},"
      "{\"metric\":\"throughput\",\"bound\":0.01,\"sense\":\"ge\"}]}";
  const std::string warm = engine.handle_line(sparse);
  EXPECT_NE(warm.find("\"status\":\"ok\""), std::string::npos) << warm;
  EXPECT_EQ(engine.counters().near_hits, 1u);
}

// --- session eviction -------------------------------------------------

TEST(ServeEngine, EvictedSessionRecomputesByteIdenticalColdSolve) {
  EngineOptions opts;
  opts.max_sessions = 1;
  PolicyEngine engine(opts);

  Request a = rich_optimize();  // variant 0
  a.constraints[0].bound = 0.45;
  const std::string a_line = serve::format_request(a);
  Request b = a;  // distinct structure: different design
  b.model = serve::fleet_model_spec(1, 2);
  const std::string b_line = serve::format_request(b);
  // The would-be near hit: same structure as `a`, moved bound.
  Request a_moved = a;
  a_moved.constraints[0].bound = 0.55;
  const std::string a_moved_line = serve::format_request(a_moved);

  EXPECT_NE(engine.handle_line(a_line).find("\"status\":\"ok\""),
            std::string::npos);
  EXPECT_EQ(engine.num_sessions(), 1u);
  EXPECT_NE(engine.handle_line(b_line).find("\"status\":\"ok\""),
            std::string::npos);
  // The LRU bound held: b's insert evicted a's session.
  EXPECT_EQ(engine.num_sessions(), 1u);
  EXPECT_EQ(engine.counters().session_evictions, 1u);

  // The moved bound would have warm-started from a's basis; with the
  // session evicted it must demote to a cold solve — and the canonical
  // finish makes that cold solve byte-identical to one on a fresh
  // engine that never had the warm state.
  const std::string demoted = engine.handle_line(a_moved_line);
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.cold_solves, 3u);
  EXPECT_EQ(counters.near_hits, 0u);
  EngineOptions fresh_opts;
  fresh_opts.cache = false;
  PolicyEngine fresh(fresh_opts);
  EXPECT_EQ(demoted, fresh.handle_line(a_moved_line));

  // Eviction drops only the warm-start state: the response cache still
  // replays a's original bytes as an exact hit.
  const std::string replay = engine.handle_line(a_line);
  EXPECT_EQ(engine.counters().exact_hits, 1u);
  PolicyEngine fresh2(fresh_opts);
  EXPECT_EQ(replay, fresh2.handle_line(a_line));
}

TEST(ServeEngine, SessionEvictionIsLeastRecentlyUsed) {
  EngineOptions opts;
  opts.max_sessions = 2;
  PolicyEngine engine(opts);

  const auto line = [](std::size_t variant, double bound) {
    Request r;
    r.op = Op::kOptimize;
    r.model = serve::fleet_model_spec(variant, 2);
    r.discount = 0.999;
    r.objective = "power";
    ConstraintSpec c;
    c.metric = "queue_length";
    c.bound = bound;
    r.constraints.push_back(c);
    return serve::format_request(r);
  };

  engine.handle_line(line(0, 0.45));  // session A
  engine.handle_line(line(1, 0.45));  // session B
  engine.handle_line(line(0, 0.50));  // near hit touches A: B is now LRU
  engine.handle_line(line(2, 0.45));  // session C evicts B, not A
  EXPECT_EQ(engine.counters().session_evictions, 1u);

  engine.handle_line(line(0, 0.55));  // A survived: near hit
  EXPECT_EQ(engine.counters().near_hits, 2u);
  engine.handle_line(line(1, 0.55));  // B was evicted: cold again
  EXPECT_EQ(engine.counters().cold_solves, 4u);
}

TEST(ServeEngine, ServerEventNotesLandInStats) {
  PolicyEngine engine{EngineOptions{}};
  engine.note_shed_connection();
  engine.note_oversized_line();
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.conn_sheds, 1u);
  EXPECT_EQ(counters.rejections, 1u);

  const std::string stats = engine.handle_line(R"({"id":"s","op":"stats"})");
  const JsonValue parsed = JsonValue::parse(stats);
  ASSERT_NE(parsed.get("counters"), nullptr);
  EXPECT_EQ(parsed.get("counters")->number_at("conn_sheds"), 1.0);
  EXPECT_EQ(parsed.get("counters")->number_at("sheds"), 0.0);
  EXPECT_EQ(parsed.get("counters")->number_at("session_evictions"), 0.0);
}

TEST(ServeEngine, StatsAndShutdownAreServed) {
  PolicyEngine engine{EngineOptions{}};
  const std::string stats = engine.handle_line(R"({"id":"s","op":"stats"})");
  const JsonValue parsed = JsonValue::parse(stats);
  EXPECT_EQ(parsed.string_at("status"), "ok");
  ASSERT_NE(parsed.get("counters"), nullptr);
  EXPECT_NE(parsed.get("counters")->get("requests"), nullptr);
  ASSERT_NE(parsed.get("latency"), nullptr);

  EXPECT_FALSE(engine.shutdown_requested());
  const std::string bye = engine.handle_line(R"({"id":"q","op":"shutdown"})");
  EXPECT_NE(bye.find("\"status\":\"ok\""), std::string::npos) << bye;
  EXPECT_TRUE(engine.shutdown_requested());
}

// --- retained simplex engine -----------------------------------------

// The serving path as it was before sessions kept their engine: a
// supervised solve on a new engine, warm from the session basis, then a
// supervised canonical finish on another new engine.  Mirrors the engine's session table (LRU bound
// included) and response bodies.
class NewEnginePerSolve {
 public:
  explicit NewEnginePerSolve(std::size_t max_sessions)
      : max_sessions_(max_sessions) {}

  struct Answer {
    std::string response;
    bool near_hit = false;
    std::uint64_t pivots = 0;
  };

  Answer serve(const std::string& line) {
    const Request req = serve::parse_request(line);
    SystemModel model = req.model->compose();
    const std::uint64_t key = serve::structural_request_key(
        model, req.discount, req.objective, req.constraints);
    auto it = sessions_.find(key);
    if (it == sessions_.end()) {
      if (sessions_.size() >= max_sessions_) {
        auto stalest = sessions_.begin();
        for (auto s = sessions_.begin(); s != sessions_.end(); ++s) {
          if (s->second->lru < stalest->second->lru) stalest = s;
        }
        sessions_.erase(stalest);
      }
      it = sessions_.emplace(key, std::make_unique<Session>(std::move(model),
                                                            req))
               .first;
    }
    Session& s = *it->second;
    s.lru = ++clock_;
    const std::size_t n = s.model.num_states();
    const double horizon = 1.0 / (1.0 - req.discount);
    for (std::size_t j = 0; j < n; ++j) s.lp.set_rhs(j, req.initial[j]);
    for (std::size_t k = 0; k < req.constraints.size(); ++k) {
      const ConstraintSpec& c = req.constraints[k];
      s.lp.set_rhs(n + k, (c.lower_bound ? -c.bound : c.bound) * horizon);
    }

    Answer answer;
    answer.near_hit = !s.basis.empty();
    const robust::SolveSupervisor supervisor{robust::SupervisorOptions{}};
    lp::SimplexBasis working;
    robust::SolveOutcome outcome = supervisor.solve(
        s.lp, answer.near_hit ? &s.basis : nullptr, &working);
    answer.pivots = pivots_of(outcome);
    if (outcome.determined() &&
        outcome.solution.status == lp::LpStatus::kOptimal) {
      lp::SimplexBasis canonical;
      outcome = supervisor.solve(s.lp, &working, &canonical);
      answer.pivots += pivots_of(outcome);
      working = std::move(canonical);
    }
    EXPECT_TRUE(outcome.determined());
    JsonValue o = JsonValue::object();
    o.set("status", JsonValue::string("ok"));
    if (outcome.solution.status != lp::LpStatus::kOptimal) {
      o.set("feasible", JsonValue::boolean(false));
      o.set("lp_status",
            JsonValue::string(lp::to_string(outcome.solution.status)));
      o.set("model_ref", JsonValue::string(serve::key_to_hex(key)));
    } else {
      s.basis = std::move(working);
      const double scale = 1.0 - req.discount;
      const linalg::Vector& x = outcome.solution.x;
      const std::size_t na = s.model.num_commands();
      o.set("feasible", JsonValue::boolean(true));
      o.set("model_ref", JsonValue::string(serve::key_to_hex(key)));
      o.set("objective", JsonValue::string(req.objective));
      o.set("objective_per_step",
            JsonValue::number(scale * outcome.solution.objective));
      JsonValue achieved = JsonValue::array();
      for (std::size_t k = 0; k < s.constraints.size(); ++k) {
        double total = 0.0;
        for (std::size_t col = 0; col < x.size(); ++col) {
          if (x[col] != 0.0) {
            total += s.constraints[k].metric(col / na, col % na) * x[col];
          }
        }
        const double value = scale * total;
        achieved.push_back(JsonValue::number(
            req.constraints[k].lower_bound ? -value : value));
      }
      o.set("constraint_per_step", std::move(achieved));
    }
    answer.response = serve::compose_response(req.id, o.dump());
    return answer;
  }

 private:
  struct Session {
    SystemModel model;
    std::unique_ptr<PolicyOptimizer> optimizer;
    std::vector<OptimizationConstraint> constraints;
    lp::LpProblem lp;
    lp::SimplexBasis basis;
    std::uint64_t lru = 0;

    Session(SystemModel m, const Request& req) : model(std::move(m)) {
      OptimizerConfig config;
      config.discount = req.discount;
      optimizer = std::make_unique<PolicyOptimizer>(model, config);
      for (const ConstraintSpec& spec : req.constraints) {
        const StateActionMetric metric =
            serve::metric_by_name(model, spec.metric);
        OptimizationConstraint oc;
        oc.metric = spec.lower_bound
                        ? StateActionMetric([metric](std::size_t st,
                                                     std::size_t a) {
                            return -metric(st, a);
                          })
                        : metric;
        constraints.push_back(std::move(oc));
      }
      lp = optimizer->build_lp(serve::metric_by_name(model, req.objective),
                               constraints);
    }
  };

  static std::uint64_t pivots_of(const robust::SolveOutcome& outcome) {
    return outcome.steps.empty() ? 0 : outcome.steps.back().iterations;
  }

  std::size_t max_sessions_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t clock_ = 0;
};

TEST(ServeEngine, RetainedEngineServesNewEngineBytesOnARandomWalk) {
  // Three designs through a two-session engine (evictions, then
  // re-registration), each request a random step: a moved queue bound
  // (now and then one no policy meets), a "ge" throughput floor whose
  // negated rhs crosses zero, or a new p0 with zero entries.
  EngineOptions opts;
  opts.cache = false;  // every request solves
  opts.max_sessions = 2;
  PolicyEngine engine(opts);
  NewEnginePerSolve reference(opts.max_sessions);

  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Request> designs(3);
  for (std::size_t v = 0; v < designs.size(); ++v) {
    Request& r = designs[v];
    r.op = Op::kOptimize;
    r.model = serve::fleet_model_spec(v, /*queue_capacity=*/3);
    r.discount = 0.99;
    r.objective = "power";
    ConstraintSpec queue;
    queue.metric = "queue_length";
    queue.bound = 1.0;
    ConstraintSpec floor;
    floor.metric = "throughput";
    floor.lower_bound = true;
    floor.bound = 0.0;
    r.constraints = {queue, floor};
    const std::size_t n = r.model->compose().num_states();
    r.initial.assign(n, 1.0 / static_cast<double>(n));
  }

  std::size_t v = 0;
  std::size_t near = 0, pivoting = 0, infeasible = 0, recovered = 0;
  std::size_t floor_flips = 0;
  bool last_infeasible = false;
  for (int step = 0; step < 150; ++step) {
    if (unit(rng) < 0.12) v = (v + 1 + (unit(rng) < 0.5 ? 1 : 0)) % 3;
    Request& r = designs[v];
    const double move = unit(rng);
    if (move < 0.2) {
      std::vector<double>& p0 = r.initial;
      double mass = 0.0;
      for (double& p : p0) {
        p = unit(rng) < 0.5 ? 0.0 : 0.1 + unit(rng);
        mass += p;
      }
      if (mass == 0.0) {
        p0[0] = 1.0;
        mass = 1.0;
      }
      for (double& p : p0) p /= mass;
    } else if (move < 0.4) {
      const double floor = 0.04 * unit(rng) - 0.02;
      if ((floor > 0.0) != (r.constraints[1].bound > 0.0)) ++floor_flips;
      r.constraints[1].bound = floor;
    } else {
      r.constraints[0].bound =
          unit(rng) < 0.08 ? 0.01 : 0.7 + 0.8 * unit(rng);
    }
    r.id = "s" + std::to_string(step);
    const std::string line = serve::format_request(r);

    const EngineCounters before = engine.counters();
    const std::string got = engine.handle_line(line);
    const EngineCounters after = engine.counters();
    const NewEnginePerSolve::Answer want = reference.serve(line);
    ASSERT_EQ(got, want.response) << "step " << step;
    ASSERT_EQ(after.near_hits - before.near_hits, want.near_hit ? 1u : 0u)
        << "step " << step;
    ASSERT_EQ(after.repair_pivots + after.cold_pivots -
                  before.repair_pivots - before.cold_pivots,
              want.pivots)
        << "step " << step;

    const bool now_infeasible =
        got.find("\"feasible\":false") != std::string::npos;
    if (want.near_hit) ++near;
    if (want.near_hit && want.pivots > 0 && !now_infeasible) ++pivoting;
    if (now_infeasible) ++infeasible;
    if (last_infeasible && !now_infeasible) ++recovered;
    last_infeasible = now_infeasible;
  }
  EXPECT_GT(engine.counters().session_evictions, 2u);
  EXPECT_GT(near, 80u);
  EXPECT_GT(pivoting, 5u);
  EXPECT_GT(infeasible, 3u);
  EXPECT_GT(recovered, 3u);
  EXPECT_GT(floor_flips, 3u);
}

TEST(ServeEngine, NearHitRefactorizesOnlyWhenTheBasisMoves) {
  // The session keeps the fresh LU of its canonical basis: a near hit
  // that pivots zero times adopts it and returns as the canonical
  // answer (no LU at all); one that pivots pays exactly the in-place
  // refactorization of its canonical finish.
  PolicyEngine engine{EngineOptions{}};
  Request r;
  r.op = Op::kOptimize;
  r.model = serve::fleet_model_spec(0, /*queue_capacity=*/3);
  r.discount = 0.99;
  r.objective = "power";
  ConstraintSpec queue;
  queue.metric = "queue_length";
  queue.bound = 1.0;
  // The throughput floor stays positive, so its negated rhs keeps its
  // sign and every near hit reuses the session's standard form.
  ConstraintSpec floor;
  floor.metric = "throughput";
  floor.lower_bound = true;
  floor.bound = 0.001;
  r.constraints = {queue, floor};
  const std::size_t n = r.model->compose().num_states();
  r.initial.assign(n, 1.0 / static_cast<double>(n));
  engine.handle_line(serve::format_request(r));
  ASSERT_EQ(engine.counters().cold_solves, 1u);

  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::size_t zero_pivot = 0, pivoting = 0;
  for (int k = 1; k <= 60; ++k) {
    r.id = "m" + std::to_string(k);
    if (k % 3 == 0) {  // a new p0, zero entries included
      double mass = 0.0;
      for (double& p : r.initial) {
        p = unit(rng) < 0.3 ? 0.0 : 0.1 + unit(rng);
        mass += p;
      }
      for (double& p : r.initial) p /= mass;
    } else {
      r.constraints[0].bound = 0.8 + 0.6 * unit(rng);
    }
    const EngineCounters before = engine.counters();
    const std::uint64_t lu_before = lp::sweep_telemetry().refactorizations;
    const std::string response = engine.handle_line(serve::format_request(r));
    const std::uint64_t lus =
        lp::sweep_telemetry().refactorizations - lu_before;
    const EngineCounters after = engine.counters();
    ASSERT_NE(response.find("\"feasible\":true"), std::string::npos)
        << response;
    ASSERT_EQ(after.near_hits, before.near_hits + 1);
    if (after.repair_pivots == before.repair_pivots) {
      EXPECT_EQ(lus, 0u) << "zero-pivot near hit " << k;
      ++zero_pivot;
    } else {
      EXPECT_EQ(lus, 1u) << "pivoting near hit " << k;
      ++pivoting;
    }
  }
  EXPECT_GT(zero_pivot, 10u);
  EXPECT_GT(pivoting, 10u);
}

}  // namespace
}  // namespace dpm
