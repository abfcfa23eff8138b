// Scenario-engine tests: registry integrity, deterministic seed
// streams, --jobs invariance, closed-loop LP/evaluation/simulation
// agreement on the disk case study, the registry-wide smoke gate
// (every registered scenario runs its smoke grid and passes its
// expected-shape assertions), content-hash properties of the result
// cache keys, the cache round-trip/poisoning contract, and JSON number
// parsing bit-for-bit against strtod.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cases/disk_drive.h"
#include "cases/example_system.h"
#include "dpm/evaluation.h"
#include "dpm/optimizer.h"
#include "lp/problem.h"
#include "lp/revised_simplex.h"
#include "markov/sparse_chain.h"
#include "scenario/cache.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "sim/hash.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace dpm {
namespace {

using scenario::ExperimentRunner;
using scenario::RunnerOptions;
using scenario::ScenarioRunResult;

RunnerOptions quiet_smoke(std::size_t jobs) {
  RunnerOptions opts;
  opts.jobs = jobs;
  opts.smoke = true;
  opts.print = false;
  opts.write_json = false;
  return opts;
}

TEST(ScenarioRegistry, BuiltinRegistrationIsIdempotentAndComplete) {
  scenario::register_builtin();
  const std::size_t count = scenario::all().size();
  scenario::register_builtin();  // second call must not duplicate
  EXPECT_EQ(scenario::all().size(), count);
  // The acceptance bar: every paper figure is a registered scenario.
  EXPECT_GE(count, 12u);
  for (const char* name :
       {"example_a2", "fig06_pareto", "fig08_disk", "fig09a_webserver",
        "fig09b_cpu", "fig10_nonstationary", "fig12a_sleepstates",
        "fig12b_transition", "fig13a_burstiness", "fig13b_memory",
        "fig14a_horizon", "fig14b_queue", "po1_duality",
        "ablation_determinize", "adaptive", "average_cost"}) {
    EXPECT_NE(scenario::find(name), nullptr) << name;
  }
  EXPECT_EQ(scenario::find("no_such_scenario"), nullptr);
  // Names are unique and every scenario expands to at least one unit.
  for (const auto& sc : scenario::all()) {
    std::size_t hits = 0;
    for (const auto& other : scenario::all()) {
      if (other.name == sc.name) ++hits;
    }
    EXPECT_EQ(hits, 1u) << sc.name;
    EXPECT_GE(sc.units(true).size(), 1u) << sc.name;
  }
}

TEST(ScenarioRegistry, DuplicateNamesAreRejected) {
  scenario::register_builtin();
  scenario::Scenario dup;
  dup.name = "example_a2";
  dup.units = [](bool) { return std::vector<scenario::Unit>{}; };
  EXPECT_THROW(scenario::add(std::move(dup)), std::invalid_argument);
}

TEST(SeedStreams, DerivedSeedsAreStableAndSplit) {
  // Pure function of (scope, index, salt)...
  EXPECT_EQ(sim::derive_seed("fig08_disk", 3), sim::derive_seed("fig08_disk", 3));
  // ...and distinct across every argument.
  EXPECT_NE(sim::derive_seed("fig08_disk", 3), sim::derive_seed("fig08_disk", 4));
  EXPECT_NE(sim::derive_seed("fig08_disk", 3), sim::derive_seed("fig09b_cpu", 3));
  EXPECT_NE(sim::derive_seed("fig08_disk", 3, 0),
            sim::derive_seed("fig08_disk", 3, 1));
}

// --jobs N must reproduce --jobs 1 exactly: records (the JSON content)
// and the published value store are bitwise identical.  fig09b_cpu
// exercises both the warm-started sweep and Monte Carlo units.
TEST(ExperimentRunner, JobsDoNotChangeResults) {
  scenario::register_builtin();
  const scenario::Scenario* sc = scenario::find("fig09b_cpu");
  ASSERT_NE(sc, nullptr);
  const ScenarioRunResult serial = ExperimentRunner(quiet_smoke(1)).run_one(*sc);
  const ScenarioRunResult parallel =
      ExperimentRunner(quiet_smoke(4)).run_one(*sc);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].name, parallel.records[i].name);
    EXPECT_EQ(serial.records[i].iterations, parallel.records[i].iterations);
    EXPECT_EQ(serial.records[i].objective, parallel.records[i].objective)
        << serial.records[i].name;
  }
  EXPECT_EQ(serial.values, parallel.values);
  EXPECT_EQ(serial.failures, parallel.failures);
}

// Closed-loop agreement on the disk drive: the LP optimum, the exact
// discounted evaluation of its policy, and the Monte Carlo simulation
// must tell one consistent story.
TEST(ClosedLoop, DiskLpPolicyMatchesEvaluationAndSimulation) {
  const SystemModel m = cases::DiskDrive::make_model(/*seed=*/42);
  const double gamma = 0.999;
  const PolicyOptimizer opt(m, cases::DiskDrive::make_config(m, gamma));
  const OptimizationResult r = opt.minimize_power(0.4, 0.05);
  ASSERT_TRUE(r.feasible);

  // Exact evaluation of the extracted policy reproduces the LP's own
  // objective and constraint accounting (tight tolerance: both are
  // closed-form in the same model).
  const PolicyEvaluation ev(m, *r.policy, gamma,
                            opt.config().initial_distribution);
  EXPECT_NEAR(ev.per_step(metrics::power(m)), r.objective_per_step, 1e-6);
  EXPECT_NEAR(ev.per_step(metrics::queue_length(m)), r.constraint_per_step[0],
              1e-6);
  EXPECT_NEAR(ev.per_step(metrics::request_loss(m)), r.constraint_per_step[1],
              1e-6);

  // Session-restart Monte Carlo converges to the same per-step values
  // (loose tolerance: sampling noise).
  sim::Simulator simulator(m);
  sim::PolicyController ctl(m, *r.policy);
  sim::SimulationConfig cfg;
  cfg.slices = 400000;
  cfg.initial_state = {cases::DiskDrive::kActive, 0, 0};
  cfg.session_restart_prob = 1.0 - gamma;
  cfg.seed = sim::derive_seed("closed_loop_disk", 0);
  const sim::SimulationResult s = simulator.run(ctl, cfg);
  EXPECT_NEAR(s.avg_power, r.objective_per_step,
              0.08 * r.objective_per_step);
  EXPECT_NEAR(s.avg_queue_length, r.constraint_per_step[0],
              0.15 * r.constraint_per_step[0] + 0.02);
}

// The warm-started sweep and per-point cold solves agree on the curve
// (same optima), while the warm restarts spend far fewer pivots.
TEST(ClosedLoop, WarmStartedSweepMatchesColdSolves) {
  const SystemModel m = cases::DiskDrive::make_model(/*seed=*/42);
  const PolicyOptimizer opt(m, cases::DiskDrive::make_config(m, 0.999));
  const std::vector<double> bounds{0.2, 0.3, 0.4, 0.6};
  const auto curve = opt.sweep(metrics::power(m), metrics::queue_length(m),
                               "queue", bounds,
                               {{metrics::request_loss(m), 0.05, "loss"}});
  ASSERT_EQ(curve.size(), bounds.size());
  std::size_t warm_pivots = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const OptimizationResult cold = opt.minimize_power(bounds[i], 0.05);
    ASSERT_EQ(curve[i].feasible, cold.feasible) << bounds[i];
    if (cold.feasible) {
      EXPECT_NEAR(curve[i].objective, cold.objective_per_step, 1e-7);
      ASSERT_FALSE(curve[i].constraint_per_step.empty());
      // Swept constraint is reported last; fixed (loss) first.
      EXPECT_NEAR(curve[i].constraint_per_step.back(),
                  cold.constraint_per_step[0], 1e-7);
    }
    if (i > 0) warm_pivots += curve[i].lp_iterations;
  }
  // Warm restarts should beat the cold first solve per point by a wide
  // margin on this sweep (ROADMAP: ~10x fewer pivots).
  EXPECT_LT(warm_pivots / (bounds.size() - 1.0),
            0.5 * curve.front().lp_iterations);
}

// Registry-wide smoke gate: every registered scenario runs its smoke
// grid on two workers and passes its expected-shape assertions.
// This intentionally overlaps the per-scenario ctest registrations
// (smoke_scenario_*): the ctest side exercises the bench_scenarios CLI
// in Release, this side runs in-process so the Debug/ASan+UBSan preset
// sweeps the whole engine too.  Smoke grids are sized to keep the
// doubled coverage cheap (~0.15 s total in Release).
class ScenarioSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioSmoke, SmokeGridPassesShapeAssertions) {
  const scenario::Scenario* sc = scenario::find(GetParam());
  ASSERT_NE(sc, nullptr);
  const ScenarioRunResult res = ExperimentRunner(quiet_smoke(2)).run_one(*sc);
  EXPECT_GE(res.records.size(), 1u);
  for (const std::string& failure : res.failures) {
    ADD_FAILURE() << sc->name << ": " << failure;
  }
}

std::vector<std::string> registered_scenario_names() {
  scenario::register_builtin();
  std::vector<std::string> names;
  for (const auto& sc : scenario::all()) names.push_back(sc.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Registry, ScenarioSmoke,
                         ::testing::ValuesIn(registered_scenario_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Content-hash properties (the result cache's key contract)
// ---------------------------------------------------------------------

// A two-state, one-command chain assembled three ways: sorted entries,
// reversed insertion order, and duplicated entries that sum to the same
// probabilities.  Construction canonicalizes, so all three must hash
// equal; a fourth chain moving one probability by 1e-4 must not.
TEST(ContentHash, CsrRowsHashCanonicallyAcrossInsertionOrder) {
  using markov::SparseControlledChain;
  using markov::TransitionRow;
  const auto digest_of = [](const SparseControlledChain& c) {
    sim::Fnv1a h;
    c.hash_into(h);
    return h.digest();
  };
  const auto make = [](TransitionRow row0) {
    std::vector<std::vector<TransitionRow>> rows(1);
    rows[0].push_back(std::move(row0));
    rows[0].push_back({{1, 1.0}});
    return SparseControlledChain(2, std::move(rows));
  };
  // Dyadic probabilities so the duplicate sum is bit-exact (the hash
  // canonicalizes *structure*, not floating-point roundoff).
  const std::uint64_t sorted = digest_of(make({{0, 0.25}, {1, 0.75}}));
  const std::uint64_t reversed = digest_of(make({{1, 0.75}, {0, 0.25}}));
  const std::uint64_t duplicated =
      digest_of(make({{1, 0.75}, {0, 0.125}, {0, 0.125}}));
  EXPECT_EQ(sorted, reversed);
  EXPECT_EQ(sorted, duplicated);
  const std::uint64_t perturbed =
      digest_of(make({{0, 0.2501}, {1, 0.7499}}));
  EXPECT_NE(sorted, perturbed);
}

// Every LP ingredient must reach the hash: a cost, an upper bound, a
// constraint coefficient, the rhs, and the sense each produce a
// distinct digest.
TEST(ContentHash, LpProblemPerturbationsChangeTheDigest) {
  const auto build = [](double cost0, double upper1, double coeff,
                        double rhs, lp::Sense sense) {
    lp::LpProblem p;
    p.add_variable(cost0);
    p.add_variable(2.0);
    p.set_upper_bound(1, upper1);
    p.add_constraint({{{0, coeff}, {1, 1.0}}, sense, rhs, ""});
    sim::Fnv1a h;
    p.hash_into(h);
    return h.digest();
  };
  std::set<std::uint64_t> digests;
  digests.insert(build(1.0, 5.0, 1.0, 1.0, lp::Sense::kEq));  // base
  digests.insert(build(1.5, 5.0, 1.0, 1.0, lp::Sense::kEq));  // cost
  digests.insert(build(1.0, 4.0, 1.0, 1.0, lp::Sense::kEq));  // bound
  digests.insert(build(1.0, 5.0, 2.0, 1.0, lp::Sense::kEq));  // coefficient
  digests.insert(build(1.0, 5.0, 1.0, 2.0, lp::Sense::kEq));  // rhs
  digests.insert(build(1.0, 5.0, 1.0, 1.0, lp::Sense::kLe));  // sense
  EXPECT_EQ(digests.size(), 6u);
}

// A minimal perturbable system model for unit_key probes: `wake_prob`
// moves one transition probability, `on_power` one cost entry.
SystemModel tiny_model(double wake_prob, double on_power) {
  ServiceProvider::Builder b(2, CommandSet({"s_on", "s_off"}));
  b.transition(0, 0, 0, 1.0);
  b.transition(0, 1, 0, wake_prob);
  b.transition(0, 1, 1, 1.0 - wake_prob);
  b.transition(1, 0, 1, 0.8);
  b.transition(1, 0, 0, 0.2);
  b.transition(1, 1, 1, 1.0);
  b.service_rate(0, 0, 0.8);
  b.power(0, 0, on_power);
  b.power(0, 1, 4.0);
  b.power(1, 0, 4.0);
  return SystemModel::compose(std::move(b).build(),
                              ServiceRequester::two_state(0.05, 0.15),
                              /*queue_capacity=*/1);
}

scenario::Scenario tiny_scenario(double wake_prob, double on_power,
                                 std::vector<double> bounds) {
  scenario::Scenario sc;
  sc.name = "__unit_key_probe";
  sc.title = "hash probe";
  sc.what = "content-hash property probe (never registered)";
  sc.units = [wake_prob, on_power, bounds](bool) {
    scenario::SweepSpec spec;
    spec.series = "probe";
    spec.model = [wake_prob, on_power] {
      return tiny_model(wake_prob, on_power);
    };
    spec.config = [](const SystemModel& m) {
      OptimizerConfig cfg;
      cfg.discount = 0.999;
      cfg.initial_distribution = m.point_distribution({0, 0, 0});
      return cfg;
    };
    spec.objective = [](const SystemModel& m) { return metrics::power(m); };
    spec.swept = [](const SystemModel& m) { return metrics::queue_length(m); };
    spec.swept_name = "queue";
    spec.bounds = bounds;
    spec.smoke_points = 0;
    std::vector<scenario::Unit> units;
    units.push_back(scenario::sweep_unit(std::move(spec)));
    return units;
  };
  return sc;
}

// The acceptance property of the tentpole: identical inputs key equal;
// any single perturbation — one transition probability, one power
// cost, one grid point, the schema version, the smoke flag — changes
// unit_key().
TEST(ContentHash, UnitKeySeparatesEveryInput) {
  const std::vector<double> grid{0.2, 0.4};
  const std::uint64_t base =
      tiny_scenario(0.1, 3.0, grid).unit_key(0, /*smoke=*/false);
  // Deterministic and reproducible across expansions.
  EXPECT_EQ(base, tiny_scenario(0.1, 3.0, grid).unit_key(0, false));

  std::set<std::uint64_t> keys;
  keys.insert(base);
  keys.insert(tiny_scenario(0.1001, 3.0, grid).unit_key(0, false));  // prob
  keys.insert(tiny_scenario(0.1, 3.0001, grid).unit_key(0, false));  // cost
  keys.insert(
      tiny_scenario(0.1, 3.0, {0.2, 0.41}).unit_key(0, false));  // grid point
  keys.insert(tiny_scenario(0.1, 3.0, grid).unit_key(0, true));  // smoke grid
  keys.insert(tiny_scenario(0.1, 3.0, grid)
                  .unit_key(0, false, scenario::kResultSchemaVersion + 1));
  EXPECT_EQ(keys.size(), 6u);
}

// ---------------------------------------------------------------------
// Result cache round trip
// ---------------------------------------------------------------------

RunnerOptions cached_smoke(const std::string& dir) {
  RunnerOptions opts;
  opts.jobs = 2;
  opts.smoke = true;
  opts.print = false;
  opts.write_json = false;
  opts.cache = true;
  opts.cache_dir = dir;
  return opts;
}

// Second run replays from the cache: byte-identical JSON, every unit
// cached, zero simplex pivots executed.
TEST(ResultCache, ReplayIsByteIdenticalAndRunsZeroPivots) {
  scenario::register_builtin();
  const scenario::Scenario* sc = scenario::find("example_a2");
  ASSERT_NE(sc, nullptr);
  const std::string dir =
      testing::TempDir() + "/dpmopt_cache_roundtrip";
  std::filesystem::remove_all(dir);

  const ScenarioRunResult cold =
      ExperimentRunner(cached_smoke(dir)).run_one(*sc);
  ASSERT_TRUE(cold.failures.empty());
  EXPECT_EQ(cold.units_cached, 0u);
  const std::string cold_json =
      scenario::json_report_string(sc->name, cold.records);

  const std::uint64_t pivots_before = lp::pivots_executed();
  const ScenarioRunResult warm =
      ExperimentRunner(cached_smoke(dir)).run_one(*sc);
  EXPECT_EQ(lp::pivots_executed(), pivots_before)
      << "a cached replay must execute zero simplex pivots";
  EXPECT_EQ(warm.units_cached, warm.units);
  EXPECT_TRUE(warm.failures.empty());
  EXPECT_EQ(scenario::json_report_string(sc->name, warm.records), cold_json);
  EXPECT_EQ(warm.values, cold.values);
}

// The process-wide simplex odometers (pivots_executed, sweep_telemetry)
// are relaxed atomics, and the runner's workers write stats only into
// per-unit slots — so a parallel run must leave the odometers monotone
// and mutually consistent (every sweep the units executed is accounted
// for, with no torn or lost updates).
TEST(ExperimentRunner, ParallelRunKeepsOdometersConsistent) {
  scenario::register_builtin();
  const scenario::Scenario* sc = scenario::find("example_a2");
  ASSERT_NE(sc, nullptr);
  const std::uint64_t pivots0 = lp::pivots_executed();
  const lp::SweepTelemetry t0 = lp::sweep_telemetry();
  const ScenarioRunResult res =
      ExperimentRunner(quiet_smoke(4)).run_one(*sc);
  ASSERT_TRUE(res.failures.empty());
  const std::uint64_t pivots1 = lp::pivots_executed();
  const lp::SweepTelemetry t1 = lp::sweep_telemetry();
  EXPECT_GT(pivots1, pivots0) << "the scenario solves LPs";
  const std::uint64_t sweeps =
      (t1.sparse_sweeps - t0.sparse_sweeps) +
      (t1.dense_sweeps - t0.dense_sweeps);
  EXPECT_GT(sweeps, 0u);
  EXPECT_GE(t1.sparse_sweeps, t0.sparse_sweeps);
  EXPECT_GE(t1.dense_sweeps, t0.dense_sweeps);
  EXPECT_GE(t1.touched_entries, t0.touched_entries);
  // Each sweep touches at least one entry on any nontrivial basis.
  EXPECT_GE(t1.touched_entries - t0.touched_entries, sweeps);
}

// Poisoning one cached record must be detected (payload checksum) and
// answered with a recompute of exactly that unit — results stay
// correct either way.
TEST(ResultCache, PoisonedRecordIsDetectedAndRecomputed) {
  scenario::register_builtin();
  const scenario::Scenario* sc = scenario::find("example_a2");
  ASSERT_NE(sc, nullptr);
  const std::string dir = testing::TempDir() + "/dpmopt_cache_poison";
  std::filesystem::remove_all(dir);

  const ScenarioRunResult cold =
      ExperimentRunner(cached_smoke(dir)).run_one(*sc);
  ASSERT_TRUE(cold.failures.empty());
  ASSERT_GE(cold.units, 2u);
  const std::string cold_json =
      scenario::json_report_string(sc->name, cold.records);

  // Flip one digit of the first cached objective value in place.
  const std::string cache_file = dir + "/cache.jsonl";
  std::ifstream in(cache_file);
  ASSERT_TRUE(in);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t pos = text.find("\"objective\":");
  ASSERT_NE(pos, std::string::npos);
  std::size_t digit = text.find_first_of("0123456789", pos);
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '9' ? '1' : '9';
  {
    std::ofstream out(cache_file, std::ios::trunc);
    out << text;
  }

  const std::uint64_t pivots_before = lp::pivots_executed();
  const ScenarioRunResult warm =
      ExperimentRunner(cached_smoke(dir)).run_one(*sc);
  // Exactly the poisoned unit recomputed; every clean unit replayed.
  EXPECT_EQ(warm.units_cached, warm.units - 1);
  EXPECT_TRUE(warm.failures.empty());
  EXPECT_EQ(scenario::json_report_string(sc->name, warm.records), cold_json)
      << "recomputation must reproduce the cold results exactly";
  // The recompute may or may not touch the LP (the poisoned line could
  // be a simulation unit); what matters is that a *full* replay did
  // not happen when the poisoned unit was the LP one.  Either way the
  // next run is fully cached again (the store healed itself).
  (void)pivots_before;
  const ScenarioRunResult healed =
      ExperimentRunner(cached_smoke(dir)).run_one(*sc);
  EXPECT_EQ(healed.units_cached, healed.units);
}

// ---------------------------------------------------------------------
// JSON number parsing (the wire and cache-record reader)
// ---------------------------------------------------------------------

// The parser reads numbers in place with std::from_chars; strtod is the
// reference it replaced, so every accepted string must yield strtod's
// exact bits, out-of-range ones included, and malformed ones must
// still throw.
TEST(JsonParse, NumbersMatchStrtodBitForBit) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  const auto expect_strtod_bits = [&](const char* text) {
    char* end = nullptr;
    const double want = std::strtod(text, &end);
    ASSERT_EQ(*end, '\0') << text;
    double got = 0.0;
    ASSERT_NO_THROW(got = scenario::JsonValue::parse(text).as_number())
        << text;
    ASSERT_EQ(bits(got), bits(want)) << text;
  };

  std::mt19937_64 gen(20260417);
  const char* const formats[] = {"%.17g", "%.6g", "%.20e"};
  char buf[64];
  std::size_t patterns = 0;
  while (patterns < 200000) {
    const double d = std::bit_cast<double>(gen());
    if (!std::isfinite(d)) continue;
    ++patterns;
    for (const char* format : formats) {
      std::snprintf(buf, sizeof buf, format, d);
      expect_strtod_bits(buf);
    }
  }

  for (const char* edge :
       {"1e999", "-1e999", "1e-400", "2.4703282292062327e-324", "4.9e-324",
        "-0", "1.", "-.5", "00012", "1E5", "1e+5", "+5", "+.5"}) {
    expect_strtod_bits(edge);
  }

  for (const char* bad : {"1e", "--1", "1.2.3", "1e+", "-", "1e5.5", "+",
                          "+-1", "++1"}) {
    EXPECT_THROW(scenario::JsonValue::parse(bad), scenario::JsonError) << bad;
  }
}

}  // namespace
}  // namespace dpm
