// End-to-end integration tests: extract -> compose -> optimize ->
// evaluate -> simulate, the full pipeline of the paper's tool (Fig. 7),
// on all three case studies.
#include <gtest/gtest.h>

#include <cmath>

#include "cases/cpu_sa1100.h"
#include "cases/disk_drive.h"
#include "cases/example_system.h"
#include "cases/heuristics.h"
#include "cases/web_server.h"
#include "dpm/evaluation.h"
#include "dpm/optimizer.h"
#include "lp/simplex.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/sr_extractor.h"

namespace dpm {
namespace {

using cases::CpuSa1100;
using cases::DiskDrive;
using cases::ExampleSystem;
using cases::WebServer;

TEST(Integration, ExampleA2EndToEnd) {
  // The Appendix A.2 workflow: minimize power with queue <= 0.5 and
  // loss <= 0.2 at gamma = 0.99999 from (on, idle, empty).
  const SystemModel m = ExampleSystem::make_model();
  const PolicyOptimizer opt(m, ExampleSystem::make_config(m));
  const OptimizationResult r = opt.minimize_power(0.5, 0.2);
  ASSERT_TRUE(r.feasible);

  // The optimal policy beats the trivial always-on policy (paper:
  // "almost a factor of two" with their exact matrices).
  EXPECT_LT(r.objective_per_step, 3.0);
  EXPECT_GT(r.objective_per_step, 0.0);

  // Session-restart simulation of the extracted policy (the Fig. 5
  // stopping-time construction) agrees with the LP prediction.
  sim::Simulator simulator(m);
  sim::PolicyController ctl(m, *r.policy);
  sim::SimulationConfig cfg;
  cfg.slices = 2000000;
  cfg.initial_state = {ExampleSystem::kSpOn, 0, 0};
  cfg.session_restart_prob = 1.0 - opt.config().discount;
  const sim::SimulationResult s = simulator.run(ctl, cfg);
  EXPECT_NEAR(s.avg_power, r.objective_per_step, 0.08);
  EXPECT_NEAR(s.avg_queue_length, r.constraint_per_step[0], 0.05);
}

TEST(Integration, DiskDriveOptimizationRunsAndDominates) {
  const SystemModel m = DiskDrive::make_model();
  const double gamma = 0.9999;  // shorter horizon keeps the test fast
  const PolicyOptimizer opt(m, DiskDrive::make_config(m, gamma));
  const OptimizationResult r =
      opt.minimize_power(/*max_avg_queue=*/0.6, /*max_loss=*/0.05);
  ASSERT_TRUE(r.feasible);
  // Must beat always-active (2.5 W) under the same constraints.
  EXPECT_LT(r.objective_per_step, 2.5);

  // Exact evaluation of greedy-to-sleep under the same start must not
  // beat the optimum while meeting the constraints (global optimality).
  const Policy greedy = cases::eager_policy(m, DiskDrive::kGoSleep,
                                            DiskDrive::kGoActive);
  const PolicyEvaluation ev(m, greedy, gamma,
                            opt.config().initial_distribution);
  const double greedy_queue = ev.per_step(metrics::queue_length(m));
  const double greedy_loss = ev.per_step(metrics::request_loss(m));
  if (greedy_queue <= 0.6 && greedy_loss <= 0.05) {
    EXPECT_GE(ev.per_step(metrics::power(m)),
              r.objective_per_step - 1e-8);
  }
}

TEST(Integration, DiskDriveSimulationMatchesOptimizer) {
  // The Fig. 8b consistency check: simulate the optimal policy with the
  // Markov SR model, under the stopping-time construction matching the
  // optimizer's discount, and compare expected vs measured.
  const SystemModel m = DiskDrive::make_model();
  const double gamma = 0.999;
  const PolicyOptimizer opt(m, DiskDrive::make_config(m, gamma));
  const OptimizationResult r = opt.minimize_power(0.6, 0.05);
  ASSERT_TRUE(r.feasible);

  sim::Simulator simulator(m);
  sim::PolicyController ctl(m, *r.policy);
  sim::SimulationConfig cfg;
  cfg.slices = 2000000;
  cfg.initial_state = {DiskDrive::kActive, 0, 0};
  cfg.session_restart_prob = 1.0 - gamma;
  const sim::SimulationResult s = simulator.run(ctl, cfg);
  EXPECT_NEAR(s.avg_power, r.objective_per_step,
              0.05 + 0.1 * r.objective_per_step);
}

TEST(Integration, DiskDriveTraceDrivenStaysClose) {
  // Trace-driven simulation (the workload the SR was extracted from)
  // lands near the model-driven expectation — the "circles on the
  // curve" observation.
  const SystemModel m = DiskDrive::make_model(/*seed=*/42);
  const double gamma = 0.999;
  const PolicyOptimizer opt(m, DiskDrive::make_config(m, gamma));
  const OptimizationResult r = opt.minimize_power(0.6, 0.05);
  ASSERT_TRUE(r.feasible);

  const std::vector<unsigned> stream = DiskDrive::make_trace(2000000, 42);
  sim::Simulator simulator(m);
  sim::PolicyController ctl(m, *r.policy);
  sim::SimulationConfig cfg;
  cfg.slices = stream.size();
  cfg.initial_state = {DiskDrive::kActive, 0, 0};
  cfg.session_restart_prob = 1.0 - gamma;
  const sim::SimulationResult s = simulator.run_trace(ctl, stream, cfg);
  // The on/off trace is not exactly Markov, so allow a wider band.
  EXPECT_NEAR(s.avg_power, r.objective_per_step,
              0.15 + 0.2 * r.objective_per_step);
}

TEST(Integration, DiskDriveSimplexVariantsAgree) {
  // Regression guard for the 330-variable disk LP: the optimizer's
  // revised simplex and the dense tableau must land on the same optimum
  // (the tableau once disagreed through a tiny-pivot drift).
  const SystemModel m = DiskDrive::make_model();
  const OptimizerConfig cfg = DiskDrive::make_config(m, 0.999);
  const PolicyOptimizer opt(m, cfg);
  for (const double q : {0.3, 0.6}) {
    const OptimizationResult a = opt.minimize_power(q, 0.05);
    ASSERT_TRUE(a.feasible);
    const lp::LpSolution t = lp::solve_simplex(opt.build_lp(
        metrics::power(m), {{metrics::queue_length(m), q, "performance"},
                            {metrics::request_loss(m), 0.05, "request-loss"}}));
    ASSERT_EQ(t.status, lp::LpStatus::kOptimal);
    EXPECT_NEAR(a.objective_per_step, (1.0 - cfg.discount) * t.objective,
                1e-8 * (1.0 + std::abs(a.objective_per_step)));
  }
}

TEST(Integration, WebServerNeverUsesFastCpuAlone) {
  // Paper Sec. VI-B: "the processor with higher performance was never
  // used alone" — CPU2 costs 2x for 1.5x performance.
  const SystemModel m = WebServer::make_model();
  const PolicyOptimizer opt(m, WebServer::make_config(m));
  const OptimizationResult r = opt.minimize(
      metrics::power(m), {WebServer::min_throughput_constraint(m, 0.3)});
  ASSERT_TRUE(r.feasible);
  const std::size_t na = m.num_commands();
  double cpu2_alone_freq = 0.0;
  for (std::size_t s = 0; s < m.num_states(); ++s) {
    if (m.decompose(s).sp != WebServer::kCpu2Only) continue;
    for (std::size_t a = 0; a < na; ++a) {
      cpu2_alone_freq += r.frequencies[s * na + a];
    }
  }
  const double horizon = 1.0 / (1.0 - opt.config().discount);
  EXPECT_LT(cpu2_alone_freq / horizon, 0.01);
}

TEST(Integration, WebServerThroughputConstraintMet) {
  const SystemModel m = WebServer::make_model();
  const PolicyOptimizer opt(m, WebServer::make_config(m));
  for (const double target : {0.2, 0.5, 0.8}) {
    const OptimizationResult r = opt.minimize(
        metrics::power(m),
        {WebServer::min_throughput_constraint(m, target)});
    ASSERT_TRUE(r.feasible) << "target " << target;
    // constraint_per_step holds E[-throughput] <= -target.
    EXPECT_LE(r.constraint_per_step[0], -target + 1e-6);
  }
}

TEST(Integration, WebServerPowerMonotoneInThroughput) {
  const SystemModel m = WebServer::make_model();
  const PolicyOptimizer opt(m, WebServer::make_config(m));
  double last = -1.0;
  for (const double target : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const OptimizationResult r = opt.minimize(
        metrics::power(m),
        {WebServer::min_throughput_constraint(m, target)});
    ASSERT_TRUE(r.feasible);
    EXPECT_GE(r.objective_per_step, last - 1e-8);
    last = r.objective_per_step;
  }
}

TEST(Integration, CpuOptimalDominatesTimeoutCurve) {
  // Fig. 9b: optimal stochastic control lies below the timeout curve.
  const SystemModel m = CpuSa1100::make_model();
  const double gamma = 0.9999;
  const PolicyOptimizer opt(m, CpuSa1100::make_config(m, gamma));
  const StateActionMetric pen = CpuSa1100::penalty(m);

  sim::Simulator simulator(m);
  sim::SimulationConfig cfg;
  cfg.slices = 300000;
  cfg.warmup = 2000;
  cfg.initial_state = {CpuSa1100::kActive, 0, 0};

  for (const std::size_t timeout : {0ul, 10ul, 50ul}) {
    sim::TimeoutController ctl(timeout, CpuSa1100::kShutdown,
                               CpuSa1100::kRun);
    const sim::SimulationResult t = simulator.run(ctl, cfg);
    const double t_pen = t.metric(pen);
    // Optimal policy at the same penalty level must not need more power.
    const OptimizationResult r = opt.minimize(
        metrics::power(m), {{pen, t_pen + 0.005, "penalty"}});
    ASSERT_TRUE(r.feasible) << "timeout " << timeout;
    EXPECT_LE(r.objective_per_step, t.avg_power + 0.02)
        << "timeout " << timeout;
  }
}

TEST(Integration, CpuNonstationaryWorkloadModelMismatch) {
  // Fig. 10 mechanism: fit a stationary SR to a nonstationary
  // editing+compilation mixture, then simulate on the raw trace.  The
  // policy remains valid, but its trace-measured penalty deviates from
  // the model prediction far more than on a stationary workload.
  const std::vector<unsigned> mix = trace::concat_streams(
      trace::editing_stream(150000, 5), trace::compilation_stream(150000, 6));
  const SystemModel m = CpuSa1100::make_model_from_stream(mix);
  const double gamma = 0.9999;
  const PolicyOptimizer opt(m, CpuSa1100::make_config(m, gamma));
  const StateActionMetric pen = CpuSa1100::penalty(m);
  const OptimizationResult r =
      opt.minimize(metrics::power(m), {{pen, 0.02, "penalty"}});
  ASSERT_TRUE(r.feasible);

  sim::Simulator simulator(m);
  sim::PolicyController ctl(m, *r.policy);
  sim::SimulationConfig cfg;
  cfg.slices = mix.size();
  cfg.initial_state = {CpuSa1100::kActive, 0, 0};
  const sim::SimulationResult s = simulator.run_trace(ctl, mix, cfg);
  // No assertion that it matches (the paper's point is that it need
  // not); assert the pipeline runs and produces sane numbers.
  EXPECT_GE(s.avg_power, 0.0);
  EXPECT_LE(s.avg_power, 0.9);
}

TEST(Integration, ExtractOptimizeSimulateOnSyntheticGilbert) {
  // Full Fig. 7 pipeline with a *known* generator: extract an SR from a
  // Gilbert stream, optimize, then verify trace-driven simulation
  // matches the optimizer's expectation (the model is exact here).
  const std::vector<unsigned> stream =
      trace::gilbert_stream(2000000, 0.1, 0.2, 31);
  const ServiceRequester sr = trace::extract_sr(stream, {.memory = 1});
  SystemModel m = SystemModel::compose(ExampleSystem::make_provider(), sr, 1);

  OptimizerConfig cfg;
  cfg.discount = 0.999;
  cfg.initial_distribution = m.point_distribution({0, 0, 0});
  const PolicyOptimizer opt(m, cfg);
  const OptimizationResult r = opt.minimize_power(0.4, 0.2);
  ASSERT_TRUE(r.feasible);

  sim::Simulator simulator(m);
  sim::PolicyController ctl(m, *r.policy);
  sim::SimulationConfig scfg;
  scfg.slices = stream.size();
  scfg.session_restart_prob = 1.0 - cfg.discount;
  const sim::SimulationResult s = simulator.run_trace(ctl, stream, scfg);
  EXPECT_NEAR(s.avg_power, r.objective_per_step,
              0.08 + 0.05 * r.objective_per_step);
  EXPECT_NEAR(s.avg_queue_length, r.constraint_per_step[0], 0.06);
}

}  // namespace
}  // namespace dpm
