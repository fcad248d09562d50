// Tests for the scenario-sweep engine: grid expansion, solver dispatch
// consistency against the underlying backends, memoization behavior, and
// thread-count determinism (a multi-thread sweep must be bit-identical to
// a single-thread sweep).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "core/ef_analysis.hpp"
#include "core/exact_ctmc.hpp"
#include "core/policies.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/solver_dispatch.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "queueing/mmk.hpp"

namespace esched {
namespace {

/// A small mixed-solver scenario that exercises every backend cheaply.
Scenario small_scenario() {
  Scenario s;
  s.name = "test";
  s.k_values = {2, 4};
  s.rho_values = {0.5, 0.7};
  s.mu_i_values = {0.5, 1.0, 2.0};
  s.mu_e_values = {1.0};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis, SolverKind::kMmkBaseline};
  return s;
}

TEST(Scenario, GridExpansionCount) {
  const Scenario s = small_scenario();
  EXPECT_EQ(s.num_points(), 2u * 2u * 3u * 1u * 1u * 2u * 2u);
  const auto points = s.expand();
  ASSERT_EQ(points.size(), s.num_points());
  // Row-major order: solver varies fastest, then policy, then the axes.
  EXPECT_EQ(points[0].params.k, 2);
  EXPECT_EQ(points[0].policy, "IF");
  EXPECT_EQ(points[0].solver, SolverKind::kQbdAnalysis);
  EXPECT_EQ(points[1].policy, "IF");
  EXPECT_EQ(points[1].solver, SolverKind::kMmkBaseline);
  EXPECT_EQ(points[2].policy, "EF");
  EXPECT_EQ(points.back().params.k, 4);
  EXPECT_NEAR(points.back().params.rho(), 0.7, 1e-12);
  // lambda_I == lambda_E by the paper's convention.
  for (const auto& point : points) {
    EXPECT_DOUBLE_EQ(point.params.lambda_i, point.params.lambda_e);
  }
}

TEST(Scenario, ValidateRejectsBadAxes) {
  Scenario s = small_scenario();
  s.policies.clear();
  EXPECT_THROW(s.expand(), Error);
  s = small_scenario();
  s.rho_values = {1.2};
  EXPECT_THROW(s.expand(), Error);
  s = small_scenario();
  s.policies = {"NotAPolicy"};
  EXPECT_THROW(s.expand(), Error);
}

TEST(Scenario, BuiltinsExpandToExpectedSizes) {
  for (const auto& name : builtin_scenario_names()) {
    EXPECT_NO_THROW(builtin_scenario(name).expand()) << name;
  }
  EXPECT_EQ(builtin_scenario("fig4").num_points(), 3u * 14u * 14u * 2u);
  EXPECT_EQ(builtin_scenario("fig5").num_points(), 3u * 14u * 2u);
  EXPECT_EQ(builtin_scenario("fig6").num_points(), 15u * 2u * 2u);
  EXPECT_EQ(builtin_scenario("optimality-family").num_points(), 9u * 5u);
  EXPECT_EQ(builtin_scenario("analysis-accuracy").num_points(), 7u * 2u * 3u);
  EXPECT_EQ(builtin_scenario("tail-latency").num_points(), 3u * 2u);
  EXPECT_EQ(builtin_scenario("ablation-truncation").num_points(),
            2u * 6u * 2u);
  EXPECT_EQ(builtin_scenario("ablation-coxian").num_points(),
            6u * 3u * 2u * 2u);
  EXPECT_EQ(builtin_scenario("dominance-thm3").num_points(), 5u * 5u);
  EXPECT_THROW(builtin_scenario("no-such-scenario"), Error);
}

TEST(Scenario, CaseAndAxisExpansionOrder) {
  Scenario s;
  s.name = "cases-order";
  s.cases = {{2, 1.0, 1.0, 0.5, 0}, {4, 2.0, 1.0, 0.7, 0}};
  s.trunc_values = {10, 20};
  s.fit_orders = {1, 3};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis, SolverKind::kExactCtmc};
  EXPECT_EQ(s.num_points(), 2u * 2u * 2u * 2u * 2u);
  const auto points = s.expand();
  ASSERT_EQ(points.size(), s.num_points());
  // Row-major: solver fastest, then policy, fit, truncation, case.
  EXPECT_EQ(points[0].solver, SolverKind::kQbdAnalysis);
  EXPECT_EQ(points[1].solver, SolverKind::kExactCtmc);
  EXPECT_EQ(points[2].policy, "EF");
  EXPECT_EQ(points[0].options.fit_order, BusyFitOrder::kOneMoment);
  EXPECT_EQ(points[4].options.fit_order, BusyFitOrder::kThreeMoment);
  EXPECT_EQ(points[0].options.imax, 10);
  EXPECT_EQ(points[8].options.imax, 20);
  EXPECT_EQ(points[0].params.k, 2);
  EXPECT_EQ(points[16].params.k, 4);
  EXPECT_NEAR(points[16].params.rho(), 0.7, 1e-12);
}

TEST(Scenario, CacheKeyDistinguishesAndMatches) {
  const auto points = small_scenario().expand();
  RunPoint a = points[0];  // qbd point
  RunPoint b = points[0];
  EXPECT_EQ(a.cache_key(), b.cache_key());
  EXPECT_EQ(a.seed(), b.seed());
  b.policy = "EF";
  EXPECT_NE(a.cache_key(), b.cache_key());
  b = a;
  b.solver = SolverKind::kSimulation;
  b.options.base_seed = 2;
  EXPECT_NE(a.cache_key(), b.cache_key());
  EXPECT_NE(a.seed(), b.seed());
}

TEST(Scenario, CacheKeyIsBackendCanonical) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  // A solver ignores axes it never reads: the QBD key is invariant in the
  // truncation and seed, the exact key in the fit order and seed, the sim
  // key in the fit order — so ablation axes collapse to one solve each.
  RunPoint qbd{p, "IF", SolverKind::kQbdAnalysis, {}};
  RunPoint qbd2 = qbd;
  qbd2.options.imax = qbd2.options.jmax = 40;
  qbd2.options.base_seed = 7;
  EXPECT_EQ(qbd.cache_key(), qbd2.cache_key());
  qbd2.options.fit_order = BusyFitOrder::kOneMoment;
  EXPECT_NE(qbd.cache_key(), qbd2.cache_key());

  RunPoint exact{p, "IF", SolverKind::kExactCtmc, {}};
  RunPoint exact2 = exact;
  exact2.options.fit_order = BusyFitOrder::kOneMoment;
  exact2.options.base_seed = 7;
  exact2.options.sim_jobs = 99;
  EXPECT_EQ(exact.cache_key(), exact2.cache_key());
  exact2.options.imax = 40;
  EXPECT_NE(exact.cache_key(), exact2.cache_key());

  RunPoint sim{p, "IF", SolverKind::kSimulation, {}};
  RunPoint sim2 = sim;
  sim2.options.fit_order = BusyFitOrder::kOneMoment;
  EXPECT_EQ(sim.cache_key(), sim2.cache_key());
  sim2.options.sim_tails = true;
  EXPECT_NE(sim.cache_key(), sim2.cache_key());
  sim2 = sim;
  sim2.options.sim_raw_seed = true;
  EXPECT_NE(sim.cache_key(), sim2.cache_key());
}

TEST(Scenario, MakePolicyParsesSpecs) {
  EXPECT_EQ(make_policy("IF")->name(), make_inelastic_first()->name());
  EXPECT_EQ(make_policy("EF")->name(), make_elastic_first()->name());
  EXPECT_EQ(make_policy("Cap2")->name(), make_inelastic_cap(2)->name());
  EXPECT_EQ(make_policy("IF+idle1")->name(),
            make_idling(make_inelastic_first(), 1.0)->name());
  EXPECT_THROW(make_policy("CapX"), Error);
  EXPECT_THROW(make_policy("bogus"), Error);
}

TEST(Scenario, SolverNamesRoundTrip) {
  for (const SolverKind kind :
       {SolverKind::kQbdAnalysis, SolverKind::kExactCtmc,
        SolverKind::kSimulation, SolverKind::kMmkBaseline,
        SolverKind::kTraceDominance}) {
    EXPECT_EQ(parse_solver(solver_name(kind)), kind);
  }
  EXPECT_THROW(parse_solver("fancy"), Error);
}

TEST(Dispatch, QbdMatchesDirectAnalysis) {
  const SystemParams p = SystemParams::from_load(4, 2.0, 1.0, 0.7);
  const RunPoint point{p, "EF", SolverKind::kQbdAnalysis, {}};
  const RunResult result = dispatch_run(point);
  const ResponseTimeAnalysis direct = analyze_elastic_first(p);
  EXPECT_DOUBLE_EQ(result.mean_response_time, direct.mean_response_time);
  EXPECT_DOUBLE_EQ(result.mean_jobs_i, direct.mean_jobs_i);
  EXPECT_EQ(result.solver_iterations, direct.qbd_iterations);
}

TEST(Dispatch, ExactMatchesDirectSolveAndReportsSolveInfo) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  RunPoint point{p, "FairShare", SolverKind::kExactCtmc, {}};
  point.options.imax = point.options.jmax = 40;
  const RunResult result = dispatch_run(point);
  ExactCtmcOptions options;
  options.imax = options.jmax = 40;
  const ExactCtmcResult direct =
      solve_exact_ctmc(p, *make_fair_share(), options);
  EXPECT_DOUBLE_EQ(result.mean_response_time, direct.mean_response_time);
  EXPECT_DOUBLE_EQ(result.boundary_mass, direct.boundary_mass);
  // 41x41 states > the 500-state GTH limit, so auto picks the direct
  // block solver: no sweeps, and the residual still surfaces through the
  // result.
  EXPECT_EQ(direct.solve_info.method, "block");
  EXPECT_EQ(result.solver_iterations, 0);
  EXPECT_LT(result.solve_residual, 1e-11);
  EXPECT_TRUE(direct.solve_info.converged);
}

TEST(Dispatch, GthPathReportsConvergedSolveInfo) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  ExactCtmcOptions options;
  options.imax = options.jmax = 15;  // 256 states <= the 500-state GTH limit
  const ExactCtmcResult direct =
      solve_exact_ctmc(p, *make_inelastic_first(), options);
  EXPECT_TRUE(direct.solve_info.converged);
  EXPECT_EQ(direct.solve_info.iterations, 0);
  EXPECT_LT(direct.solve_info.residual, 1e-10);
}

TEST(Dispatch, MmkBaselineMatchesClosedForms) {
  const SystemParams p = SystemParams::from_load(4, 2.0, 1.0, 0.6);
  const RunPoint point{p, "IF", SolverKind::kMmkBaseline, {}};
  const RunResult result = dispatch_run(point);
  const MMk inelastic(p.lambda_i, p.mu_i, p.k);
  EXPECT_DOUBLE_EQ(result.mean_response_time_i,
                   inelastic.mean_response_time());
  const MMk elastic(p.lambda_e, p.k * p.mu_e, 1);
  EXPECT_DOUBLE_EQ(result.mean_response_time_e, elastic.mean_response_time());
}

TEST(Dispatch, RejectsInvalidCombinations) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  // The QBD analyses cover only IF and EF on the base model.
  EXPECT_THROW(
      dispatch_run(RunPoint{p, "FairShare", SolverKind::kQbdAnalysis, {}}),
      Error);
  SystemParams capped = p;
  capped.elastic_cap = 1;
  EXPECT_THROW(
      dispatch_run(RunPoint{capped, "EF", SolverKind::kQbdAnalysis, {}}),
      Error);
}

TEST(SweepRunner, CacheHitsWithinAndAcrossRuns) {
  Scenario s = small_scenario();
  s.solvers = {SolverKind::kQbdAnalysis};
  const auto base = s.expand();
  const std::size_t unique = base.size();
  // Duplicate every point: the duplicates must be served from cache.
  auto points = base;
  points.insert(points.end(), base.begin(), base.end());

  SweepRunner runner(2);
  SweepStats stats;
  const auto first = runner.run(points, &stats);
  EXPECT_EQ(stats.total_points, 2 * unique);
  EXPECT_EQ(stats.solved_points, unique);
  EXPECT_EQ(stats.cache_hits, unique);
  EXPECT_EQ(runner.memo_size(), unique);
  for (std::size_t n = 0; n < unique; ++n) {
    EXPECT_FALSE(first[n].from_cache);
    EXPECT_TRUE(first[n + unique].from_cache);
    EXPECT_TRUE(numerically_equal(first[n], first[n + unique]));
  }

  // A second run over the same points is all cache hits.
  SweepStats again;
  const auto second = runner.run(points, &again);
  EXPECT_EQ(again.solved_points, 0u);
  EXPECT_EQ(again.cache_hits, 2 * unique);
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_TRUE(second[n].from_cache);
    EXPECT_TRUE(numerically_equal(first[n], second[n]));
  }
}

TEST(SweepRunner, MultiThreadSweepIsBitIdenticalToSingleThread) {
  // Mix all four backends, including seeded simulation, and require the
  // 4-thread pool to reproduce the 1-thread results bit for bit.
  Scenario s = small_scenario();
  s.k_values = {2};
  s.mu_i_values = {0.5, 1.0, 2.0};
  s.solvers = {SolverKind::kQbdAnalysis, SolverKind::kExactCtmc,
               SolverKind::kSimulation, SolverKind::kMmkBaseline};
  s.options.imax = s.options.jmax = 30;
  s.options.sim_jobs = 4000;
  s.options.sim_warmup = 400;
  const auto points = s.expand();

  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto serial_results = serial.run(points);
  const auto parallel_results = parallel.run(points);
  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_TRUE(numerically_equal(serial_results[n], parallel_results[n]))
        << "point " << points[n].cache_key();
  }
}

TEST(SweepRunner, PropagatesSolverErrors) {
  SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  std::vector<RunPoint> points = {
      {p, "IF", SolverKind::kQbdAnalysis, {}},
      {p, "FairShare", SolverKind::kQbdAnalysis, {}},  // invalid combo
  };
  SweepRunner runner(2);
  EXPECT_THROW(runner.run(points), Error);
  // The valid point still landed in the cache.
  EXPECT_EQ(runner.memo_size(), 1u);
}

TEST(Dispatch, TraceDominanceReportsNoViolationsForFamily) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.6);
  RunPoint point{p, "FairShare", SolverKind::kTraceDominance, {}};
  point.options.trace_horizon = 200.0;  // short trace keeps the test fast
  const RunResult result = dispatch_run(point);
  // Theorem 3: IF never exceeds a class-P policy's work path (float noise
  // only), IF keeps less work on average, and checkpoints were compared.
  EXPECT_LT(result.dom_max_violation, 1e-6);
  EXPECT_LT(result.dom_max_violation_i, 1e-6);
  EXPECT_GE(result.dom_avg_gap, 0.0);
  EXPECT_GT(result.dom_checkpoints, 0);
  // Same trace, IF vs IF: identically zero.
  RunPoint self = point;
  self.policy = "IF";
  const RunResult same = dispatch_run(self);
  EXPECT_EQ(same.dom_max_violation, 0.0);
  EXPECT_EQ(same.dom_avg_gap, 0.0);
}

TEST(Dispatch, SimTailsFillPercentiles) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  RunPoint point{p, "IF", SolverKind::kSimulation, {}};
  point.options.sim_jobs = 4000;
  point.options.sim_warmup = 400;
  point.options.sim_tails = true;
  // Pin the seed: the derived per-point seed hashes the cache key, which
  // includes the tails flag, so the tails-on/off comparison below needs a
  // shared raw seed to run the same sample path.
  point.options.sim_raw_seed = true;
  point.options.base_seed = 7;
  const RunResult result = dispatch_run(point);
  EXPECT_GT(result.p50_i, 0.0);
  EXPECT_LE(result.p50_i, result.p95_i);
  EXPECT_LE(result.p95_i, result.p99_i);
  EXPECT_LE(result.p50_e, result.p99_e);
  // Tails off: percentiles stay zero but the means are unchanged (the
  // histograms are passive observers of the same sample path).
  RunPoint plain = point;
  plain.options.sim_tails = false;
  const RunResult bare = dispatch_run(plain);
  EXPECT_EQ(bare.p99_i, 0.0);
  EXPECT_EQ(bare.mean_response_time, result.mean_response_time);
}

TEST(Dispatch, RawSeedUsesBaseSeedDirectly) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  RunPoint a{p, "IF", SolverKind::kSimulation, {}};
  a.options.sim_jobs = 2000;
  a.options.sim_warmup = 200;
  a.options.sim_raw_seed = true;
  a.options.base_seed = 42;
  // Same raw seed, different policies: streams coincide by construction,
  // so results differ only through the policy. Flipping the seed flips
  // the sample path.
  RunPoint b = a;
  b.options.base_seed = 43;
  EXPECT_NE(dispatch_run(a).mean_response_time,
            dispatch_run(b).mean_response_time);
}

TEST(ExactBatch, MatchesUnbatchedSolveBitwise) {
  const SystemParams p = SystemParams::from_load(4, 2.0, 1.0, 0.8);
  ExactCtmcOptions options;
  options.imax = options.jmax = 30;
  ExactCtmcBatch batch(p, options);
  for (const auto& policy :
       {make_inelastic_first(), make_elastic_first(), make_fair_share(),
        make_inelastic_cap(2)}) {
    const ExactCtmcResult batched = batch.solve(*policy);
    const ExactCtmcResult direct = solve_exact_ctmc(p, *policy, options);
    EXPECT_EQ(batched.mean_response_time, direct.mean_response_time);
    EXPECT_EQ(batched.mean_jobs_i, direct.mean_jobs_i);
    EXPECT_EQ(batched.boundary_mass, direct.boundary_mass);
    EXPECT_EQ(batched.solve_info.iterations, direct.solve_info.iterations);
    EXPECT_EQ(batched.solve_info.residual, direct.solve_info.residual);
  }
}

TEST(SweepRunner, ExactPointsRunAsOwnJobsDeterministically) {
  // Five policies on one chain topology plus a phase-type point: every
  // exact point is its own job, so at 4 threads the family's policies
  // solve concurrently. Results must equal the 1-thread run and per-point
  // dispatch bitwise.
  Scenario s;
  s.name = "family";
  s.cases = {{4, 2.0, 1.0, 0.8, 0}};
  s.policies = {"IF", "EF", "FairShare", "Cap2", "IF+idle1"};
  s.solvers = {SolverKind::kExactCtmc};
  s.options.imax = s.options.jmax = 25;  // 676 states: past the GTH limit
  auto points = s.expand();
  RunPoint ph = points.front();
  ph.options.size_dist_i = SizeDistSpec::parse("erlang:3");
  ph.options.imax = ph.options.jmax = 12;
  points.push_back(ph);

  SweepRunner parallel(4);
  SweepStats stats;
  const auto results = parallel.run(points, &stats);
  EXPECT_EQ(stats.solved_points, points.size());
  EXPECT_EQ(stats.threads_used, 4);
  SweepRunner serial(1);
  const auto reference = serial.run(points);
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_TRUE(numerically_equal(results[n], reference[n]))
        << points[n].cache_key();
    EXPECT_TRUE(numerically_equal(results[n], dispatch_run(points[n])))
        << points[n].cache_key();
  }
}

TEST(SweepRunner, DiskCachePersistsAcrossRunners) {
  const std::string dir = testing::TempDir() + "esched_disk_cache_test";
  Scenario s = small_scenario();
  s.solvers = {SolverKind::kQbdAnalysis};
  const auto points = s.expand();

  SweepRunner first(2);
  first.set_cache_dir(dir);
  SweepStats cold;
  const auto solved = first.run(points, &cold);
  EXPECT_EQ(cold.solved_points, points.size());
  EXPECT_EQ(cold.disk_hits, 0u);

  // A fresh runner (fresh process, conceptually) hits only the disk.
  SweepRunner second(2);
  second.set_cache_dir(dir);
  SweepStats warm;
  const auto loaded = second.run(points, &warm);
  EXPECT_EQ(warm.solved_points, 0u);
  EXPECT_EQ(warm.disk_hits, points.size());
  EXPECT_EQ(warm.cache_hits, points.size());
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_TRUE(loaded[n].from_cache);
    EXPECT_TRUE(numerically_equal(solved[n], loaded[n]))
        << points[n].cache_key();
  }
  std::filesystem::remove_all(dir);
}

/// The sweep.* counters of the global registry, relative to a baseline
/// taken at construction.
class SweepCounters {
 public:
  SweepCounters() : before_(global_metrics().snapshot()) {}
  std::uint64_t delta(const std::string& name) const {
    const std::string full = "sweep." + name;
    return global_metrics().snapshot().counter_value(full) -
           before_.counter_value(full);
  }

 private:
  MetricsSnapshot before_;
};

/// Runs `points` and checks the row contract: on_row fires exactly once
/// per index with that index's point; indices in `fresh` arrive solved
/// now (from_cache false, real solve_seconds), every other index as a
/// cache-served copy (from_cache true, solve_seconds 0); and the returned
/// vector is exactly what on_row delivered.
std::vector<RunResult> run_checking_rows(SweepRunner& runner,
                                         const std::vector<RunPoint>& points,
                                         const std::set<std::size_t>& fresh,
                                         SweepStats* stats) {
  std::vector<int> calls(points.size(), 0);
  std::vector<RunResult> delivered(points.size());
  const auto results = runner.run(
      points, stats,
      [&](std::size_t n, const RunPoint& point, const RunResult& result) {
        ++calls.at(n);
        EXPECT_EQ(point.cache_key(), points[n].cache_key());
        delivered[n] = result;
      });
  EXPECT_EQ(results.size(), points.size());
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_EQ(calls[n], 1) << "index " << n;
    const bool is_fresh = fresh.count(n) != 0;
    EXPECT_EQ(delivered[n].from_cache, !is_fresh) << "index " << n;
    if (is_fresh) {
      EXPECT_GT(delivered[n].solve_seconds, 0.0) << "index " << n;
    } else {
      EXPECT_EQ(delivered[n].solve_seconds, 0.0) << "index " << n;
    }
    EXPECT_TRUE(numerically_equal(results[n], delivered[n])) << n;
    EXPECT_EQ(results[n].from_cache, delivered[n].from_cache) << n;
    EXPECT_EQ(results[n].solve_seconds, delivered[n].solve_seconds) << n;
  }
  return results;
}

TEST(SweepRunner, AccountsEveryPointOnceAtOneAndFourThreads) {
  const SystemParams k2 = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  const SystemParams k4 = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  const RunPoint a{k2, "IF", SolverKind::kQbdAnalysis, {}};
  const RunPoint b{k2, "EF", SolverKind::kQbdAnalysis, {}};
  const RunPoint c{k4, "IF", SolverKind::kQbdAnalysis, {}};
  const RunPoint d{k4, "EF", SolverKind::kQbdAnalysis, {}};
  const RunPoint e{SystemParams::from_load(2, 2.0, 1.0, 0.6), "IF",
                   SolverKind::kQbdAnalysis, {}};
  const RunPoint bad{k2, "FairShare", SolverKind::kQbdAnalysis, {}};
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir = testing::TempDir() + "esched_accounting_" +
                            std::to_string(threads);
    std::filesystem::remove_all(dir);

    // Fresh points plus two in-call duplicates of a fresh one.
    SweepRunner runner(threads);
    runner.set_cache_dir(dir);
    SweepStats stats;
    SweepCounters counters;
    const auto first =
        run_checking_rows(runner, {a, b, a, c, a}, {0, 1, 3}, &stats);
    EXPECT_EQ(stats.total_points, 5u);
    EXPECT_EQ(stats.solved_points, 3u);
    EXPECT_EQ(stats.cache_hits, 2u);
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_GT(stats.solve_seconds_total, 0.0);
    EXPECT_EQ(stats.solve_seconds_total, first[0].solve_seconds +
                                             first[1].solve_seconds +
                                             first[3].solve_seconds);
    EXPECT_TRUE(numerically_equal(first[2], first[0]));
    EXPECT_TRUE(numerically_equal(first[4], first[0]));
    EXPECT_EQ(counters.delta("points.total"), 5u);
    EXPECT_EQ(counters.delta("points.solved"), 3u);
    EXPECT_EQ(counters.delta("memo.hits"), 0u);
    EXPECT_EQ(counters.delta("disk.hits"), 0u);
    EXPECT_EQ(counters.delta("dup.points"), 2u);
    EXPECT_EQ(runner.memo_size(), 3u);

    // A prior-call memo hit repeated within the call (both memo hits: the
    // key is not a job), plus a fresh point and its duplicate.
    SweepCounters again;
    run_checking_rows(runner, {b, d, b, d}, {1}, &stats);
    EXPECT_EQ(stats.solved_points, 1u);
    EXPECT_EQ(stats.cache_hits, 3u);
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_EQ(again.delta("points.solved"), 1u);
    EXPECT_EQ(again.delta("memo.hits"), 2u);
    EXPECT_EQ(again.delta("disk.hits"), 0u);
    EXPECT_EQ(again.delta("dup.points"), 1u);
    EXPECT_EQ(runner.memo_size(), 4u);

    // A second runner on the same directory: table hits enter its memo,
    // so a repeat of a table hit is a memo hit.
    SweepRunner reader(threads);
    reader.set_cache_dir(dir);
    SweepCounters table;
    const auto loaded =
        run_checking_rows(reader, {a, e, a, b}, {1}, &stats);
    EXPECT_EQ(stats.solved_points, 1u);
    EXPECT_EQ(stats.cache_hits, 3u);
    EXPECT_EQ(stats.disk_hits, 2u);
    EXPECT_EQ(table.delta("points.solved"), 1u);
    EXPECT_EQ(table.delta("memo.hits"), 1u);
    EXPECT_EQ(table.delta("disk.hits"), 2u);
    EXPECT_EQ(table.delta("dup.points"), 0u);
    EXPECT_TRUE(numerically_equal(loaded[0], first[0]));
    EXPECT_TRUE(numerically_equal(loaded[3], first[1]));
    EXPECT_EQ(reader.memo_size(), 3u);

    // One failing point fails the run, but its successful solves stay
    // memoized: the rerun solves nothing and fails the same way.
    SweepRunner failing(threads);
    SweepCounters failed;
    EXPECT_THROW(failing.run({a, bad, c, a}), Error);
    EXPECT_EQ(failed.delta("points.solved"), 2u);
    EXPECT_EQ(failed.delta("points.failed"), 1u);
    EXPECT_EQ(failing.memo_size(), 2u);
    SweepCounters rerun;
    EXPECT_THROW(failing.run({a, bad, c, a}), Error);
    EXPECT_EQ(rerun.delta("points.solved"), 0u);
    EXPECT_EQ(rerun.delta("points.failed"), 1u);
    EXPECT_EQ(rerun.delta("memo.hits"), 3u);
    std::filesystem::remove_all(dir);
  }
}

TEST(Report, CsvAndJsonRoundTrip) {
  Scenario s = small_scenario();
  s.k_values = {2};
  s.rho_values = {0.5};
  s.solvers = {SolverKind::kQbdAnalysis};
  const auto points = s.expand();
  SweepRunner runner(1);
  SweepStats stats;
  const auto results = runner.run(points, &stats);

  const std::string csv_path = testing::TempDir() + "engine_report.csv";
  write_csv_report(csv_path, points, results);
  std::ifstream csv(csv_path);
  std::string line;
  std::getline(csv, line);
  EXPECT_NE(line.find("policy"), std::string::npos);
  std::size_t rows = 0;
  std::size_t summary_lines = 0;
  while (std::getline(csv, line)) {
    if (line.rfind("# ", 0) == 0) ++summary_lines;
    else ++rows;
  }
  EXPECT_EQ(rows, points.size());
  // Every CSV report ends in the deterministic summary trailer.
  EXPECT_EQ(summary_lines, 2u);
  std::remove(csv_path.c_str());

  const std::string json_path = testing::TempDir() + "engine_report.json";
  write_json_report(json_path, points, results, &stats);
  std::stringstream json;
  json << std::ifstream(json_path).rdbuf();
  EXPECT_NE(json.str().find("\"points\""), std::string::npos);
  EXPECT_NE(json.str().find("\"stats\""), std::string::npos);
  std::remove(json_path.c_str());

  std::ostringstream summary;
  print_sweep_summary(summary, points, results, stats, 2);
  EXPECT_NE(summary.str().find("more rows"), std::string::npos);
  EXPECT_NE(summary.str().find("cache hits"), std::string::npos);
}

}  // namespace
}  // namespace esched
