// Reference tests for the named report views: each view must render
// byte-identical output to the hand-rolled figure/study loop it replaced.
// Each test replays that loop (direct solver calls + printf/Table
// formatting, with the views' default labels) at a reduced scale and
// compares it against the engine + report-view pipeline character for
// character.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/numeric.hpp"
#include "common/table.hpp"
#include "core/ef_analysis.hpp"
#include "core/exact_ctmc.hpp"
#include "core/if_analysis.hpp"
#include "core/policies.hpp"
#include "engine/report.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/coupled.hpp"
#include "sim/trace.hpp"
#include "stats/accumulator.hpp"
#include "stats/histogram.hpp"

namespace esched {
namespace {

/// snprintf into a std::string (the pre-port benches printed via printf).
template <typename... Args>
std::string strprintf(const char* fmt, Args... args) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

std::string render_view(const std::string& view, const Scenario& scenario) {
  const auto points = scenario.expand();
  SweepRunner runner(2);
  SweepStats stats;
  const auto results = runner.run(points, &stats);
  std::ostringstream out;
  print_view(view, out, scenario, points, results, stats);
  return out.str();
}

TEST(BenchPorts, VsMuViewMatchesHandRolledFig5Loop) {
  Scenario s;
  s.name = "fig5-small";
  s.k_values = {4};
  s.rho_values = {0.5, 0.7};
  s.mu_i_values = {0.5, 1.0, 2.0};
  s.mu_e_values = {1.0};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis};

  // Pre-port bench body (bench/fig5_response_time.cpp before the port).
  std::ostringstream expected;
  for (const double rho : s.rho_values) {
    Table table({"mu_I", "E[T] IF", "E[T] EF", "winner"});
    for (const double mu_i : s.mu_i_values) {
      const SystemParams p = SystemParams::from_load(4, mu_i, 1.0, rho);
      const double et_if = analyze_inelastic_first(p).mean_response_time;
      const double et_ef = analyze_elastic_first(p).mean_response_time;
      table.add_row({format_double(mu_i), format_double(et_if),
                     format_double(et_ef), et_if <= et_ef ? "IF" : "EF"});
    }
    expected << strprintf("\n--- rho = %.1f ---\n", rho);
    table.print(expected);
  }

  EXPECT_EQ(render_view("vs-mu", s), expected.str());
}

TEST(BenchPorts, HeatmapViewMatchesHandRolledFig4Loop) {
  Scenario s;
  s.name = "fig4-small";
  s.k_values = {4};
  s.rho_values = {0.7};
  s.mu_i_values = {0.5, 1.0, 2.0};
  s.mu_e_values = {0.5, 1.0, 2.0};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis};

  // Pre-port bench body (bench/fig4_heatmap.cpp before the port).
  std::ostringstream expected;
  const auto& grid = s.mu_i_values;
  for (const double rho : s.rho_values) {
    expected << strprintf(
        "\nrho = %.1f, k = %d (rows mu_E top-down, cols mu_I "
        "left-right; I = IF wins, E = EF wins)\n",
        rho, 4);
    expected << strprintf("%7s", "mu_E\\I");
    for (const double mu_i : grid) expected << strprintf("%5.2f", mu_i);
    expected << "\n";
    int if_wins = 0;
    int ef_wins = 0;
    int if_wins_upper = 0;
    int points_upper = 0;
    for (std::size_t b = grid.size(); b-- > 0;) {
      const double mu_e = grid[b];
      expected << strprintf("%6.2f ", mu_e);
      for (std::size_t a = 0; a < grid.size(); ++a) {
        const double mu_i = grid[a];
        const SystemParams p = SystemParams::from_load(4, mu_i, mu_e, rho);
        const double et_if = analyze_inelastic_first(p).mean_response_time;
        const double et_ef = analyze_elastic_first(p).mean_response_time;
        const bool if_better = et_if <= et_ef;
        (if_better ? if_wins : ef_wins)++;
        if (mu_i >= mu_e - 1e-9) {
          ++points_upper;
          if (if_better) ++if_wins_upper;
        }
        expected << strprintf("%5c", if_better ? 'I' : 'E');
      }
      expected << "\n";
    }
    expected << strprintf(
        "summary: IF wins %d points, EF wins %d points; "
        "IF wins %d/%d points with mu_I >= mu_E (paper: all)\n",
        if_wins, ef_wins, if_wins_upper, points_upper);
  }

  EXPECT_EQ(render_view("heatmap", s), expected.str());
}

TEST(BenchPorts, VsKViewMatchesHandRolledFig6Loop) {
  Scenario s;
  s.name = "fig6-small";
  s.k_values = {2, 3, 4};
  s.rho_values = {0.8};
  s.mu_i_values = {0.5, 2.0};
  s.mu_e_values = {1.0};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis};

  // Pre-port bench body (bench/fig6_vs_k.cpp before the port).
  const char* labels[] = {"mu_I = 0.5, mu_E = 1", "mu_I = 2, mu_E = 1"};
  std::ostringstream expected;
  for (std::size_t panel = 0; panel < s.mu_i_values.size(); ++panel) {
    Table table({"k", "E[T] IF", "E[T] EF", "gap EF-IF"});
    for (const int k : s.k_values) {
      const SystemParams p =
          SystemParams::from_load(k, s.mu_i_values[panel], 1.0, 0.8);
      const double et_if = analyze_inelastic_first(p).mean_response_time;
      const double et_ef = analyze_elastic_first(p).mean_response_time;
      table.add_row({std::to_string(k), format_double(et_if),
                     format_double(et_ef), format_double(et_ef - et_if)});
    }
    expected << strprintf("\n--- %s ---\n", labels[panel]);
    table.print(expected);
  }

  EXPECT_EQ(render_view("vs-k", s), expected.str());
}

TEST(BenchPorts, FamilyViewMatchesHandRolledOptimalityLoop) {
  Scenario s;
  s.name = "optimality-small";
  s.cases = {{4, 2.0, 1.0, 0.5, 0}, {4, 0.25, 1.0, 0.6, 0}};
  s.policies = {"IF", "EF", "FairShare", "Cap2", "IF+idle1"};
  s.solvers = {SolverKind::kExactCtmc};
  s.options.imax = s.options.jmax = 20;  // small truncation for speed

  // Pre-port bench body (bench/optimality_sweep.cpp before the port).
  std::ostringstream expected;
  Table table({"mu_I", "mu_E", "rho", "E[T] IF", "E[T] EF", "E[T] FairShare",
               "E[T] Cap2", "E[T] IF+idle1", "best", "IF optimal?"});
  std::vector<std::pair<PolicyPtr, const char*>> family;
  family.emplace_back(make_inelastic_first(), "IF");
  family.emplace_back(make_elastic_first(), "EF");
  family.emplace_back(make_fair_share(), "FairShare");
  family.emplace_back(make_inelastic_cap(2), "Cap2");
  family.emplace_back(make_idling(make_inelastic_first(), 1.0), "IF+idle1");
  int theorem5_checks = 0;
  int theorem5_holds = 0;
  for (const CaseSpec& setting : s.cases) {
    const SystemParams p =
        SystemParams::from_load(setting.k, setting.mu_i, setting.mu_e,
                                setting.rho);
    ExactCtmcOptions opt;
    opt.imax = opt.jmax = 20;
    std::vector<double> et;
    for (const auto& [policy, name] : family) {
      et.push_back(solve_exact_ctmc(p, *policy, opt).mean_response_time);
    }
    std::size_t best = 0;
    for (std::size_t n = 1; n < et.size(); ++n) {
      if (et[n] < et[best]) best = n;
    }
    const bool diagonal_or_above = setting.mu_i >= setting.mu_e;
    const bool if_optimal = et[0] <= et[best] * (1.0 + 1e-9);
    if (diagonal_or_above) {
      ++theorem5_checks;
      if (if_optimal) ++theorem5_holds;
    }
    table.add_row({format_double(setting.mu_i), format_double(setting.mu_e),
                   format_double(setting.rho), format_double(et[0]),
                   format_double(et[1]), format_double(et[2]),
                   format_double(et[3]), format_double(et[4]),
                   family[best].second, if_optimal ? "yes" : "no"});
  }
  table.print(expected);
  expected << strprintf(
      "\nTheorem 5 (mu_I >= mu_E => IF optimal in family): %d/%d "
      "settings hold.\n",
      theorem5_holds, theorem5_checks);

  EXPECT_EQ(render_view("family", s), expected.str());
}

TEST(BenchPorts, AccuracyViewMatchesHandRolledLoop) {
  Scenario s;
  s.name = "accuracy-small";
  s.cases = {{4, 1.0, 1.0, 0.5, 0}, {2, 2.0, 1.0, 0.6, 0}};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis, SolverKind::kExactCtmc,
               SolverKind::kSimulation};
  s.options.truncation_epsilon = 1e-9;
  s.options.sim_jobs = 3000;
  s.options.sim_warmup = 300;
  s.options.base_seed = 99;
  s.options.sim_raw_seed = true;

  // Pre-port bench body (bench/analysis_accuracy.cpp before the port).
  std::ostringstream expected;
  Table table({"k", "mu_I", "mu_E", "rho", "policy", "QBD E[T]",
               "exact E[T]", "sim E[T]", "err vs exact", "err vs sim"});
  double worst_exact_err = 0.0;
  for (const CaseSpec& setting : s.cases) {
    const SystemParams p = SystemParams::from_load(
        setting.k, setting.mu_i, setting.mu_e, setting.rho);
    ExactCtmcOptions opt;
    opt.imax = opt.jmax = suggested_truncation(p.rho(), 1e-9);
    SimOptions sopt;
    sopt.num_jobs = 3000;
    sopt.warmup_jobs = 300;
    sopt.seed = 99;
    const struct {
      const char* name;
      double qbd;
      double exact;
      double sim;
    } rows[] = {
        {"IF", analyze_inelastic_first(p).mean_response_time,
         solve_exact_ctmc(p, InelasticFirst{}, opt).mean_response_time,
         simulate(p, InelasticFirst{}, sopt).mean_response_time.mean},
        {"EF", analyze_elastic_first(p).mean_response_time,
         solve_exact_ctmc(p, ElasticFirst{}, opt).mean_response_time,
         simulate(p, ElasticFirst{}, sopt).mean_response_time.mean},
    };
    for (const auto& row : rows) {
      const double err_exact = relative_error(row.qbd, row.exact);
      const double err_sim = relative_error(row.qbd, row.sim);
      worst_exact_err = std::max(worst_exact_err, err_exact);
      table.add_row({std::to_string(setting.k), format_double(setting.mu_i),
                     format_double(setting.mu_e), format_double(setting.rho),
                     row.name, format_double(row.qbd),
                     format_double(row.exact), format_double(row.sim),
                     format_double(100.0 * err_exact, 3) + "%",
                     format_double(100.0 * err_sim, 3) + "%"});
    }
  }
  table.print(expected);
  expected << strprintf(
      "\nworst QBD-vs-exact error: %.3f%% (paper: <1%%; errors vs "
      "simulation include Monte Carlo noise)\n",
      100.0 * worst_exact_err);

  EXPECT_EQ(render_view("accuracy", s), expected.str());
}

TEST(BenchPorts, TailViewMatchesHandRolledLoop) {
  Scenario s;
  s.name = "tail-small";
  s.cases = {{4, 2.0, 1.0, 0.6, 0}};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kSimulation};
  s.options.sim_jobs = 3000;
  s.options.sim_warmup = 300;
  s.options.base_seed = 1234;
  s.options.sim_raw_seed = true;
  s.options.sim_tails = true;

  // Pre-port bench body (bench/tail_latency.cpp before the port).
  std::ostringstream expected;
  Table table({"mu_I", "rho", "policy", "mean E[T]", "inel P50", "inel P99",
               "el P50", "el P99"});
  const CaseSpec& setting = s.cases.front();
  const SystemParams p = SystemParams::from_load(
      setting.k, setting.mu_i, setting.mu_e, setting.rho);
  for (const auto& policy : {make_inelastic_first(), make_elastic_first()}) {
    Histogram hist_i(0.0, 400.0 / setting.mu_i, 20000);
    Histogram hist_e(0.0, 400.0 / setting.mu_e, 20000);
    SimOptions opt;
    opt.num_jobs = 3000;
    opt.warmup_jobs = 300;
    opt.seed = 1234;
    opt.response_hist_i = &hist_i;
    opt.response_hist_e = &hist_e;
    const SimResult r = simulate(p, *policy, opt);
    table.add_row({format_double(setting.mu_i), format_double(setting.rho),
                   policy->name(),
                   format_double(r.mean_response_time.mean, 4),
                   format_double(hist_i.quantile(0.5), 4),
                   format_double(hist_i.quantile(0.99), 4),
                   format_double(hist_e.quantile(0.5), 4),
                   format_double(hist_e.quantile(0.99), 4)});
  }
  table.print(expected);

  EXPECT_EQ(render_view("tail", s), expected.str());
}

TEST(BenchPorts, TruncationViewMatchesHandRolledLoop) {
  Scenario s;
  s.name = "truncation-small";
  s.cases = {{4, 1.0, 1.0, 0.5, 0}};
  s.trunc_values = {10, 20, 40};
  s.policies = {"IF"};
  s.solvers = {SolverKind::kExactCtmc, SolverKind::kQbdAnalysis};

  const auto points = s.expand();
  SweepRunner runner(2);
  SweepStats stats;
  const auto results = runner.run(points, &stats);
  std::ostringstream rendered;
  print_view("truncation", rendered, s, points, results, stats);

  // Pre-port bench body (bench/ablation_truncation.cpp before the port).
  // The "solve ms" cell is wall time and inherently run-to-run volatile —
  // even the pre-port binary never reproduced it — so the expected table
  // takes that one cell from the engine result and every numeric cell
  // from direct solves.
  const double rho = 0.5;
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, rho);
  ExactCtmcOptions deep;
  deep.imax = deep.jmax = 40;
  const double reference =
      solve_exact_ctmc(p, InelasticFirst{}, deep).mean_response_time;
  const double qbd = analyze_inelastic_first(p).mean_response_time;
  std::ostringstream expected;
  Table table({"truncation", "states", "E[T]", "rel err", "boundary mass",
               "solve ms"});
  for (std::size_t t = 0; t < 2; ++t) {
    ExactCtmcOptions opt;
    opt.imax = opt.jmax = s.trunc_values[t];
    const ExactCtmcResult r = solve_exact_ctmc(p, InelasticFirst{}, opt);
    const double engine_ms = results[t * 2].solve_seconds * 1000.0;
    table.add_row({std::to_string(s.trunc_values[t]),
                   std::to_string(r.num_states),
                   format_double(r.mean_response_time),
                   format_double(
                       relative_error(r.mean_response_time, reference), 3),
                   format_double(r.boundary_mass, 3),
                   format_double(engine_ms, 4)});
  }
  expected << strprintf(
      "\n--- rho = %.1f (reference E[T] = %.6f at truncation %ld; "
      "suggested_truncation = %ld; QBD analysis = %.6f, err "
      "%.4f%%, ~0.1 ms) ---\n",
      rho, reference, 40L, suggested_truncation(rho, 1e-10), qbd,
      100.0 * relative_error(qbd, reference));
  table.print(expected);

  EXPECT_EQ(rendered.str(), expected.str());
}

TEST(BenchPorts, FitOrderViewMatchesHandRolledCoxianLoop) {
  Scenario s;
  s.name = "coxian-small";
  s.cases = {{4, 1.0, 1.0, 0.5, 0}, {2, 2.0, 1.0, 0.6, 0}};
  s.fit_orders = {1, 2, 3};
  s.policies = {"EF", "IF"};
  s.solvers = {SolverKind::kQbdAnalysis, SolverKind::kExactCtmc};
  s.options.truncation_epsilon = 1e-9;

  // Pre-port bench body (bench/ablation_coxian.cpp before the port).
  std::ostringstream expected;
  Table table({"k", "mu_I", "mu_E", "rho", "policy", "err 1-moment",
               "err 2-moment", "err 3-moment"});
  Accumulator err1_acc, err2_acc, err3_acc;
  for (const CaseSpec& setting : s.cases) {
    const SystemParams p = SystemParams::from_load(
        setting.k, setting.mu_i, setting.mu_e, setting.rho);
    ExactCtmcOptions opt;
    opt.imax = opt.jmax = suggested_truncation(p.rho(), 1e-9);
    const struct {
      const char* name;
      double exact;
      double v1, v2, v3;
    } rows[] = {
        {"EF", solve_exact_ctmc(p, ElasticFirst{}, opt).mean_response_time,
         analyze_elastic_first(p, BusyFitOrder::kOneMoment)
             .mean_response_time,
         analyze_elastic_first(p, BusyFitOrder::kTwoMoment)
             .mean_response_time,
         analyze_elastic_first(p, BusyFitOrder::kThreeMoment)
             .mean_response_time},
        {"IF", solve_exact_ctmc(p, InelasticFirst{}, opt).mean_response_time,
         analyze_inelastic_first(p, BusyFitOrder::kOneMoment)
             .mean_response_time,
         analyze_inelastic_first(p, BusyFitOrder::kTwoMoment)
             .mean_response_time,
         analyze_inelastic_first(p, BusyFitOrder::kThreeMoment)
             .mean_response_time},
    };
    for (const auto& row : rows) {
      const double e1 = relative_error(row.v1, row.exact);
      const double e2 = relative_error(row.v2, row.exact);
      const double e3 = relative_error(row.v3, row.exact);
      err1_acc.add(e1);
      err2_acc.add(e2);
      err3_acc.add(e3);
      table.add_row({std::to_string(setting.k), format_double(setting.mu_i),
                     format_double(setting.mu_e), format_double(setting.rho),
                     row.name, format_double(100.0 * e1, 3) + "%",
                     format_double(100.0 * e2, 3) + "%",
                     format_double(100.0 * e3, 3) + "%"});
    }
  }
  table.print(expected);
  expected << strprintf(
      "\nmean error: 1-moment %.3f%%, 2-moment %.3f%%, 3-moment "
      "%.4f%% — each extra busy-period moment buys roughly an "
      "order of magnitude, which is why §5.2 matches three.\n",
      100.0 * err1_acc.mean(), 100.0 * err2_acc.mean(),
      100.0 * err3_acc.mean());

  EXPECT_EQ(render_view("fit-order", s), expected.str());
}

TEST(BenchPorts, DominanceViewMatchesHandRolledThm3Loop) {
  Scenario s;
  s.name = "dominance-small";
  s.cases = {{4, 1.0, 1.0, 0.6, 0}};
  s.policies = {"EF", "Cap1"};
  s.solvers = {SolverKind::kTraceDominance};
  s.options.trace_horizon = 200.0;
  s.options.trace_seed = 2026;

  // Pre-port bench body (bench/dominance_thm3.cpp before the port).
  std::ostringstream expected;
  Table table({"mu_I", "mu_E", "rho", "policy", "max W viol", "max W_I viol",
               "avg W gap", "checkpoints"});
  double worst_violation = 0.0;
  const CaseSpec& setting = s.cases.front();
  const SystemParams p = SystemParams::from_load(
      setting.k, setting.mu_i, setting.mu_e, setting.rho);
  const Trace trace = generate_trace(p, 200.0, 2026);
  const WorkPath if_path = run_on_trace(trace, p, InelasticFirst{});
  const std::vector<PolicyPtr> family = {make_elastic_first(),
                                         make_inelastic_cap(1)};
  for (const auto& policy : family) {
    const WorkPath other = run_on_trace(trace, p, *policy);
    const DominanceReport report = check_dominance(if_path, other);
    double gap = 0.0;
    const int samples = 4000;
    for (int n = 0; n < samples; ++n) {
      const double t = 200.0 * (n + 0.5) / samples;
      gap += other.total_work_at(t) - if_path.total_work_at(t);
    }
    gap /= samples;
    worst_violation = std::max({worst_violation, report.max_total_violation,
                                report.max_inelastic_violation});
    table.add_row({format_double(setting.mu_i), format_double(setting.mu_e),
                   format_double(setting.rho), policy->name(),
                   format_double(report.max_total_violation, 3),
                   format_double(report.max_inelastic_violation, 3),
                   format_double(gap),
                   std::to_string(report.num_checkpoints)});
  }
  table.print(expected);
  expected << strprintf(
      "\nworst pointwise violation over all runs: %.3g "
      "(theory: exactly 0; float error only)\n",
      worst_violation);
  expected << "avg W gap >= 0 everywhere: IF keeps the least work in "
              "system, as Theorem 3 proves.\n";

  EXPECT_EQ(render_view("dominance", s), expected.str());
}

}  // namespace
}  // namespace esched
