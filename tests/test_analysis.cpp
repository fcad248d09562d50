// Tests for the §5 / Appendix D response-time analyses: the busy-period
// transformation + QBD pipeline must agree with the exact truncated 2-D
// chain to within the paper's stated ~1% accuracy, and must reduce to
// closed forms in the degenerate cases.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "core/ef_analysis.hpp"
#include "core/exact_ctmc.hpp"
#include "core/if_analysis.hpp"
#include "core/policies.hpp"
#include "phase/phase_type.hpp"
#include "queueing/mm1.hpp"
#include "queueing/mmk.hpp"

namespace esched {
namespace {

ExactCtmcOptions tight_truncation(const SystemParams& p) {
  ExactCtmcOptions opt;
  const long level = suggested_truncation(p.rho(), 1e-9);
  opt.imax = level;
  opt.jmax = level;
  return opt;
}

TEST(EfAnalysis, ElasticClassIsExactMM1) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const ResponseTimeAnalysis a = analyze_elastic_first(p);
  const MM1 ref(p.lambda_e, 4.0 * p.mu_e);
  EXPECT_NEAR(a.mean_response_time_e, ref.mean_response_time(), 1e-12);
  EXPECT_NEAR(a.mean_jobs_e, ref.mean_jobs(), 1e-12);
}

TEST(IfAnalysis, InelasticClassIsExactMMk) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const ResponseTimeAnalysis a = analyze_inelastic_first(p);
  const MMk ref(p.lambda_i, p.mu_i, p.k);
  EXPECT_NEAR(a.mean_response_time_i, ref.mean_response_time(), 1e-12);
  EXPECT_NEAR(a.mean_jobs_i, ref.mean_jobs(), 1e-12);
}

TEST(EfAnalysis, MatchesExactChainAcrossLoads) {
  for (double rho : {0.3, 0.5, 0.7, 0.9}) {
    const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, rho);
    const ResponseTimeAnalysis approx = analyze_elastic_first(p);
    const ExactCtmcResult exact =
        solve_exact_ctmc(p, ElasticFirst{}, tight_truncation(p));
    EXPECT_LT(relative_error(approx.mean_response_time,
                             exact.mean_response_time),
              0.015)
        << "rho=" << rho;
  }
}

TEST(IfAnalysis, MatchesExactChainAcrossLoads) {
  for (double rho : {0.3, 0.5, 0.7, 0.9}) {
    const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, rho);
    const ResponseTimeAnalysis approx = analyze_inelastic_first(p);
    const ExactCtmcResult exact =
        solve_exact_ctmc(p, InelasticFirst{}, tight_truncation(p));
    EXPECT_LT(relative_error(approx.mean_response_time,
                             exact.mean_response_time),
              0.015)
        << "rho=" << rho;
  }
}

// Parameterized accuracy sweep over the paper's Figure 4/5 parameter space.
struct AccuracyCase {
  int k;
  double mu_i;
  double mu_e;
  double rho;
};

class AnalysisAccuracy : public testing::TestWithParam<AccuracyCase> {};

TEST_P(AnalysisAccuracy, EfWithinOnePercentOfExact) {
  const AccuracyCase& c = GetParam();
  const SystemParams p = SystemParams::from_load(c.k, c.mu_i, c.mu_e, c.rho);
  const ResponseTimeAnalysis approx = analyze_elastic_first(p);
  const ExactCtmcResult exact =
      solve_exact_ctmc(p, ElasticFirst{}, tight_truncation(p));
  EXPECT_LT(
      relative_error(approx.mean_response_time, exact.mean_response_time),
      0.012)
      << "k=" << c.k << " mu_i=" << c.mu_i << " mu_e=" << c.mu_e
      << " rho=" << c.rho;
}

TEST_P(AnalysisAccuracy, IfWithinOnePercentOfExact) {
  const AccuracyCase& c = GetParam();
  const SystemParams p = SystemParams::from_load(c.k, c.mu_i, c.mu_e, c.rho);
  const ResponseTimeAnalysis approx = analyze_inelastic_first(p);
  const ExactCtmcResult exact =
      solve_exact_ctmc(p, InelasticFirst{}, tight_truncation(p));
  EXPECT_LT(
      relative_error(approx.mean_response_time, exact.mean_response_time),
      0.012)
      << "k=" << c.k << " mu_i=" << c.mu_i << " mu_e=" << c.mu_e
      << " rho=" << c.rho;
}

INSTANTIATE_TEST_SUITE_P(
    Fig45Grid, AnalysisAccuracy,
    testing::Values(AccuracyCase{4, 0.25, 1.0, 0.5},
                    AccuracyCase{4, 0.25, 1.0, 0.9},
                    AccuracyCase{4, 3.25, 1.0, 0.5},
                    AccuracyCase{4, 3.25, 1.0, 0.9},
                    AccuracyCase{4, 1.0, 2.0, 0.7},
                    AccuracyCase{4, 2.0, 0.5, 0.7},
                    AccuracyCase{2, 0.5, 1.0, 0.7},
                    AccuracyCase{8, 1.5, 1.0, 0.7},
                    AccuracyCase{16, 1.0, 1.0, 0.9}));

TEST(Analysis, SingleServerDegenerateCase) {
  // k = 1: both classes are just priority classes on one server; the
  // analyses must still run and match the exact chain.
  const SystemParams p = SystemParams::from_load(1, 1.5, 1.0, 0.6);
  const ResponseTimeAnalysis ef = analyze_elastic_first(p);
  const ResponseTimeAnalysis ifa = analyze_inelastic_first(p);
  const ExactCtmcResult exact_ef =
      solve_exact_ctmc(p, ElasticFirst{}, tight_truncation(p));
  const ExactCtmcResult exact_if =
      solve_exact_ctmc(p, InelasticFirst{}, tight_truncation(p));
  EXPECT_LT(
      relative_error(ef.mean_response_time, exact_ef.mean_response_time),
      0.012);
  EXPECT_LT(
      relative_error(ifa.mean_response_time, exact_if.mean_response_time),
      0.012);
}

TEST(Analysis, UnstableSystemThrows) {
  SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.99);
  p.lambda_i *= 1.2;  // push rho past 1
  ASSERT_GE(p.rho(), 1.0);
  EXPECT_THROW(analyze_elastic_first(p), Error);
  EXPECT_THROW(analyze_inelastic_first(p), Error);
}

TEST(Analysis, ResponseTimeGrowsWithLoad) {
  double prev_ef = 0.0;
  double prev_if = 0.0;
  for (double rho : {0.2, 0.4, 0.6, 0.8, 0.9, 0.95}) {
    const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, rho);
    const double ef = analyze_elastic_first(p).mean_response_time;
    const double ifa = analyze_inelastic_first(p).mean_response_time;
    EXPECT_GT(ef, prev_ef);
    EXPECT_GT(ifa, prev_if);
    prev_ef = ef;
    prev_if = ifa;
  }
}

TEST(Analysis, LittlesLawInternalConsistency) {
  const SystemParams p = SystemParams::from_load(4, 2.0, 1.0, 0.8);
  const ResponseTimeAnalysis ef = analyze_elastic_first(p);
  EXPECT_NEAR(ef.mean_response_time,
              (ef.mean_jobs_i + ef.mean_jobs_e) / (p.lambda_i + p.lambda_e),
              1e-12);
  const ResponseTimeAnalysis ifa = analyze_inelastic_first(p);
  EXPECT_NEAR(ifa.mean_response_time,
              (ifa.mean_jobs_i + ifa.mean_jobs_e) / (p.lambda_i + p.lambda_e),
              1e-12);
}

TEST(ExactCtmc, TruncationMassIsSmall) {
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const ExactCtmcResult r =
      solve_exact_ctmc(p, InelasticFirst{}, tight_truncation(p));
  EXPECT_LT(r.boundary_mass, 1e-6);
}

TEST(ExactCtmc, SuggestedTruncationScalesWithLoad) {
  EXPECT_LT(suggested_truncation(0.3), suggested_truncation(0.9));
  EXPECT_GE(suggested_truncation(0.0), 16);
  EXPECT_LE(suggested_truncation(0.999999), 400);
  EXPECT_THROW(suggested_truncation(1.5), Error);
}

TEST(ExactCtmc, AllStationaryMethodsAgree) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  ExactCtmcOptions base;
  base.imax = 20;
  base.jmax = 20;  // 441 states
  ExactCtmcResult by_method[3];
  const StationaryMethod methods[] = {StationaryMethod::kGth,
                                      StationaryMethod::kSor,
                                      StationaryMethod::kBlock};
  for (int m = 0; m < 3; ++m) {
    ExactCtmcOptions options = base;
    options.method = methods[m];
    by_method[m] = solve_exact_ctmc(p, InelasticFirst{}, options);
    EXPECT_EQ(by_method[m].solve_info.method,
              stationary_method_name(methods[m]));
  }
  // The two direct solvers agree to near machine precision; SOR to its
  // convergence tolerance.
  EXPECT_NEAR(by_method[0].mean_response_time,
              by_method[2].mean_response_time, 1e-10);
  EXPECT_NEAR(by_method[0].mean_jobs_i, by_method[2].mean_jobs_i, 1e-10);
  EXPECT_NEAR(by_method[0].mean_response_time,
              by_method[1].mean_response_time, 1e-7);
}

TEST(ExactCtmc, AutoSelectsGthSmallAndBlockLarge) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  ExactCtmcOptions small;
  small.imax = 10;
  small.jmax = 10;  // 121 states <= gth_state_limit
  EXPECT_EQ(solve_exact_ctmc(p, InelasticFirst{}, small).solve_info.method,
            "gth");
  ExactCtmcOptions large;
  large.imax = 30;
  large.jmax = 30;  // 961 states > gth_state_limit -> block
  EXPECT_EQ(solve_exact_ctmc(p, InelasticFirst{}, large).solve_info.method,
            "block");
}

TEST(ExactCtmc, AutoPicksByPredictedCost) {
  // Structural, no timing: auto's choice is a pure function of the chain.
  // Erlang-3 chains have dense blocks (nearly every state receives a
  // down-transition), so elimination costs more than SOR's few hundred
  // sweeps over few levels. The rho = 0.9 exponential chains have sparse
  // blocks but many levels, so SOR needs thousands of sweeps and block
  // wins.
  const auto expect_choice = [](const ExactCtmcResult& r,
                                std::size_t states, const char* method) {
    EXPECT_EQ(r.num_states, states);
    EXPECT_EQ(r.solve_info.method, method) << states << " states";
    EXPECT_GT(r.prediction.block_seconds, 0.0);
    EXPECT_GT(r.prediction.sor_seconds, 0.0);
    const bool block_cheaper =
        r.prediction.block_seconds <= r.prediction.sor_seconds;
    EXPECT_EQ(block_cheaper, std::string(method) == "block");
  };
  ExactCtmcOptions trunc20;
  trunc20.imax = trunc20.jmax = 20;
  const SystemParams k4 = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const PhaseType erl3 = PhaseType::erlang(3, 3.0 * k4.mu_i);
  expect_choice(solve_exact_ctmc_ph(k4, InelasticFirst{}, erl3, trunc20),
                5775, "sor");
  expect_choice(solve_exact_ctmc_ph(k4, ElasticFirst{}, erl3, trunc20),
                12875, "sor");
  ExactCtmcOptions trunc14;
  trunc14.imax = trunc14.jmax = 14;
  const SystemParams k8 = SystemParams::from_load(8, 1.0, 1.0, 0.7);
  expect_choice(solve_exact_ctmc_ph(k8, InelasticFirst{}, erl3, trunc14),
                6525, "sor");
  const SystemParams heavy = SystemParams::from_load(4, 1.0, 1.0, 0.9);
  for (const auto& [epsilon, states] :
       {std::pair{1e-4, std::size_t{7921}}, std::pair{1e-9, std::size_t{39204}}}) {
    ExactCtmcOptions options;
    options.imax = options.jmax = suggested_truncation(0.9, epsilon);
    expect_choice(solve_exact_ctmc(heavy, InelasticFirst{}, options), states,
                  "block");
  }
}

TEST(ExactCtmc, ExplicitGthRejectsChainOverDenseLimit) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.5);
  ExactCtmcOptions options;
  options.imax = 100;
  options.jmax = 100;  // 10201 states > the 5000-state dense limit
  options.method = StationaryMethod::kGth;
  EXPECT_THROW(solve_exact_ctmc(p, InelasticFirst{}, options), Error);
}

TEST(ExactCtmc, PhaseTypeBlockAgreesWithSor) {
  const SystemParams p = SystemParams::from_load(2, 1.0, 1.0, 0.6);
  const PhaseType erl2 = PhaseType::erlang(2, 2.0 * p.mu_i);
  ExactCtmcOptions block;
  block.imax = 12;
  block.jmax = 12;
  block.method = StationaryMethod::kBlock;
  ExactCtmcOptions sor = block;
  sor.method = StationaryMethod::kSor;
  const ExactCtmcResult a = solve_exact_ctmc_ph(p, ElasticFirst{}, erl2, block);
  const ExactCtmcResult b = solve_exact_ctmc_ph(p, ElasticFirst{}, erl2, sor);
  EXPECT_EQ(a.solve_info.method, "block");
  EXPECT_EQ(b.solve_info.method, "sor");
  EXPECT_EQ(a.num_states, b.num_states);
  EXPECT_NEAR(a.mean_response_time, b.mean_response_time, 1e-7);
  EXPECT_NEAR(a.mean_jobs_i, b.mean_jobs_i, 1e-7);
}

}  // namespace
}  // namespace esched
