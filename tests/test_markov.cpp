// Unit tests for the CTMC toolkit: stationary solvers cross-checked
// against closed forms and each other, absorbing-chain rewards, and the
// birth-death first-passage recursion validated against the M/M/1
// busy-period closed forms it is meant to certify.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string>

#include "common/error.hpp"
#include "core/exact_ctmc.hpp"
#include "core/policies.hpp"
#include "linalg/matrix.hpp"
#include "markov/absorbing.hpp"
#include "markov/birth_death.hpp"
#include "markov/block_solver.hpp"
#include "markov/ctmc.hpp"
#include "markov/stationary.hpp"
#include "phase/size_dist.hpp"

namespace esched {
namespace {

/// Truncated M/M/1 chain: states 0..n-1, birth lambda, death mu.
SparseCtmc mm1_chain(std::size_t n, double lambda, double mu) {
  SparseCtmc chain(n);
  for (std::size_t s = 0; s + 1 < n; ++s) {
    chain.add_rate(s, s + 1, lambda);
    chain.add_rate(s + 1, s, mu);
  }
  chain.freeze();
  return chain;
}

TEST(SparseCtmc, BasicAccounting) {
  SparseCtmc chain(3);
  chain.add_rate(0, 1, 2.0);
  chain.add_rate(0, 1, 1.0);  // duplicates accumulate
  chain.add_rate(1, 2, 4.0);
  chain.add_rate(2, 0, 5.0);
  chain.freeze();
  EXPECT_DOUBLE_EQ(chain.exit_rate(0), 3.0);
  EXPECT_DOUBLE_EQ(chain.max_exit_rate(), 5.0);
  ASSERT_EQ(chain.transitions_from(0).size(), 1u);  // merged
  EXPECT_DOUBLE_EQ(chain.transitions_from(0)[0].rate, 3.0);
  const Matrix q = chain.dense_generator();
  EXPECT_DOUBLE_EQ(q(0, 0), -3.0);
  EXPECT_DOUBLE_EQ(q(0, 1), 3.0);
}

TEST(SparseCtmc, RejectsInvalidTransitions) {
  SparseCtmc chain(2);
  EXPECT_THROW(chain.add_rate(0, 0, 1.0), Error);   // self loop
  EXPECT_THROW(chain.add_rate(0, 5, 1.0), Error);   // out of range
  EXPECT_THROW(chain.add_rate(0, 1, -1.0), Error);  // negative
}

TEST(Stationary, GthMatchesMM1GeometricDistribution) {
  const double lambda = 0.6;
  const double mu = 1.0;
  const std::size_t n = 60;
  const Vector pi = gth_stationary(mm1_chain(n, lambda, mu));
  const double rho = lambda / mu;
  // Truncated geometric; truncation error is rho^60 ~ 5e-14.
  for (std::size_t s = 0; s < 10; ++s) {
    EXPECT_NEAR(pi[s], (1.0 - rho) * std::pow(rho, static_cast<double>(s)),
                1e-10);
  }
}

TEST(Stationary, SorAgreesWithGth) {
  const SparseCtmc chain = mm1_chain(40, 0.7, 1.0);
  const Vector exact = gth_stationary(chain);
  StationarySolveInfo info;
  const Vector iterative = sor_stationary(chain, 1e-13, 100000, 1.0, &info);
  EXPECT_TRUE(info.converged);
  for (std::size_t s = 0; s < exact.size(); ++s) {
    EXPECT_NEAR(iterative[s], exact[s], 1e-9);
  }
}

TEST(Stationary, SorReportsTrueIterationCountOnNonConvergence) {
  // An unreachably tight tolerance forces the iteration budget to run out;
  // the reported count must equal the sweeps actually performed, not
  // max_iters + 1 (the loop-exit off-by-one this guards against).
  const SparseCtmc chain = mm1_chain(40, 0.7, 1.0);
  const int max_iters = 25;
  StationarySolveInfo info;
  sor_stationary(chain, 1e-30, max_iters, 1.0, &info);
  EXPECT_FALSE(info.converged);
  EXPECT_EQ(info.iterations, max_iters);
}

TEST(Stationary, ResidualOfExactSolutionIsTiny) {
  const SparseCtmc chain = mm1_chain(25, 0.4, 1.0);
  const Vector pi = gth_stationary(chain);
  EXPECT_LT(stationary_residual(chain, pi), 1e-12);
}

TEST(Stationary, ThreeStateCycleKnownAnswer) {
  // Cycle 0 -> 1 -> 2 -> 0 with rates 1, 2, 4: pi proportional to 1/rate.
  SparseCtmc chain(3);
  chain.add_rate(0, 1, 1.0);
  chain.add_rate(1, 2, 2.0);
  chain.add_rate(2, 0, 4.0);
  chain.freeze();
  const Vector pi = gth_stationary(chain);
  EXPECT_NEAR(pi[0], 4.0 / 7.0, 1e-12);
  EXPECT_NEAR(pi[1], 2.0 / 7.0, 1e-12);
  EXPECT_NEAR(pi[2], 1.0 / 7.0, 1e-12);
}

TEST(Absorbing, PureDeathChainOccupancy) {
  // 3 -> 2 -> 1 -> 0 at rate mu: expected time in each transient state is
  // 1/mu; absorption time is 3/mu.
  const double mu = 2.0;
  SparseCtmc chain(4);
  for (std::size_t s = 1; s < 4; ++s) chain.add_rate(s, s - 1, mu);
  chain.freeze();
  Vector initial(4, 0.0);
  initial[3] = 1.0;
  const Vector occ = expected_occupancy(chain, initial);
  EXPECT_NEAR(occ[3], 0.5, 1e-12);
  EXPECT_NEAR(occ[2], 0.5, 1e-12);
  EXPECT_NEAR(occ[1], 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(occ[0], 0.0);  // absorbing
  EXPECT_NEAR(expected_time_to_absorption(chain, initial), 1.5, 1e-12);
}

TEST(Absorbing, AccumulatedRewardWeightsOccupancy) {
  // Same chain; reward = state index (like N(t) in the Theorem 6 use).
  const double mu = 1.0;
  SparseCtmc chain(3);
  chain.add_rate(2, 1, mu);
  chain.add_rate(1, 0, mu);
  chain.freeze();
  Vector initial(3, 0.0);
  initial[2] = 1.0;
  const double reward =
      expected_accumulated_reward(chain, initial, {0.0, 1.0, 2.0});
  // 1/mu in state 2 (reward 2) + 1/mu in state 1 (reward 1) = 3.
  EXPECT_NEAR(reward, 3.0, 1e-12);
}

TEST(Absorbing, RejectsMassOnAbsorbingStates) {
  SparseCtmc chain(2);
  chain.add_rate(1, 0, 1.0);
  chain.freeze();
  Vector bad(2, 0.0);
  bad[0] = 1.0;
  EXPECT_THROW(expected_occupancy(chain, bad), Error);
}

TEST(BirthDeath, ExponentialWhenNoBirths) {
  // Single state with death rate mu and no birth: T ~ Exp(mu).
  const Moments3 m = birth_death_descent_moments({0.0}, {3.0});
  EXPECT_NEAR(m.m1, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.m2, 2.0 / 9.0, 1e-12);
  EXPECT_NEAR(m.m3, 6.0 / 27.0, 1e-12);
  EXPECT_NEAR(m.scv(), 1.0, 1e-12);
}

TEST(BirthDeath, MatchesMM1BusyPeriodClosedForms) {
  // M/M/1 busy period = descent 1 -> 0 with constant rates. Closed forms:
  // m1 = 1/(mu-lam), m2 = 2 mu/(mu-lam)^3, m3 = 6 mu (mu+lam)/(mu-lam)^5.
  for (double rho : {0.2, 0.5, 0.8}) {
    const double mu = 1.3;
    const double lam = rho * mu;
    // Truncation deep enough that the error is far below the tolerance.
    const std::size_t depth = 400;
    const Moments3 got = birth_death_descent_moments(
        std::vector<double>(depth, lam), std::vector<double>(depth, mu));
    const double gap = mu - lam;
    EXPECT_NEAR(got.m1, 1.0 / gap, 1e-9) << "rho=" << rho;
    EXPECT_NEAR(got.m2 / (2.0 * mu / std::pow(gap, 3)), 1.0, 1e-7)
        << "rho=" << rho;
    EXPECT_NEAR(got.m3 / (6.0 * mu * (mu + lam) / std::pow(gap, 5)), 1.0,
                1e-6)
        << "rho=" << rho;
  }
}

TEST(BirthDeath, RejectsBadInput) {
  EXPECT_THROW(birth_death_descent_moments({}, {}), Error);
  EXPECT_THROW(birth_death_descent_moments({1.0}, {0.0}), Error);
  EXPECT_THROW(birth_death_descent_moments({-1.0}, {1.0}), Error);
}

// ---------------------------------------------------------------------------
// Bitwise reference tests: the CSR-backed solvers must reproduce the
// pre-CSR nested-vector algorithms EXACTLY (same floating-point
// accumulation order), so cached sweep results stay byte-identical. The
// references below are the old implementations, verbatim apart from the
// adjacency container.

Vector reference_sor(const SparseCtmc& chain, double tol, int max_iters,
                     double omega, StationarySolveInfo* info) {
  const std::size_t n = chain.num_states();
  std::vector<std::vector<CtmcTransition>> in(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (const auto& t : chain.transitions_from(s)) in[t.to].push_back(t);
  }
  const auto residual = [&](const Vector& pi) {
    Vector flow(n, 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      flow[s] -= pi[s] * chain.exit_rate(s);
      for (const auto& t : chain.transitions_from(s)) {
        flow[t.to] += pi[s] * t.rate;
      }
    }
    return max_abs(flow);
  };
  Vector pi(n, 1.0 / static_cast<double>(n));
  StationarySolveInfo local;
  for (local.iterations = 1; local.iterations <= max_iters;
       ++local.iterations) {
    for (std::size_t s = 0; s < n; ++s) {
      const double exit = chain.exit_rate(s);
      if (exit == 0.0) continue;
      double inflow = 0.0;
      for (const auto& t : in[s]) inflow += pi[t.from] * t.rate;
      const double gs = inflow / exit;
      pi[s] = (1.0 - omega) * pi[s] + omega * gs;
    }
    normalize_probability(pi);
    if (local.iterations % 10 == 0 || local.iterations == max_iters) {
      local.residual = residual(pi);
      if (local.residual < tol) {
        local.converged = true;
        break;
      }
    }
  }
  local.iterations = std::min(local.iterations, max_iters);
  if (info != nullptr) *info = local;
  return pi;
}

/// A 5x3 two-dimensional chain, level-structured along i: up/down rates
/// between adjacent levels plus within-level hops, all state-dependent so
/// no accidental symmetry hides accumulation-order differences.
SparseCtmc grid_chain() {
  const std::size_t ni = 5, nj = 3;
  SparseCtmc chain(ni * nj);
  const auto id = [&](std::size_t i, std::size_t j) { return i * nj + j; };
  for (std::size_t i = 0; i < ni; ++i) {
    for (std::size_t j = 0; j < nj; ++j) {
      if (i + 1 < ni) chain.add_rate(id(i, j), id(i + 1, j), 1.0 + 0.3 * j);
      if (i > 0) chain.add_rate(id(i, j), id(i - 1, j), 2.0 + 0.1 * i);
      if (j + 1 < nj) chain.add_rate(id(i, j), id(i, j + 1), 0.5);
      if (j > 0) chain.add_rate(id(i, j), id(i, j - 1), 0.7);
    }
  }
  chain.freeze();
  return chain;
}

std::vector<std::uint32_t> grid_levels() {
  std::vector<std::uint32_t> level_of(15);
  for (std::size_t s = 0; s < 15; ++s) {
    level_of[s] = static_cast<std::uint32_t>(s / 3);
  }
  return level_of;
}

TEST(Stationary, SorCsrBitwiseMatchesNestedVectorReference) {
  for (const SparseCtmc& chain : {mm1_chain(40, 0.7, 1.0), grid_chain()}) {
    StationarySolveInfo ref_info, csr_info;
    const Vector ref = reference_sor(chain, 1e-12, 5000, 1.2, &ref_info);
    const Vector csr = sor_stationary(chain, 1e-12, 5000, 1.2, &csr_info);
    ASSERT_EQ(ref.size(), csr.size());
    for (std::size_t s = 0; s < ref.size(); ++s) {
      EXPECT_EQ(ref[s], csr[s]) << "state " << s;  // bitwise, not NEAR
    }
    EXPECT_EQ(ref_info.iterations, csr_info.iterations);
    EXPECT_EQ(ref_info.residual, csr_info.residual);
    EXPECT_EQ(ref_info.converged, csr_info.converged);
  }
}

// ---------------------------------------------------------------------------
// Block-tridiagonal direct solver.

TEST(BlockSolver, MatchesGthOnBirthDeath) {
  const SparseCtmc chain = mm1_chain(50, 0.8, 1.0);
  std::vector<std::uint32_t> level_of(50);
  for (std::size_t s = 0; s < 50; ++s) {
    level_of[s] = static_cast<std::uint32_t>(s);
  }
  const Vector exact = gth_stationary(chain);
  StationarySolveInfo info;
  const Vector block = block_tridiagonal_stationary(chain, level_of, &info);
  EXPECT_TRUE(info.converged);
  EXPECT_EQ(info.iterations, 0);
  EXPECT_LT(info.residual, 1e-12);
  for (std::size_t s = 0; s < 50; ++s) {
    EXPECT_NEAR(block[s], exact[s], 1e-12) << "state " << s;
  }
}

TEST(BlockSolver, MatchesGthOnTwoDimensionalChain) {
  const SparseCtmc chain = grid_chain();
  const Vector exact = gth_stationary(chain);
  const Vector block =
      block_tridiagonal_stationary(chain, grid_levels(), nullptr);
  for (std::size_t s = 0; s < exact.size(); ++s) {
    EXPECT_NEAR(block[s], exact[s], 1e-13) << "state " << s;
  }
}

TEST(BlockSolver, RandomizedChainsAgreeWithGth) {
  // Random level-structured irreducible chains: a guaranteed up/down
  // ladder through each level's first state, every state tied to its
  // level's first state both ways, plus random extra edges.
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> rate(0.1, 2.0);
  std::uniform_int_distribution<int> coin(0, 1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t num_levels = 2 + trial % 5;
    std::vector<std::uint32_t> level_of;
    std::vector<std::size_t> first;
    for (std::size_t l = 0; l < num_levels; ++l) {
      const std::size_t size = 1 + rng() % 3;
      first.push_back(level_of.size());
      for (std::size_t b = 0; b < size; ++b) {
        level_of.push_back(static_cast<std::uint32_t>(l));
      }
    }
    const std::size_t n = level_of.size();
    SparseCtmc chain(n);
    for (std::size_t l = 0; l + 1 < num_levels; ++l) {
      chain.add_rate(first[l], first[l + 1], rate(rng));
      chain.add_rate(first[l + 1], first[l], rate(rng));
    }
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t anchor = first[level_of[s]];
      if (s != anchor) {
        chain.add_rate(s, anchor, rate(rng));
        chain.add_rate(anchor, s, rate(rng));
      }
      for (std::size_t t = 0; t < n; ++t) {
        const long diff = static_cast<long>(level_of[s]) -
                          static_cast<long>(level_of[t]);
        if (s == t || diff < -1 || diff > 1) continue;
        if (coin(rng) == 1) chain.add_rate(s, t, rate(rng));
      }
    }
    chain.freeze();
    const Vector exact = gth_stationary(chain);
    const Vector block =
        block_tridiagonal_stationary(chain, level_of, nullptr);
    for (std::size_t s = 0; s < n; ++s) {
      EXPECT_NEAR(block[s], exact[s], 1e-11)
          << "trial " << trial << " state " << s;
    }
  }
}

TEST(BlockSolver, RejectsNonAdjacentLevelJumps) {
  SparseCtmc chain(3);
  chain.add_rate(0, 2, 1.0);  // jumps level 0 -> 2
  chain.add_rate(2, 1, 1.0);
  chain.add_rate(1, 0, 1.0);
  chain.freeze();
  EXPECT_THROW(block_tridiagonal_stationary(chain, {0, 1, 2}, nullptr),
               Error);
}

TEST(BlockSolver, RejectsLevelWithNoDownTransitions) {
  // 0 -> 1 only: level 1 cannot descend, so level 0 is transient and the
  // censored blocks are singular; the solver must refuse loudly (auto
  // method selection falls back to SOR on this error).
  SparseCtmc chain(2);
  chain.add_rate(0, 1, 1.0);
  chain.freeze();
  EXPECT_THROW(block_tridiagonal_stationary(chain, {0, 1}, nullptr), Error);
}

TEST(BlockSolver, RejectsEmptyLevel) {
  SparseCtmc chain(2);
  chain.add_rate(0, 1, 1.0);
  chain.add_rate(1, 0, 1.0);
  chain.freeze();
  // Levels {0, 2} skip level 1.
  EXPECT_THROW(block_tridiagonal_stationary(chain, {0, 2}, nullptr), Error);
}

TEST(BlockSolver, WorkspaceEstimateScalesWithBlockSizes) {
  // 2 levels of 3 states: R is 3x3 plus 3 dense 3x3 scratch blocks.
  const std::vector<std::uint32_t> level_of = {0, 0, 0, 1, 1, 1};
  EXPECT_EQ(block_solver_workspace_bytes(level_of),
            (9 + 3 * 9) * sizeof(double));
  EXPECT_EQ(block_solver_workspace_bytes({}), 0u);
}

TEST(BlockSolver, FlopEstimateCountsFoldDensifiedColumns) {
  // Grid chain: levels 0..3 each have all 3 states hit by down-transitions
  // (m = 3); level 4 has nothing above it (m = 0). Estimate =
  // b0^3 + sum_{l=1..3} (b_l m_l^2 + m_l^3) = 27 + 3 * (27 + 27) = 189.
  const SparseCtmc grid = grid_chain();
  EXPECT_DOUBLE_EQ(
      block_solver_flop_estimate(grid.rate_matrix(), grid_levels()), 189.0);
  // A birth-death line has one down-target per level: the estimate grows
  // linearly in levels, so auto keeps picking the direct solver there.
  const SparseCtmc line = mm1_chain(41, 0.7, 1.0);
  std::vector<std::uint32_t> levels(41);
  for (std::size_t s = 0; s < levels.size(); ++s) {
    levels[s] = static_cast<std::uint32_t>(s);
  }
  EXPECT_DOUBLE_EQ(block_solver_flop_estimate(line.rate_matrix(), levels),
                   1.0 + 39.0 * 2.0);
}

// ---------------------------------------------------------------------------
// Bitwise reference for the block solver's panel kernels: the per-column
// elimination they replaced, verbatim apart from names and containers. The
// panel solve, the panel-blocked dense LU and the recorded factors must
// reproduce every stored value of it, so pi is bitwise the same.

/// Dense LU of the level's (-S)^T with sparse update lists and one solve
/// per right-hand side.
class ReferenceFoldFactor {
 public:
  explicit ReferenceFoldFactor(Matrix g) {
    const std::size_t n = g.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    std::vector<std::size_t> urow;
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      double best = std::abs(g(col, col));
      for (std::size_t r = col + 1; r < n; ++r) {
        const double cand = std::abs(g(r, col));
        if (cand > best) {
          best = cand;
          pivot = r;
        }
      }
      ESCHED_CHECK(best > 1e-300, "matrix is numerically singular");
      if (pivot != col) {
        for (std::size_t c = 0; c < n; ++c) std::swap(g(pivot, c), g(col, c));
        std::swap(perm_[pivot], perm_[col]);
      }
      const double inv_diag = 1.0 / g(col, col);
      urow.clear();
      for (std::size_t c = col + 1; c < n; ++c) {
        if (g(col, c) != 0.0) urow.push_back(c);
      }
      for (std::size_t r = col + 1; r < n; ++r) {
        const double factor = g(r, col) * inv_diag;
        g(r, col) = factor;
        if (factor == 0.0) continue;
        for (const std::size_t c : urow) g(r, c) -= factor * g(col, c);
      }
    }
    diag_.resize(n);
    l_cols_.resize(n);
    u_rows_.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      diag_[r] = g(r, r);
      for (std::size_t c = r + 1; c < n; ++c) {
        if (g(r, c) != 0.0) u_rows_[r].emplace_back(c, g(r, c));
        if (g(c, r) != 0.0) l_cols_[r].emplace_back(c, g(c, r));
      }
    }
  }

  /// Solves G x = b.
  Vector solve(const Vector& b) const {
    const std::size_t n = diag_.size();
    Vector x(n);
    for (std::size_t r = 0; r < n; ++r) x[r] = b[perm_[r]];
    for (std::size_t k = 0; k < n; ++k) {
      const double xk = x[k];
      if (xk == 0.0) continue;
      for (const auto& [r, m] : l_cols_[k]) x[r] -= m * xk;
    }
    for (std::size_t k = n; k-- > 0;) {
      double acc = x[k];
      for (const auto& [c, v] : u_rows_[k]) acc -= v * x[c];
      x[k] = acc / diag_[k];
    }
    return x;
  }

  /// Solves G^T x = b (G = P^T L U => G^T = U^T L^T P).
  Vector solve_transposed(const Vector& b) const {
    const std::size_t n = diag_.size();
    Vector y = b;
    for (std::size_t k = 0; k < n; ++k) {
      const double yk = y[k] / diag_[k];
      y[k] = yk;
      if (yk == 0.0) continue;
      for (const auto& [c, v] : u_rows_[k]) y[c] -= v * yk;
    }
    for (std::size_t k = n; k-- > 0;) {
      double acc = y[k];
      for (const auto& [r, m] : l_cols_[k]) acc -= m * y[r];
      y[k] = acc;
    }
    Vector x(n);
    for (std::size_t r = 0; r < n; ++r) x[perm_[r]] = y[r];
    return x;
  }

 private:
  std::vector<std::size_t> perm_;
  Vector diag_;
  std::vector<std::vector<std::pair<std::size_t, double>>> l_cols_;
  std::vector<std::vector<std::pair<std::size_t, double>>> u_rows_;
};

/// ReferenceFoldFactor over (-S)^T symmetrically permuted by `order`.
struct ReferenceLevelFactor {
  std::vector<std::size_t> order;
  std::optional<ReferenceFoldFactor> factor;

  Vector permute(const Vector& v) const {
    Vector p(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) p[i] = v[order[i]];
    return p;
  }
  Vector unpermute(const Vector& p) const {
    Vector v(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) v[order[i]] = p[i];
    return v;
  }
};

/// The per-column block elimination (level validation left to the
/// solver under test).
Vector reference_block_stationary(const CsrMatrix& rates,
                                  const Vector& exit_rates,
                                  const std::vector<std::uint32_t>& level_of) {
  const std::size_t n = rates.rows();
  std::uint32_t max_level = 0;
  for (std::uint32_t l : level_of) max_level = std::max(max_level, l);
  const std::size_t num_levels = static_cast<std::size_t>(max_level) + 1;
  std::vector<std::size_t> local(n);
  std::vector<std::vector<std::size_t>> states(num_levels);
  for (std::size_t s = 0; s < n; ++s) {
    local[s] = states[level_of[s]].size();
    states[level_of[s]].push_back(s);
  }
  const auto level_block = [&](std::size_t l) {
    const std::size_t b = states[l].size();
    Matrix a(b, b);
    for (std::size_t r = 0; r < b; ++r) {
      const std::size_t u = states[l][r];
      a(r, r) = -exit_rates[u];
      for (std::size_t k = 0; k < rates.row_nnz(u); ++k) {
        const std::size_t t = rates.row_cols(u)[k];
        if (level_of[t] == l) a(r, local[t]) += rates.row_values(u)[k];
      }
    }
    return a;
  };
  std::vector<ReferenceLevelFactor> up_factor(num_levels - 1);
  Matrix s_block = level_block(num_levels - 1);
  std::vector<bool> fold_marks(states[num_levels - 1].size(), false);
  Vector rhs;
  for (std::size_t l = num_levels - 1; l-- > 0;) {
    const std::vector<std::size_t>& above = states[l + 1];
    const std::size_t b = states[l].size();
    const std::size_t b_up = above.size();
    ReferenceLevelFactor& lf = up_factor[l];
    for (std::size_t i = 0; i < b_up; ++i) {
      if (!fold_marks[i]) lf.order.push_back(i);
    }
    for (std::size_t i = 0; i < b_up; ++i) {
      if (fold_marks[i]) lf.order.push_back(i);
    }
    Matrix g(b_up, b_up);
    for (std::size_t r = 0; r < b_up; ++r) {
      for (std::size_t c = 0; c < b_up; ++c) {
        g(r, c) = -s_block(lf.order[c], lf.order[r]);
      }
    }
    lf.factor.emplace(std::move(g));
    std::vector<std::vector<std::pair<std::size_t, double>>> c_cols(b);
    for (std::size_t r2 = 0; r2 < b_up; ++r2) {
      const std::size_t u2 = above[r2];
      for (std::size_t k = 0; k < rates.row_nnz(u2); ++k) {
        const std::size_t t = rates.row_cols(u2)[k];
        if (level_of[t] == l) {
          c_cols[local[t]].emplace_back(r2, rates.row_values(u2)[k]);
        }
      }
    }
    Matrix next = level_block(l);
    for (std::size_t c = 0; c < b; ++c) {
      if (c_cols[c].empty()) continue;
      rhs.assign(b_up, 0.0);
      for (const auto& [r2, w] : c_cols[c]) rhs[r2] += w;
      const Vector x =
          lf.unpermute(lf.factor->solve_transposed(lf.permute(rhs)));
      for (std::size_t i = 0; i < b; ++i) {
        const std::size_t u = states[l][i];
        double acc = 0.0;
        for (std::size_t k = 0; k < rates.row_nnz(u); ++k) {
          const std::size_t t = rates.row_cols(u)[k];
          if (level_of[t] == l + 1) {
            acc += rates.row_values(u)[k] * x[local[t]];
          }
        }
        next(i, c) += acc;
      }
    }
    s_block = std::move(next);
    fold_marks.assign(b, false);
    for (std::size_t c = 0; c < b; ++c) {
      if (!c_cols[c].empty()) fold_marks[c] = true;
    }
  }
  const std::size_t b0 = states[0].size();
  for (std::size_t r = 0; r < b0; ++r) {
    for (std::size_t c = 0; c < b0; ++c) {
      if (r != c && s_block(r, c) < 0.0) s_block(r, c) = 0.0;
    }
  }
  Vector level_pi = gth_stationary(std::move(s_block));
  Vector pi(n, 0.0);
  for (std::size_t r = 0; r < b0; ++r) pi[states[0][r]] = level_pi[r];
  for (std::size_t l = 0; l + 1 < num_levels; ++l) {
    rhs.assign(states[l + 1].size(), 0.0);
    for (std::size_t i = 0; i < states[l].size(); ++i) {
      const std::size_t u = states[l][i];
      for (std::size_t k = 0; k < rates.row_nnz(u); ++k) {
        const std::size_t t = rates.row_cols(u)[k];
        if (level_of[t] == l + 1) {
          rhs[local[t]] += level_pi[i] * rates.row_values(u)[k];
        }
      }
    }
    const ReferenceLevelFactor& lf = up_factor[l];
    level_pi = lf.unpermute(lf.factor->solve(lf.permute(rhs)));
    for (double& v : level_pi) {
      if (v < 0.0) v = 0.0;
    }
    for (std::size_t c = 0; c < states[l + 1].size(); ++c) {
      pi[states[l + 1][c]] = level_pi[c];
    }
  }
  normalize_probability(pi);
  return pi;
}

/// Random level-structured chain: level sizes in [1, max_size] (every
/// third level a single state), an up/down ladder through each level's
/// first state, each state tied to its level's first state both ways, and
/// random extra edges. `down_share` of a level's states receive
/// down-transitions from the level above, so 1.0 fold-marks whole blocks
/// and smaller shares mark them in part.
SparseCtmc random_level_chain(std::mt19937_64& rng, std::size_t num_levels,
                              std::size_t max_size, double down_share,
                              std::vector<std::uint32_t>* level_of) {
  std::uniform_real_distribution<double> rate(0.1, 2.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::size_t> first;
  level_of->clear();
  for (std::size_t l = 0; l < num_levels; ++l) {
    const std::size_t size = l % 3 == 1 ? 1 : 1 + rng() % max_size;
    first.push_back(level_of->size());
    for (std::size_t b = 0; b < size; ++b) {
      level_of->push_back(static_cast<std::uint32_t>(l));
    }
  }
  first.push_back(level_of->size());
  const std::size_t n = level_of->size();
  SparseCtmc chain(n);
  for (std::size_t l = 0; l + 1 < num_levels; ++l) {
    chain.add_rate(first[l], first[l + 1], rate(rng));
    chain.add_rate(first[l + 1], first[l], rate(rng));
  }
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t l = (*level_of)[s];
    if (s != first[l]) {
      chain.add_rate(s, first[l], rate(rng));
      chain.add_rate(first[l], s, rate(rng));
    }
    // Within-level neighbours (a band) plus sparse jumps up and down.
    if (s + 1 < first[l + 1] && unit(rng) < 0.7) {
      chain.add_rate(s, s + 1, rate(rng));
    }
    if (l + 1 < num_levels && unit(rng) < 0.3) {
      const std::size_t up =
          first[l + 1] + rng() % (first[l + 2] - first[l + 1]);
      chain.add_rate(s, up, rate(rng));
    }
    if (l > 0 && s != first[l] && unit(rng) < down_share) {
      const std::size_t below = first[l] - first[l - 1];
      chain.add_rate(s, first[l - 1] + (s - first[l]) % below, rate(rng));
    }
  }
  chain.freeze();
  return chain;
}

void expect_bitwise_equal(const Vector& ref, const Vector& got,
                          const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t s = 0; s < ref.size(); ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[s]),
              std::bit_cast<std::uint64_t>(got[s]))
        << what << " state " << s << ": " << ref[s] << " vs " << got[s];
  }
}

TEST(BlockSolver, KernelBitwiseMatchesPerColumnReference) {
  std::mt19937_64 rng(20261018);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t num_levels = 2 + trial % 7;
    const double down_share = trial % 3 == 0 ? 1.0 : 0.15 * (1 + trial % 4);
    std::vector<std::uint32_t> level_of;
    const SparseCtmc chain =
        random_level_chain(rng, num_levels, 40, down_share, &level_of);
    expect_bitwise_equal(
        reference_block_stationary(chain.rate_matrix(), chain.exit_rates(),
                                   level_of),
        block_tridiagonal_stationary(chain, level_of, nullptr),
        "random trial " + std::to_string(trial));
  }

  // The exact backend's own chains: exponential IF, EF and FairShare, and
  // the Erlang-3 phase-augmented IF chain.
  const SystemParams p = SystemParams::from_load(4, 1.0, 1.3, 0.8);
  ExactCtmcOptions opt;
  opt.imax = opt.jmax = 24;
  const InelasticFirst inelastic_first;
  const ElasticFirst elastic_first;
  const FairShare fair_share;
  for (const AllocationPolicy* policy :
       {static_cast<const AllocationPolicy*>(&inelastic_first),
        static_cast<const AllocationPolicy*>(&elastic_first),
        static_cast<const AllocationPolicy*>(&fair_share)}) {
    const ExactChain c = ExactCtmcBatch(p, opt).chain(*policy);
    expect_bitwise_equal(
        reference_block_stationary(c.rates, c.exit_rates, c.level_of),
        block_tridiagonal_stationary(c.rates, c.exit_rates, c.level_of),
        policy->name());
  }
  opt.imax = opt.jmax = 8;
  const ExactChain erlang = exact_chain_ph(
      p, inelastic_first, SizeDistSpec::parse("erlang:3").compile(p.mu_i),
      opt);
  expect_bitwise_equal(reference_block_stationary(erlang.rates,
                                                  erlang.exit_rates,
                                                  erlang.level_of),
                       block_tridiagonal_stationary(
                           erlang.rates, erlang.exit_rates, erlang.level_of),
                       "erlang:3 IF");
}

#if !defined(ESCHED_DEBUG_INVARIANTS)
TEST(BlockSolver, KernelBitwiseMatchesReferenceWhenPivoting) {
  // Partial pivoting never swaps rows on a conservative generator: (-S)^T
  // is column diagonally dominant. Exit rates well below the row sums
  // break the dominance so the row swaps (and the rescan of L they force)
  // run. The invariant build rejects such input at the solver boundary.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::uint32_t> level_of;
    const SparseCtmc chain =
        random_level_chain(rng, 4, 12, trial % 2 == 0 ? 1.0 : 0.4, &level_of);
    Vector exit = chain.exit_rates();
    for (double& e : exit) e *= 0.3;
    expect_bitwise_equal(
        reference_block_stationary(chain.rate_matrix(), exit, level_of),
        block_tridiagonal_stationary(chain.rate_matrix(), exit, level_of),
        "pivoting trial " + std::to_string(trial));
  }
}
#endif

}  // namespace
}  // namespace esched
