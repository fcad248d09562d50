// Exact (truncated) 2-D CTMC solver for arbitrary allocation policies.
//
// This is the brute-force baseline the paper contrasts with in §5 (the
// MDP-style truncation of [7]): build the full generator of the chain
// (N_I(t), N_E(t)) on {0..imax} x {0..jmax} for ANY stationary policy,
// solve the stationary distribution, and read off E[N] / E[T]. It serves
// two purposes: validating the busy-period-transformation analysis, and
// running optimality sweeps over whole policy families (§4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "core/policy.hpp"
#include "linalg/csr.hpp"
#include "markov/stationary.hpp"
#include "phase/phase_type.hpp"

namespace esched {

/// Options for the truncated solve.
struct ExactCtmcOptions {
  long imax = 120;  ///< inelastic truncation level
  long jmax = 120;  ///< elastic truncation level
  /// Stationary-solver selection. kAuto keeps dense GTH up to 500 states;
  /// above that, it predicts the seconds of the block-tridiagonal direct
  /// solver and of SOR from the built chain (see ExactCostPrediction) and
  /// takes the cheaper one, never block when its factors would exceed
  /// 4 GiB of workspace (an explicit kBlock request throws there
  /// instead). GTH and block are direct; SOR iterates to a 1e-12
  /// residual. The choice is a pure function of the chain, so it never
  /// depends on timing or threads.
  StationaryMethod method = StationaryMethod::kAuto;
};

/// Auto's evidence for one chain above the 500-state GTH limit: the
/// features its cost model reads and the stationary-solve seconds it
/// predicts for each method. Filled for every method (the bench fits the
/// model from forced runs); all zero for chains at or under the limit.
struct ExactCostPrediction {
  double flop_estimate = 0.0;    ///< block_solver_flop_estimate
  double workspace_bytes = 0.0;  ///< block_solver_workspace_bytes
  double nnz = 0.0;              ///< stored off-diagonal rates
  double levels = 0.0;           ///< level count of the block partition
  double block_seconds = 0.0;    ///< a * flop_estimate + b * workspace_bytes
  double sor_seconds = 0.0;      ///< c * nnz * levels^2
};

/// Results of the truncated stationary solve.
struct ExactCtmcResult {
  double mean_jobs_i = 0.0;
  double mean_jobs_e = 0.0;
  double mean_response_time = 0.0;
  double mean_response_time_i = 0.0;
  double mean_response_time_e = 0.0;
  /// Stationary mass on the truncation boundary rows i == imax or
  /// j == jmax; a large value means the truncation is too tight.
  double boundary_mass = 0.0;
  std::size_t num_states = 0;
  /// Cost/quality of the stationary solve. The direct solvers (GTH,
  /// block) report iterations == 0, converged == true, and the measured
  /// residual; the SOR path reports the iterative solver's own exit
  /// state. solve_info.method names the solver that actually ran.
  StationarySolveInfo solve_info;
  ExactCostPrediction prediction;
};

/// The chain an exact solve hands to its stationary solver: off-diagonal
/// rates, exit rates and the level partition the block solver runs on.
/// For callers that drive a stationary solver directly (tests, benches).
struct ExactChain {
  CsrMatrix rates;
  Vector exit_rates;
  std::vector<std::uint32_t> level_of;
};

/// Solves the truncated chain for `policy` at `params`. Requires rho < 1
/// (otherwise the truncated result is meaningless and this throws).
/// Equivalent to ExactCtmcBatch(params, options).solve(policy).
ExactCtmcResult solve_exact_ctmc(const SystemParams& params,
                                 const AllocationPolicy& policy,
                                 const ExactCtmcOptions& options = {});

/// Shares chain-topology construction across policies at identical
/// (params, options): the truncated state space and its policy-independent
/// arrival transitions are frozen into a CSR skeleton once, and each
/// solve() overlays the policy's service rates into a reusable scratch
/// matrix before solving — no per-policy rebuild, no per-solve adjacency
/// copies, for a caller that solves many policies at the same params on
/// one thread. solve() is bitwise identical to solve_exact_ctmc on the
/// same inputs — rates are accumulated per state in the same order, and
/// solve_exact_ctmc is itself a one-shot batch.
///
/// solve() mutates the scratch buffers, so a batch instance is NOT safe
/// for concurrent solves. The sweep runner does not batch: it solves every
/// exact point as its own job through solve_exact_ctmc, because a skeleton
/// rebuild (tens to hundreds of microseconds) is cheap next to a solve and
/// one serial batch would set the wall time of a multi-threaded sweep.
class ExactCtmcBatch {
 public:
  ExactCtmcBatch(const SystemParams& params, const ExactCtmcOptions& options);

  ExactCtmcResult solve(const AllocationPolicy& policy);
  /// The generator solve() would solve for `policy`, as a copy.
  ExactChain chain(const AllocationPolicy& policy);

  const SystemParams& params() const { return params_; }
  const ExactCtmcOptions& options() const { return options_; }

 private:
  /// Fills scratch_rates_/scratch_exit_ with `policy`'s generator.
  void overlay(const AllocationPolicy& policy);

  SystemParams params_;
  ExactCtmcOptions options_;
  /// Arrival-only rate skeleton (frozen CSR) and the arrival part of each
  /// state's exit rate.
  CsrMatrix skeleton_;
  Vector base_exit_;
  /// Level assignment along the longer truncation axis (more, smaller
  /// blocks) for the block solver.
  std::vector<std::uint32_t> level_of_;
  /// Reusable per-solve scratch: the full generator (skeleton + policy
  /// service rates) and its exit rates, rebuilt in place each solve.
  CsrMatrix scratch_rates_;
  Vector scratch_exit_;
};

/// Exact truncated solve with phase-type *inelastic* job sizes (elastic
/// sizes stay Exp(mu_E)), by state augmentation: the chain tracks
/// (c_1..c_m, w, j) where c_s counts in-service inelastic jobs in phase s
/// of `size_dist_i` (which must already be scaled to mean 1/mu_I, see
/// SizeDistSpec::compile), w counts waiting inelastic jobs, and j counts
/// elastic jobs. Only the reachable component is enumerated (BFS from the
/// empty system), arrivals are dropped at the i/j truncation boundary, and
/// boundary_mass reports the stationary mass sitting on it — the same
/// truncation-mass accounting as the exponential chain. The chain is
/// level-structured in i = sum(c) + w, so the block solver applies.
///
/// Exactness requires that the phase counts be a sufficient statistic,
/// which holds when (a) the policy's inelastic allocation is integral in
/// every state (one whole server per served job, the FCFS semantics of the
/// simulator) and (b) preemption is all-or-nothing: the allocation never
/// drops strictly between 0 and the number of jobs already in service
/// (jobs pause holding their phase and all resume together — EF's shape;
/// IF never preempts). Violations throw esched::Error naming the policy;
/// use the simulation backend for such policies.
ExactCtmcResult solve_exact_ctmc_ph(const SystemParams& params,
                                    const AllocationPolicy& policy,
                                    const PhaseType& size_dist_i,
                                    const ExactCtmcOptions& options = {});

/// The reachable phase-augmented chain solve_exact_ctmc_ph solves, with
/// its level partition (same checks, no solve).
ExactChain exact_chain_ph(const SystemParams& params,
                          const AllocationPolicy& policy,
                          const PhaseType& size_dist_i,
                          const ExactCtmcOptions& options = {});

/// Truncation level at which a geometric tail of ratio rho holds at most
/// `epsilon` mass — a reasonable default for both dimensions. Clamped to
/// [16, 400].
long suggested_truncation(double rho, double epsilon = 1e-10);

}  // namespace esched
