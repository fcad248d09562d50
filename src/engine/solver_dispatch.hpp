// Unified solver dispatch: one entry point that routes a RunPoint to the
// right backend (QBD analysis, exact truncated CTMC, discrete-event
// simulation, the M/M/k closed forms, or the Theorem-3 coupled trace
// replay) and normalizes the output into a single RunResult shape, so
// sweeps can mix solvers freely and reports never care which backend
// produced a row.
#pragma once

#include <string>
#include <vector>

#include "engine/scenario.hpp"

namespace esched {

/// Uniform per-point output across all solver backends. Fields a backend
/// does not produce stay at their zero defaults.
struct RunResult {
  double mean_response_time = 0.0;    ///< overall E[T]
  double mean_response_time_i = 0.0;  ///< inelastic E[T]
  double mean_response_time_e = 0.0;  ///< elastic E[T]
  double mean_jobs_i = 0.0;           ///< E[N_I]
  double mean_jobs_e = 0.0;           ///< E[N_E]

  /// Simulation only: half-width of the 95% CI on overall E[T].
  double ci_halfwidth = 0.0;
  /// Simulation with options.sim_tails: response-time percentiles per
  /// class (the distributional view the paper's mean-only analysis lacks).
  double p50_i = 0.0;
  double p95_i = 0.0;
  double p99_i = 0.0;
  double p50_e = 0.0;
  double p95_e = 0.0;
  double p99_e = 0.0;
  /// Exact CTMC only: stationary mass on the truncation boundary and the
  /// truncated state-space size.
  double boundary_mass = 0.0;
  long num_states = 0;
  /// Trace dominance only (Thm. 3): worst pointwise excess of IF's work
  /// path over this point's policy (theory: 0), same for inelastic work,
  /// the mean work gap W_pi(t) - W_IF(t) over the horizon, and the number
  /// of time checkpoints compared.
  double dom_max_violation = 0.0;
  double dom_max_violation_i = 0.0;
  double dom_avg_gap = 0.0;
  long dom_checkpoints = 0;

  // Solver cost, recorded per point.
  int solver_iterations = 0;    ///< SOR sweeps or QBD fixed-point iterations
  double solve_residual = 0.0;  ///< stationary residual / spectral radius
  double solve_seconds = 0.0;   ///< wall time of this point's solve
  bool from_cache = false;      ///< set by the sweep runner on memo hits

  /// The fields that define a point's *answer* — everything except wall
  /// time (solve_seconds) and cache provenance (from_cache) — for bitwise
  /// determinism comparisons.
  friend bool numerically_equal(const RunResult& a, const RunResult& b) {
    return a.mean_response_time == b.mean_response_time &&
           a.mean_response_time_i == b.mean_response_time_i &&
           a.mean_response_time_e == b.mean_response_time_e &&
           a.mean_jobs_i == b.mean_jobs_i && a.mean_jobs_e == b.mean_jobs_e &&
           a.ci_halfwidth == b.ci_halfwidth && a.p50_i == b.p50_i &&
           a.p95_i == b.p95_i && a.p99_i == b.p99_i && a.p50_e == b.p50_e &&
           a.p95_e == b.p95_e && a.p99_e == b.p99_e &&
           a.boundary_mass == b.boundary_mass &&
           a.num_states == b.num_states &&
           a.dom_max_violation == b.dom_max_violation &&
           a.dom_max_violation_i == b.dom_max_violation_i &&
           a.dom_avg_gap == b.dom_avg_gap &&
           a.dom_checkpoints == b.dom_checkpoints &&
           a.solver_iterations == b.solver_iterations &&
           a.solve_residual == b.solve_residual;
  }
};

/// Solves one point with its chosen backend. Pure apart from wall-clock
/// timing: equal cache_key() implies numerically_equal results, which is
/// what makes memoization and multi-threaded determinism sound. Throws
/// esched::Error on invalid combinations (e.g. the QBD analyses support
/// only EF/IF on the base model).
RunResult dispatch_run(const RunPoint& point);

/// Chain-topology key for exact-CTMC points: two points with equal
/// non-empty keys have identical (params, truncation) and could share one
/// ExactCtmcBatch — only their policies differ. Empty for every other
/// backend and for phase-type points.
std::string exact_topology_key(const RunPoint& point);

}  // namespace esched
