// Stationary distribution solvers for finite CTMCs.
//
// Three algorithms with different size/robustness trade-offs:
//  - GTH elimination: O(n^3), no subtractions (numerically exact for
//    probabilities), the right choice for n up to ~1-2k states.
//  - Gauss-Seidel/SOR on the balance equations: sparse, O(nnz) per sweep,
//    for truncated 2-D chains without usable structure.
//  - Block-tridiagonal GTH elimination (markov/block_solver.hpp): direct,
//    O(levels * block^3), for level-structured chains.
//
// Each sparse solver takes either a SparseCtmc or the raw
// (rate matrix, exit rates) pair; the latter lets batch callers overlay
// rates into a reusable CSR scratch without constructing a chain object.
#pragma once

#include <string>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "markov/ctmc.hpp"

namespace esched {

/// Stationary-solver selection for the exact-CTMC backend. kAuto picks
/// dense GTH for small chains, the block-tridiagonal direct solver when
/// the chain is level-structured and the factor storage fits the memory
/// budget, and SOR otherwise.
enum class StationaryMethod { kAuto, kGth, kSor, kBlock };

/// Stable identifier used in spec files, cache keys, and metrics.
const char* stationary_method_name(StationaryMethod method);

/// Inverse of stationary_method_name ("auto", "gth", "sor", "block").
/// Throws on an unknown name.
StationaryMethod parse_stationary_method(const std::string& name);

/// Result of a stationary solve.
struct StationarySolveInfo {
  int iterations = 0;     // 0 for the direct (GTH / block) solvers
  double residual = 0.0;  // max |pi Q| entry at exit
  bool converged = false;
  /// Which solver actually ran ("gth", "sor", "block"); filled by the
  /// exact-CTMC backend's method selection, empty when a solver was
  /// invoked directly.
  std::string method;
  /// Wall seconds of the stationary solve alone (chain build excluded);
  /// filled by the exact-CTMC backend like `method`.
  double seconds = 0.0;
};

/// GTH (Grassmann-Taksar-Heyman) elimination on a dense generator. The
/// chain must be irreducible. Returns the stationary probability vector.
Vector gth_stationary(Matrix generator);

/// Convenience overloads densifying a sparse generator (off-diagonal rate
/// matrix plus implied diagonal -exit_rates[s]).
Vector gth_stationary(const SparseCtmc& chain);
Vector gth_stationary(const CsrMatrix& rates, const Vector& exit_rates);

/// Gauss-Seidel / SOR iteration on the global balance equations of a sparse
/// CTMC. `omega` in (0, 2); omega = 1 is plain Gauss-Seidel. Iterates until
/// the residual max|pi Q| drops below `tol` or `max_iters` sweeps elapse.
/// The in-adjacency is built once per call as a CSR transpose and reused
/// by the convergence checks.
Vector sor_stationary(const SparseCtmc& chain, double tol = 1e-12,
                      int max_iters = 20000, double omega = 1.0,
                      StationarySolveInfo* info = nullptr);
Vector sor_stationary(const CsrMatrix& rates, const Vector& exit_rates,
                      double tol = 1e-12, int max_iters = 20000,
                      double omega = 1.0, StationarySolveInfo* info = nullptr);

/// Residual max_s |(pi Q)_s| — a direct check that `pi` satisfies balance.
double stationary_residual(const SparseCtmc& chain, const Vector& pi);
double stationary_residual(const CsrMatrix& rates, const Vector& exit_rates,
                           const Vector& pi);

}  // namespace esched
