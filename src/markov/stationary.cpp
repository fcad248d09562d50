#include "markov/stationary.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/invariants.hpp"

namespace esched {

const char* stationary_method_name(StationaryMethod method) {
  switch (method) {
    case StationaryMethod::kAuto: return "auto";
    case StationaryMethod::kGth: return "gth";
    case StationaryMethod::kSor: return "sor";
    case StationaryMethod::kBlock: return "block";
  }
  ESCHED_ASSERT(false, "unreachable stationary method");
  return "";
}

StationaryMethod parse_stationary_method(const std::string& name) {
  if (name == "auto") return StationaryMethod::kAuto;
  if (name == "gth") return StationaryMethod::kGth;
  if (name == "sor") return StationaryMethod::kSor;
  if (name == "block") return StationaryMethod::kBlock;
  throw Error("unknown stationary method '" + name +
              "' (expected auto, gth, sor, or block)");
}

Vector gth_stationary(Matrix q) {
  // No generator-structure debug check here: the block solver feeds this
  // entry censored generators whose diagonal/row sums carry elimination
  // roundoff GTH is insensitive to. The CSR overload below checks instead.
  ESCHED_CHECK(q.rows() == q.cols(), "generator must be square");
  const std::size_t n = q.rows();
  ESCHED_CHECK(n >= 1, "generator must be non-empty");
  // GTH elimination uses only the off-diagonal (non-negative) rates and
  // performs no subtractions, so it is backward stable for probabilities.
  for (std::size_t m = n; m-- > 1;) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) s += q(m, j);
    ESCHED_CHECK(s > 0.0, "chain is reducible: state has no path down");
    for (std::size_t i = 0; i < m; ++i) q(i, m) /= s;
    for (std::size_t i = 0; i < m; ++i) {
      const double factor = q(i, m);
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < m; ++j) {
        if (j != i) q(i, j) += factor * q(m, j);
      }
    }
  }
  Vector pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t m = 1; m < n; ++m) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += pi[i] * q(i, m);
    pi[m] = acc;
  }
  normalize_probability(pi);
  ESCHED_DEBUG_CHECK(check_probability_vector(pi, "gth_stationary"));
  return pi;
}

Vector gth_stationary(const SparseCtmc& chain) {
  return gth_stationary(chain.dense_generator());
}

Vector gth_stationary(const CsrMatrix& rates, const Vector& exit_rates) {
  ESCHED_CHECK(rates.rows() == rates.cols(), "generator must be square");
  ESCHED_CHECK(exit_rates.size() == rates.rows(),
               "exit-rate dimension mismatch");
  ESCHED_DEBUG_CHECK(check_generator(rates, exit_rates, "gth_stationary"));
  Matrix q = rates.to_dense();
  for (std::size_t s = 0; s < rates.rows(); ++s) q(s, s) = -exit_rates[s];
  return gth_stationary(std::move(q));
}

namespace {

/// Residual computed from the in-adjacency (the transpose the SOR sweep
/// already built): bitwise identical to the scatter form below, because for
/// each target state the incoming contributions arrive in ascending source
/// order with the -pi[s] * exit term interleaved exactly where source == s
/// falls in that order.
double residual_from_incoming(const CsrMatrix& in, const Vector& exit_rates,
                              const Vector& pi) {
  const std::size_t n = in.rows();
  double worst = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t* from = in.row_cols(s);
    const double* rate = in.row_values(s);
    const std::size_t nnz = in.row_nnz(s);
    double acc = 0.0;
    bool subtracted = false;
    for (std::size_t k = 0; k < nnz; ++k) {
      if (!subtracted && from[k] > s) {
        acc -= pi[s] * exit_rates[s];
        subtracted = true;
      }
      acc += pi[from[k]] * rate[k];
    }
    if (!subtracted) acc -= pi[s] * exit_rates[s];
    worst = std::max(worst, std::abs(acc));
  }
  return worst;
}

}  // namespace

double stationary_residual(const CsrMatrix& rates, const Vector& exit_rates,
                           const Vector& pi) {
  ESCHED_CHECK(pi.size() == rates.rows(), "pi dimension mismatch");
  Vector flow(rates.rows(), 0.0);
  for (std::size_t s = 0; s < rates.rows(); ++s) {
    flow[s] -= pi[s] * exit_rates[s];
    const std::size_t* to = rates.row_cols(s);
    const double* rate = rates.row_values(s);
    const std::size_t nnz = rates.row_nnz(s);
    for (std::size_t k = 0; k < nnz; ++k) flow[to[k]] += pi[s] * rate[k];
  }
  return max_abs(flow);
}

double stationary_residual(const SparseCtmc& chain, const Vector& pi) {
  return stationary_residual(chain.rate_matrix(), chain.exit_rates(), pi);
}

Vector sor_stationary(const CsrMatrix& rates, const Vector& exit_rates,
                      double tol, int max_iters, double omega,
                      StationarySolveInfo* info) {
  ESCHED_CHECK(omega > 0.0 && omega < 2.0, "SOR omega must be in (0,2)");
  ESCHED_CHECK(exit_rates.size() == rates.rows(),
               "exit-rate dimension mismatch");
  ESCHED_DEBUG_CHECK(check_generator(rates, exit_rates, "sor_stationary"));
  const std::size_t n = rates.rows();
  // One transpose per solve: the Gauss-Seidel update of pi[s] gathers over
  // the transitions *entering* s, and the convergence check reuses it.
  const CsrMatrix in = rates.transposed();
  Vector pi(n, 1.0 / static_cast<double>(n));
  StationarySolveInfo local;
  for (local.iterations = 1; local.iterations <= max_iters;
       ++local.iterations) {
    for (std::size_t s = 0; s < n; ++s) {
      const double exit = exit_rates[s];
      if (exit == 0.0) continue;  // absorbing states keep their mass
      const std::size_t* from = in.row_cols(s);
      const double* rate = in.row_values(s);
      const std::size_t nnz = in.row_nnz(s);
      double inflow = 0.0;
      for (std::size_t k = 0; k < nnz; ++k) inflow += pi[from[k]] * rate[k];
      const double gs = inflow / exit;
      pi[s] = (1.0 - omega) * pi[s] + omega * gs;
    }
    normalize_probability(pi);
    // Checking the residual every sweep would double the work; every 10th
    // sweep keeps the overhead low while stopping promptly.
    if (local.iterations % 10 == 0 || local.iterations == max_iters) {
      local.residual = residual_from_incoming(in, exit_rates, pi);
      if (local.residual < tol) {
        local.converged = true;
        break;
      }
    }
  }
  // On non-convergence the for-loop increment leaves the counter one past
  // the last sweep actually performed; clamp so callers see the true work.
  local.iterations = std::min(local.iterations, max_iters);
  if (info != nullptr) *info = local;
  ESCHED_DEBUG_CHECK(check_probability_vector(pi, "sor_stationary"));
  return pi;
}

Vector sor_stationary(const SparseCtmc& chain, double tol, int max_iters,
                      double omega, StationarySolveInfo* info) {
  return sor_stationary(chain.rate_matrix(), chain.exit_rates(), tol,
                        max_iters, omega, info);
}

}  // namespace esched
