#include "core/exact_ctmc.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "markov/block_solver.hpp"
#include "markov/ctmc.hpp"
#include "markov/stationary.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace esched {

long suggested_truncation(double rho, double epsilon) {
  ESCHED_CHECK(rho >= 0.0 && rho < 1.0, "rho must be in [0,1)");
  ESCHED_CHECK(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
  if (rho == 0.0) return 16;
  const double levels = std::log(epsilon) / std::log(rho);
  return std::clamp(static_cast<long>(std::ceil(levels)), 16L, 400L);
}

namespace {

std::size_t state_index(long i, long j, long nj) {
  return static_cast<std::size_t>(i * nj + j);
}

/// Explicit method = gth densifies the generator; past this it is a
/// request for O(n^2) memory and O(n^3) time that block/SOR do better.
constexpr std::size_t kDenseGthLimit = 5000;

/// Auto's cost model, in seconds of stationary solve. Block elimination
/// pays for its flops and for streaming its factor workspace. SOR pays per
/// stored rate per sweep, and its sweep count grows with the square of
/// the level count (the chain's diameter along the levels). The values
/// are least-squares fits of log stationary_s over the forced cases of
/// the exact_auto/* family in bench/perf_solvers.cpp on a 4-core x86-64
/// host: SOR's over method=sor (snapshot BENCH_perf_pr13.json), block's
/// over method=block on the panel kernels (fastest of four runs; fit
/// error 6 % rms). Only the ratios steer the choice.
/// Known miss: at truncation far deeper than the load needs (rho = 0.7,
/// 161+ levels) SOR converges in far fewer than levels^2 sweeps, and
/// auto keeps block where SOR is faster.
constexpr double kBlockSecondsPerFlop = 0.104e-9;
constexpr double kBlockSecondsPerByte = 0.453e-9;
constexpr double kSorSecondsPerNnzLevel2 = 1.85e-9;

ExactCostPrediction predict_cost(const CsrMatrix& rates,
                                 const std::vector<std::uint32_t>& level_of) {
  ExactCostPrediction p;
  p.flop_estimate = block_solver_flop_estimate(rates, level_of);
  p.workspace_bytes =
      static_cast<double>(block_solver_workspace_bytes(level_of));
  p.nnz = static_cast<double>(rates.nnz());
  p.levels =
      static_cast<double>(*std::max_element(level_of.begin(), level_of.end())) +
      1.0;
  p.block_seconds = kBlockSecondsPerFlop * p.flop_estimate +
                    kBlockSecondsPerByte * p.workspace_bytes;
  p.sor_seconds = kSorSecondsPerNnzLevel2 * p.nnz * p.levels * p.levels;
  return p;
}

/// Runs the stationary solve with the selected (or auto-chosen) method,
/// recording per-method solve-time / state-count metrics. `level_of` may
/// be empty when the chain has no usable level structure. Above
/// gth_state_limit `prediction` receives auto's evidence (for every
/// method); an auto solve also records its actual / predicted ratio in
/// the metrics and on the caller's open trace span.
std::pair<Vector, StationarySolveInfo> solve_stationary(
    const CsrMatrix& rates, const Vector& exit_rates,
    const std::vector<std::uint32_t>& level_of,
    const ExactCtmcOptions& options, ExactCostPrediction* prediction) {
  const std::size_t n = rates.rows();
  const bool auto_selected = options.method == StationaryMethod::kAuto;
  const bool predicted = n > options.gth_state_limit && !level_of.empty();
  if (predicted) *prediction = predict_cost(rates, level_of);
  StationaryMethod method = options.method;
  if (auto_selected) {
    if (n <= options.gth_state_limit) {
      method = StationaryMethod::kGth;
    } else if (predicted &&
               prediction->workspace_bytes <=
                   static_cast<double>(options.block_memory_limit) &&
               prediction->block_seconds <= prediction->sor_seconds) {
      method = StationaryMethod::kBlock;
    } else {
      method = StationaryMethod::kSor;
    }
  }
  const StationaryMethod chosen = method;

  const auto start = std::chrono::steady_clock::now();
  Vector pi;
  StationarySolveInfo solve_info;
  const auto run_sor = [&] {
    pi = sor_stationary(rates, exit_rates, options.sor_tol,
                        options.sor_max_iters, options.sor_omega, &solve_info);
    ESCHED_CHECK(solve_info.converged,
                 "SOR did not converge; increase iterations or loosen tol");
  };
  switch (method) {
    case StationaryMethod::kGth:
      ESCHED_CHECK(n <= kDenseGthLimit,
                   "method 'gth' densifies the generator; " +
                       std::to_string(n) + " states exceeds the " +
                       std::to_string(kDenseGthLimit) +
                       "-state dense limit (use method 'block' or 'sor')");
      pi = gth_stationary(rates, exit_rates);
      solve_info.converged = true;
      solve_info.residual = stationary_residual(rates, exit_rates, pi);
      break;
    case StationaryMethod::kSor:
      run_sor();
      break;
    case StationaryMethod::kBlock:
      ESCHED_CHECK(!level_of.empty(),
                   "method 'block' needs a level-structured chain");
      ESCHED_CHECK(
          block_solver_workspace_bytes(level_of) <= options.block_memory_limit,
          "method 'block' would need " +
              std::to_string(block_solver_workspace_bytes(level_of)) +
              " workspace bytes, over the " +
              std::to_string(options.block_memory_limit) +
              "-byte limit (raise block_memory_limit or use 'sor')");
      if (auto_selected) {
        // Some policies (e.g. idling variants) leave a level with no
        // down-transitions, which the direct elimination rejects; those
        // chains are still solvable iteratively, so auto falls back.
        try {
          pi = block_tridiagonal_stationary(rates, exit_rates, level_of,
                                            &solve_info);
        } catch (const Error&) {
          global_metrics().counter("exact.method.block.fallbacks").add();
          method = StationaryMethod::kSor;
          run_sor();
        }
      } else {
        pi = block_tridiagonal_stationary(rates, exit_rates, level_of,
                                          &solve_info);
      }
      break;
    case StationaryMethod::kAuto:
      ESCHED_ASSERT(false, "auto method not resolved");
  }
  solve_info.method = stationary_method_name(method);

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  solve_info.seconds = seconds;
  MetricsRegistry& metrics = global_metrics();
  const std::string prefix =
      std::string("exact.method.") + solve_info.method;
  metrics.counter(prefix + ".solves").add();
  metrics.histogram(prefix + ".seconds").record(seconds);
  metrics.histogram(prefix + ".states").record(static_cast<double>(n));
  if (auto_selected && predicted) {
    const double predicted_seconds = chosen == StationaryMethod::kBlock
                                         ? prediction->block_seconds
                                         : prediction->sor_seconds;
    const double ratio = seconds / predicted_seconds;
    metrics.histogram("exact.auto.prediction_ratio").record(ratio);
    trace_span_annotate({{"predicted_block_s", prediction->block_seconds},
                         {"predicted_sor_s", prediction->sor_seconds},
                         {"method", solve_info.method},
                         {"prediction_ratio", ratio}});
  }
  return {std::move(pi), std::move(solve_info)};
}

}  // namespace

ExactCtmcBatch::ExactCtmcBatch(const SystemParams& params,
                               const ExactCtmcOptions& options)
    : params_(params), options_(options) {
  params_.validate();
  ESCHED_CHECK(params_.stable(), "exact solve requires rho < 1");
  ESCHED_CHECK(options_.imax >= 1 && options_.jmax >= 1,
               "truncation levels must be >= 1");
  ESCHED_CHECK(params_.lambda_i + params_.lambda_e > 0.0,
               "exact solve requires some arrivals");

  // The arrival transitions do not depend on the policy: freeze them into
  // a CSR skeleton once. Arrivals are dropped at the truncation boundary
  // (reflecting wall). Per state the exit-rate accumulation order is
  // (arrival_i, arrival_e) here and (service_i, service_e) in solve(), the
  // same order as a monolithic SparseCtmc build, so exit-rate sums — and
  // therefore the stationary solve — are bitwise identical to it.
  const long ni = options_.imax + 1;
  const long nj = options_.jmax + 1;
  const auto num_states = static_cast<std::size_t>(ni * nj);
  skeleton_.begin_rows(num_states, num_states);
  base_exit_.assign(num_states, 0.0);
  level_of_.resize(num_states);
  // Level along the longer truncation axis: more levels of smaller blocks
  // (the block solve costs levels * block^3).
  const bool level_by_i = ni >= nj;
  for (long i = 0; i < ni; ++i) {
    for (long j = 0; j < nj; ++j) {
      const std::size_t s = state_index(i, j, nj);
      level_of_[s] = static_cast<std::uint32_t>(level_by_i ? i : j);
      double exit = 0.0;
      if (i + 1 < ni && params_.lambda_i > 0.0) exit += params_.lambda_i;
      if (j + 1 < nj && params_.lambda_e > 0.0) exit += params_.lambda_e;
      // CSR rows need ascending destinations: j+1 (s+1) before i+1 (s+nj).
      if (j + 1 < nj && params_.lambda_e > 0.0) {
        skeleton_.push(state_index(i, j + 1, nj), params_.lambda_e);
      }
      if (i + 1 < ni && params_.lambda_i > 0.0) {
        skeleton_.push(state_index(i + 1, j, nj), params_.lambda_i);
      }
      skeleton_.next_row();
      base_exit_[s] = exit;
    }
  }
}

void ExactCtmcBatch::overlay(const AllocationPolicy& policy) {
  const long ni = options_.imax + 1;
  const long nj = options_.jmax + 1;
  const auto num_states = static_cast<std::size_t>(ni * nj);

  // Overlay the policy's service rates onto the arrival skeleton, reusing
  // the scratch matrix's capacity across solves. Per state the (sorted)
  // destinations are s-nj (service_i), s-1 (service_e), then the skeleton
  // arrivals s+1, s+nj.
  scratch_rates_.begin_rows(num_states, num_states);
  scratch_exit_.assign(num_states, 0.0);
  for (long i = 0; i < ni; ++i) {
    for (long j = 0; j < nj; ++j) {
      const State state{i, j};
      policy.check_feasible(state, params_);
      const Allocation a = policy.allocate(state, params_);
      const std::size_t s = state_index(i, j, nj);
      double svc_i = 0.0;
      if (i > 0 && a.inelastic > 0.0) svc_i = a.inelastic * params_.mu_i;
      // Bounded elasticity: only cap * j servers of the class allocation
      // can actually be used by elastic jobs.
      const double usable = params_.usable_elastic(a.elastic, j);
      double svc_e = 0.0;
      if (j > 0 && usable > 0.0) svc_e = usable * params_.mu_e;
      if (svc_i > 0.0) scratch_rates_.push(state_index(i - 1, j, nj), svc_i);
      if (svc_e > 0.0) scratch_rates_.push(state_index(i, j - 1, nj), svc_e);
      const std::size_t* to = skeleton_.row_cols(s);
      const double* rate = skeleton_.row_values(s);
      const std::size_t nnz = skeleton_.row_nnz(s);
      for (std::size_t k = 0; k < nnz; ++k) scratch_rates_.push(to[k], rate[k]);
      scratch_rates_.next_row();
      double exit = base_exit_[s];
      if (svc_i > 0.0) exit += svc_i;
      if (svc_e > 0.0) exit += svc_e;
      scratch_exit_[s] = exit;
    }
  }
}

ExactChain ExactCtmcBatch::chain(const AllocationPolicy& policy) {
  overlay(policy);
  return {scratch_rates_, scratch_exit_, level_of_};
}

ExactCtmcResult ExactCtmcBatch::solve(const AllocationPolicy& policy) {
  const long ni = options_.imax + 1;
  const long nj = options_.jmax + 1;
  const auto num_states = static_cast<std::size_t>(ni * nj);
  overlay(policy);

  ExactCtmcResult result;
  auto [pi, solve_info] = solve_stationary(scratch_rates_, scratch_exit_,
                                           level_of_, options_,
                                           &result.prediction);
  result.num_states = num_states;
  result.solve_info = solve_info;
  for (long i = 0; i < ni; ++i) {
    for (long j = 0; j < nj; ++j) {
      const double p = pi[state_index(i, j, nj)];
      result.mean_jobs_i += static_cast<double>(i) * p;
      result.mean_jobs_e += static_cast<double>(j) * p;
      if (i == options_.imax || j == options_.jmax) result.boundary_mass += p;
    }
  }
  const double total_lambda = params_.lambda_i + params_.lambda_e;
  result.mean_response_time =
      (result.mean_jobs_i + result.mean_jobs_e) / total_lambda;
  result.mean_response_time_i =
      params_.lambda_i > 0.0 ? result.mean_jobs_i / params_.lambda_i : 0.0;
  result.mean_response_time_e =
      params_.lambda_e > 0.0 ? result.mean_jobs_e / params_.lambda_e : 0.0;
  return result;
}

ExactCtmcResult solve_exact_ctmc(const SystemParams& params,
                                 const AllocationPolicy& policy,
                                 const ExactCtmcOptions& options) {
  return ExactCtmcBatch(params, options).solve(policy);
}

// ---------------------------------------------------------------------------
// Phase-type inelastic sizes: the augmented chain.

namespace {

/// Augmented state: c[s] in-service inelastic jobs in phase s, w waiting
/// inelastic jobs, j elastic jobs. i == sum(c) + w.
struct PhState {
  std::vector<int> c;
  long w = 0;
  long j = 0;
};

/// Hard ceiling on the enumerated reachable state space — past this the
/// stationary solve is hopeless anyway and the user should reach for the
/// simulator or a looser truncation.
constexpr std::size_t kMaxPhStates = 5000000;

/// Most phases the augmented chain accepts; C(k+m, m) seat configurations
/// per (w, j) cell grow combinatorially in m.
constexpr std::size_t kMaxPhPhases = 16;

class PhChainBuilder {
 public:
  PhChainBuilder(const SystemParams& params, const AllocationPolicy& policy,
                 const PhaseType& dist, const ExactCtmcOptions& options)
      : params_(params), policy_(policy), dist_(dist), options_(options),
        m_(dist.num_phases()),
        seat_cap_(std::min<long>(params.k, options.imax)),
        seat_cells_(static_cast<std::size_t>((options.imax + 1) *
                                             (options.jmax + 1))) {
    // Mixed-radix key capacity check: m digits of base (seat_cap + 1) plus
    // the w and j digits must fit a 64-bit key.
    long double capacity = 1.0L;
    for (std::size_t s = 0; s < m_; ++s) capacity *= seat_cap_ + 1;
    capacity *= options_.imax + 1;
    capacity *= options_.jmax + 1;
    ESCHED_CHECK(capacity < 9.2e18L,
                 "phase-type exact solve: state key space overflows; reduce "
                 "truncation or phase count, or use the sim backend");
  }

  std::size_t intern(const PhState& state) {
    const std::uint64_t key = encode(state);
    const auto [it, inserted] = index_.emplace(key, states_.size());
    if (inserted) {
      ESCHED_CHECK(states_.size() < kMaxPhStates,
                   "phase-type exact solve exceeds " +
                       std::to_string(kMaxPhStates) +
                       " states; reduce truncation or phase count, or use "
                       "the sim backend");
      states_.push_back(state);
    }
    return it->second;
  }

  /// The policy's inelastic seat count at (i, j). Throws on fractional
  /// allocations — the phase-count state only models whole servers.
  /// Memoized per (i, j): the augmentation visits each cell once per
  /// phase configuration, so the virtual allocate() would otherwise be
  /// recomputed C(k+m, m) times per cell in the hot enumeration loop.
  long seats_at(long i, long j, double* elastic_out = nullptr) {
    SeatCell& cell =
        seat_cells_[static_cast<std::size_t>(i * (options_.jmax + 1) + j)];
    if (cell.seats < 0) {
      const State state{i, j};
      policy_.check_feasible(state, params_);
      const Allocation a = policy_.allocate(state, params_);
      const long seats = std::lround(a.inelastic);
      ESCHED_CHECK(
          std::abs(a.inelastic - static_cast<double>(seats)) <= 1e-9,
          "policy '" + policy_.name() +
              "' allocates fractional servers to inelastic jobs; phase-type "
              "inelastic sizes need integral allocations (use the sim "
              "backend)");
      cell.seats = seats;
      cell.elastic = a.elastic;
    }
    if (elastic_out != nullptr) *elastic_out = cell.elastic;
    return cell.seats;
  }

  /// Emits the transitions of the event "the system just moved to
  /// (c, w, j)" from state `from` at total rate `rate`: waiting jobs are
  /// admitted into free seats (phases drawn iid from alpha), splitting the
  /// rate across the multinomial phase assignments.
  void emit_with_admissions(std::size_t from, PhState to, double rate) {
    const long started =
        std::accumulate(to.c.begin(), to.c.end(), 0L,
                        [](long acc, int v) { return acc + v; });
    const long i = started + to.w;
    const long seats = seats_at(i, to.j);
    const long admit = std::min(to.w, std::max(0L, seats - started));
    to.w -= admit;
    emit_phase_assignments(from, to, admit, 0, rate);
  }

  /// Builds the reachable chain from the empty system.
  void build() {
    (void)intern(PhState{std::vector<int>(m_, 0), 0, 0});
    const auto& t = dist_.sub_generator();
    const auto& exit = dist_.exit_rates();
    for (std::size_t n = 0; n < states_.size(); ++n) {
      // states_ grows during iteration; copy the current state.
      const PhState st = states_[n];
      const long started =
          std::accumulate(st.c.begin(), st.c.end(), 0L,
                          [](long acc, int v) { return acc + v; });
      const long i = started + st.w;
      double elastic_alloc = 0.0;
      const long seats = seats_at(i, st.j, &elastic_alloc);
      const bool active = seats >= started;
      if (!active) {
        ESCHED_CHECK(
            seats == 0,
            "policy '" + policy_.name() + "' preempts " +
                std::to_string(started - seats) + " of " +
                std::to_string(started) +
                " in-service inelastic jobs while keeping others running; "
                "phase-type inelastic sizes support only all-or-nothing "
                "preemption (use the sim backend)");
      }

      // Inelastic arrival (dropped at the boundary).
      if (i < options_.imax) {
        PhState to = st;
        to.w += 1;
        emit_with_admissions(n, std::move(to), params_.lambda_i);
      }
      // Elastic arrival.
      if (st.j < options_.jmax) {
        PhState to = st;
        to.j += 1;
        emit_with_admissions(n, std::move(to), params_.lambda_e);
      }
      // Phase progression and inelastic completions (served jobs only).
      if (active) {
        for (std::size_t s = 0; s < m_; ++s) {
          if (st.c[s] == 0) continue;
          const double count = static_cast<double>(st.c[s]);
          for (std::size_t s2 = 0; s2 < m_; ++s2) {
            if (s2 == s || t(s, s2) <= 0.0) continue;
            PhState to = st;
            to.c[s] -= 1;
            to.c[s2] += 1;
            add(n, intern(to), count * t(s, s2));
          }
          if (exit[s] > 0.0) {
            PhState to = st;
            to.c[s] -= 1;
            emit_with_admissions(n, std::move(to), count * exit[s]);
          }
        }
      }
      // Elastic completion (elastic sizes stay exponential).
      const double usable = params_.usable_elastic(elastic_alloc, st.j);
      if (st.j > 0 && usable > 0.0) {
        PhState to = st;
        to.j -= 1;
        emit_with_admissions(n, std::move(to), usable * params_.mu_e);
      }
    }
  }

  /// The reachable chain, frozen, and its level partition.
  SparseCtmc build_chain(std::vector<std::uint32_t>* level_of) {
    build();
    SparseCtmc chain(states_.size());
    for (const CtmcTransition& tr : transitions_) {
      chain.add_rate(tr.from, tr.to, tr.rate);
    }
    chain.freeze();

    // The augmented chain is level-structured in i = sum(c) + w: phase
    // progression and admissions preserve i, arrivals/completions move it
    // by one — so the block solver applies to it directly.
    level_of->resize(states_.size());
    for (std::size_t n = 0; n < states_.size(); ++n) {
      const PhState& st = states_[n];
      const long started =
          std::accumulate(st.c.begin(), st.c.end(), 0L,
                          [](long acc, int v) { return acc + v; });
      (*level_of)[n] = static_cast<std::uint32_t>(started + st.w);
    }
    return chain;
  }

  ExactChain chain() {
    std::vector<std::uint32_t> level_of;
    const SparseCtmc built = build_chain(&level_of);
    return {built.rate_matrix(), built.exit_rates(), std::move(level_of)};
  }

  ExactCtmcResult solve() {
    std::vector<std::uint32_t> level_of;
    const SparseCtmc chain = build_chain(&level_of);
    ExactCtmcResult result;
    auto [pi, solve_info] =
        solve_stationary(chain.rate_matrix(), chain.exit_rates(), level_of,
                         options_, &result.prediction);
    result.num_states = states_.size();
    result.solve_info = solve_info;
    for (std::size_t n = 0; n < states_.size(); ++n) {
      const PhState& st = states_[n];
      const long started =
          std::accumulate(st.c.begin(), st.c.end(), 0L,
                          [](long acc, int v) { return acc + v; });
      const long i = started + st.w;
      const double p = pi[n];
      result.mean_jobs_i += static_cast<double>(i) * p;
      result.mean_jobs_e += static_cast<double>(st.j) * p;
      if (i == options_.imax || st.j == options_.jmax) {
        result.boundary_mass += p;
      }
    }
    const double total_lambda = params_.lambda_i + params_.lambda_e;
    result.mean_response_time =
        (result.mean_jobs_i + result.mean_jobs_e) / total_lambda;
    result.mean_response_time_i =
        params_.lambda_i > 0.0 ? result.mean_jobs_i / params_.lambda_i : 0.0;
    result.mean_response_time_e =
        params_.lambda_e > 0.0 ? result.mean_jobs_e / params_.lambda_e : 0.0;
    return result;
  }

 private:
  std::uint64_t encode(const PhState& state) const {
    std::uint64_t key = 0;
    for (std::size_t s = 0; s < m_; ++s) {
      key = key * static_cast<std::uint64_t>(seat_cap_ + 1) +
            static_cast<std::uint64_t>(state.c[s]);
    }
    key = key * static_cast<std::uint64_t>(options_.imax + 1) +
          static_cast<std::uint64_t>(state.w);
    key = key * static_cast<std::uint64_t>(options_.jmax + 1) +
          static_cast<std::uint64_t>(state.j);
    return key;
  }

  void add(std::size_t from, std::size_t to, double rate) {
    transitions_.push_back({from, to, rate});
  }

  /// Distributes `admit` fresh jobs over the initial-phase distribution:
  /// phase s takes d of the remaining jobs with binomial weight
  /// C(n, d) alpha_s^d and the rest recurse into the later phases, which
  /// telescopes to the multinomial law (total emitted probability 1, since
  /// the alphas sum to 1). Zero-probability branches are pruned, so an
  /// Erlang (alpha = e_1) admission stays a single destination.
  void emit_phase_assignments(std::size_t from, const PhState& to, long admit,
                              std::size_t s, double weight) {
    if (admit == 0) {
      add(from, intern(to), weight);
      return;
    }
    ESCHED_ASSERT(s < m_, "phase assignment ran out of phases");
    const double alpha_s = dist_.alpha()[s];
    if (s + 1 == m_) {
      if (alpha_s <= 0.0) return;  // dead branch: jobs cannot start here
      PhState final = to;
      final.c[s] += static_cast<int>(admit);
      double w = weight;
      for (long d = 0; d < admit; ++d) w *= alpha_s;
      add(from, intern(final), w);
      return;
    }
    double choose = 1.0;
    double p_pow = 1.0;
    for (long d = 0; d <= admit; ++d) {
      if (p_pow > 0.0) {
        PhState next = to;
        next.c[s] += static_cast<int>(d);
        emit_phase_assignments(from, next, admit - d, s + 1,
                               weight * choose * p_pow);
      }
      choose = choose * static_cast<double>(admit - d) /
               static_cast<double>(d + 1);
      p_pow *= alpha_s;
    }
  }

  /// Memoized per-(i, j) policy decision (seats < 0 = not yet computed).
  struct SeatCell {
    long seats = -1;
    double elastic = 0.0;
  };

  const SystemParams& params_;
  const AllocationPolicy& policy_;
  const PhaseType& dist_;
  const ExactCtmcOptions& options_;
  const std::size_t m_;
  const long seat_cap_;
  std::vector<SeatCell> seat_cells_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<PhState> states_;
  std::vector<CtmcTransition> transitions_;
};

void check_ph_inputs(const SystemParams& params, const PhaseType& size_dist_i,
                     const ExactCtmcOptions& options) {
  params.validate();
  ESCHED_CHECK(params.stable(), "exact solve requires rho < 1");
  ESCHED_CHECK(options.imax >= 1 && options.jmax >= 1,
               "truncation levels must be >= 1");
  ESCHED_CHECK(params.lambda_i + params.lambda_e > 0.0,
               "exact solve requires some arrivals");
  ESCHED_CHECK(size_dist_i.num_phases() <= kMaxPhPhases,
               "phase-type inelastic size has " +
                   std::to_string(size_dist_i.num_phases()) +
                   " phases; the exact backend supports at most " +
                   std::to_string(kMaxPhPhases) + " (use the sim backend)");
}

}  // namespace

ExactCtmcResult solve_exact_ctmc_ph(const SystemParams& params,
                                    const AllocationPolicy& policy,
                                    const PhaseType& size_dist_i,
                                    const ExactCtmcOptions& options) {
  check_ph_inputs(params, size_dist_i, options);
  PhChainBuilder builder(params, policy, size_dist_i, options);
  return builder.solve();
}

ExactChain exact_chain_ph(const SystemParams& params,
                          const AllocationPolicy& policy,
                          const PhaseType& size_dist_i,
                          const ExactCtmcOptions& options) {
  check_ph_inputs(params, size_dist_i, options);
  PhChainBuilder builder(params, policy, size_dist_i, options);
  return builder.chain();
}

}  // namespace esched
