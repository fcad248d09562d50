// Performance suite emitting schema-versioned BENCH_perf.json snapshots,
// so the perf trajectory is tracked per PR instead of anecdotal:
//  - QBD analysis cost vs k — the paper's pitch against [7]'s truncated
//    MDP approach is that the matrix-analytic solution is cheap and does
//    not truncate; quantify it.
//  - Exact truncated-chain solve cost vs truncation level (the [7]-style
//    baseline this library also ships), plus the phase-type-augmented
//    chain, with peak state counts recorded per case.
//  - Job-level and state-level simulator throughput (jobs/second).
//  - Coxian busy-period fit cost.
//  - Distributed-queue claim/commit overhead per chunk (src/dist) — the
//    coordination cost a worker pays on top of the solver cost.
//
// Dependency-free by design (no google-benchmark): each case runs
// repeatedly until --min-time accumulates, and the JSON carries per-case
// mean/min/max/p50/p90/p99 wall seconds, optional items/second, case
// counters (states, iterations), and host info. Modes:
//
//   bench_perf_solvers --out BENCH_perf.json          # full run
//   bench_perf_solvers --smoke --out BENCH_perf.json  # CI: 1 iter, small args
//   bench_perf_solvers --filter exact                 # substring filter
//   bench_perf_solvers --validate BENCH_perf.json     # schema check, exit 0/1
//
// Compare snapshots across PRs with `diff` or jq; see README
// "Observability". The schema_version field gates automated comparisons.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/ef_analysis.hpp"
#include "core/exact_ctmc.hpp"
#include "core/if_analysis.hpp"
#include "core/policies.hpp"
#include "dist/work_queue.hpp"
#include "engine/shm_cache.hpp"
#include "engine/spec.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/bench_diff.hpp"
#include "phase/fit.hpp"
#include "phase/size_dist.hpp"
#include "queueing/mm1.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/ctmc_sim.hpp"

namespace {

using namespace esched;

// The snapshot format tag and version live in obs/bench_diff (shared with
// `esched bench diff`, so the emitter, validator, and comparator can
// never disagree about the schema): kBenchFormat, kBenchSchemaVersion.

/// Optimization sink: assigning through a volatile keeps the measured
/// computation alive without a compiler-specific DoNotOptimize.
volatile double g_sink = 0.0;

/// One registered case. `body` runs one timed iteration and may fill
/// `counters` (last write wins — counters describe the workload, not the
/// timing). full_only cases are skipped in --smoke mode, which keeps one
/// small representative per family.
struct BenchCase {
  std::string name;
  bool full_only = false;
  double items_per_iteration = 0.0;  ///< > 0 enables items_per_second
  std::function<void(std::map<std::string, double>& counters)> body;
};

struct BenchResult {
  std::string name;
  std::vector<double> samples;  ///< per-iteration wall seconds
  double items_per_iteration = 0.0;
  std::map<std::string, double> counters;
};

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// Times `bench.body` until `min_time` seconds accumulate (at least one
/// iteration, at most 10000). Smoke mode passes min_time 0 → exactly one.
BenchResult run_case(const BenchCase& bench, double min_time) {
  BenchResult result;
  result.name = bench.name;
  result.items_per_iteration = bench.items_per_iteration;
  double total = 0.0;
  while (result.samples.empty() ||
         (total < min_time && result.samples.size() < 10000)) {
    const auto start = std::chrono::steady_clock::now();
    bench.body(result.counters);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    result.samples.push_back(seconds);
    total += seconds;
  }
  return result;
}

JsonValue host_info() {
  JsonValue host = JsonValue::make_object();
  std::string hostname = "unknown";
#if __has_include(<unistd.h>)
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    hostname = buf;
  }
#endif
  host.set("hostname", JsonValue::make_string(hostname));
  host.set("hardware_threads",
           JsonValue::make_number(
               static_cast<double>(std::thread::hardware_concurrency())));
#if defined(__VERSION__)
  host.set("compiler", JsonValue::make_string(__VERSION__));
#else
  host.set("compiler", JsonValue::make_string("unknown"));
#endif
  host.set("pointer_bits",
           JsonValue::make_number(static_cast<double>(sizeof(void*) * 8)));
#if defined(NDEBUG)
  host.set("assertions", JsonValue::make_bool(false));
#else
  host.set("assertions", JsonValue::make_bool(true));
#endif
  return host;
}

JsonValue result_to_json(const BenchResult& r) {
  std::vector<double> sorted = r.samples;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (const double s : sorted) sum += s;
  const double mean = sum / static_cast<double>(sorted.size());
  JsonValue entry = JsonValue::make_object();
  entry.set("name", JsonValue::make_string(r.name));
  entry.set("iterations",
            JsonValue::make_number(static_cast<double>(sorted.size())));
  entry.set("mean_seconds", JsonValue::make_number(mean));
  entry.set("min_seconds", JsonValue::make_number(sorted.front()));
  entry.set("max_seconds", JsonValue::make_number(sorted.back()));
  entry.set("p50_seconds", JsonValue::make_number(percentile(sorted, 0.50)));
  entry.set("p90_seconds", JsonValue::make_number(percentile(sorted, 0.90)));
  entry.set("p99_seconds", JsonValue::make_number(percentile(sorted, 0.99)));
  if (r.items_per_iteration > 0.0 && mean > 0.0) {
    entry.set("items_per_second",
              JsonValue::make_number(r.items_per_iteration / mean));
  }
  if (!r.counters.empty()) {
    JsonValue counters = JsonValue::make_object();
    for (const auto& [name, value] : r.counters) {
      counters.set(name, JsonValue::make_number(value));
    }
    entry.set("counters", std::move(counters));
  }
  return entry;
}

// ---------------------------------------------------------------------------
// Case registration. Mirrors the historical google-benchmark suite: same
// workloads, same arguments, so old anecdotal numbers stay comparable.

std::vector<BenchCase> build_cases() {
  std::vector<BenchCase> cases;

  for (const int k : {2, 4, 8, 16, 32, 64}) {
    cases.push_back(
        {"if_analysis/k=" + std::to_string(k), k != 4, 0.0,
         [k](std::map<std::string, double>& counters) {
           const SystemParams p = SystemParams::from_load(k, 2.0, 1.0, 0.8);
           const ResponseTimeAnalysis a = analyze_inelastic_first(p);
           g_sink = a.mean_response_time;
           counters["qbd_iterations"] = a.qbd_iterations;
         }});
  }
  for (const int k : {2, 4, 16, 64}) {
    cases.push_back(
        {"ef_analysis/k=" + std::to_string(k), k != 4, 0.0,
         [k](std::map<std::string, double>& counters) {
           const SystemParams p = SystemParams::from_load(k, 2.0, 1.0, 0.8);
           const ResponseTimeAnalysis a = analyze_elastic_first(p);
           g_sink = a.mean_response_time;
           counters["qbd_iterations"] = a.qbd_iterations;
         }});
  }
  for (const long trunc : {20L, 40L, 80L, 160L}) {
    cases.push_back(
        {"exact_ctmc/trunc=" + std::to_string(trunc), trunc != 20, 0.0,
         [trunc](std::map<std::string, double>& counters) {
           const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
           ExactCtmcOptions opt;
           opt.imax = opt.jmax = trunc;
           const ExactCtmcResult r =
               solve_exact_ctmc(p, InelasticFirst{}, opt);
           g_sink = r.mean_response_time;
           counters["states"] = static_cast<double>(r.num_states);
           counters["solver_iterations"] =
               static_cast<double>(r.solve_info.iterations);
         }});
  }
  // The same truncated solve with Erlang-3 inelastic sizes: the state
  // augmentation multiplies the space by the seat-phase configurations,
  // which is the cost of dropping the Exp(mu_I) assumption exactly.
  for (const long trunc : {20L, 40L, 80L}) {
    cases.push_back(
        {"exact_ctmc_ph_erlang3/trunc=" + std::to_string(trunc), trunc != 20,
         0.0, [trunc](std::map<std::string, double>& counters) {
           const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
           const PhaseType erl3 =
               SizeDistSpec::parse("erlang:3").compile(p.mu_i);
           ExactCtmcOptions opt;
           opt.imax = opt.jmax = trunc;
           const ExactCtmcResult r =
               solve_exact_ctmc_ph(p, InelasticFirst{}, erl3, opt);
           g_sink = r.mean_response_time;
           counters["states"] = static_cast<double>(r.num_states);
         }});
  }
  // CSR-sweep SOR cost on the plain chain (explicit method=sor): the
  // iterative baseline the direct solvers below are judged against.
  for (const long trunc : {40L, 80L}) {
    cases.push_back(
        {"sor_csr/trunc=" + std::to_string(trunc), trunc != 40, 0.0,
         [trunc](std::map<std::string, double>& counters) {
           const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
           ExactCtmcOptions opt;
           opt.imax = opt.jmax = trunc;
           opt.method = StationaryMethod::kSor;
           const ExactCtmcResult r =
               solve_exact_ctmc(p, InelasticFirst{}, opt);
           g_sink = r.mean_response_time;
           counters["states"] = static_cast<double>(r.num_states);
           counters["solver_iterations"] =
               static_cast<double>(r.solve_info.iterations);
         }});
  }
  // Direct solvers head to head on the same chain: dense GTH is O(n^3) in
  // the full state count, block elimination O(levels * block^3) — same
  // stationary vector to ~1e-10.
  for (const long trunc : {20L, 40L}) {
    for (const StationaryMethod method :
         {StationaryMethod::kGth, StationaryMethod::kBlock}) {
      cases.push_back(
          {"exact_block_vs_gth/method=" +
               std::string(stationary_method_name(method)) +
               "/trunc=" + std::to_string(trunc),
           trunc != 20, 0.0,
           [trunc, method](std::map<std::string, double>& counters) {
             const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
             ExactCtmcOptions opt;
             opt.imax = opt.jmax = trunc;
             opt.method = method;
             const ExactCtmcResult r =
                 solve_exact_ctmc(p, InelasticFirst{}, opt);
             g_sink = r.mean_response_time;
             counters["states"] = static_cast<double>(r.num_states);
           }});
    }
  }
  // The PR 7 headline A/B: the phase-augmented chain at imax=jmax=120
  // (58201 states), where SOR needs ~29k sweeps at this load and the block
  // solver replaces them with one backward/forward elimination pass.
  for (const StationaryMethod method :
       {StationaryMethod::kBlock, StationaryMethod::kSor}) {
    cases.push_back(
        {"exact_ph_erlang4_rho995_trunc120/method=" +
             std::string(stationary_method_name(method)),
         true, 0.0, [method](std::map<std::string, double>& counters) {
           const SystemParams p = SystemParams::from_load(1, 1.0, 1.0, 0.995);
           const PhaseType erl4 =
               SizeDistSpec::parse("erlang:4").compile(p.mu_i);
           ExactCtmcOptions opt;
           opt.imax = opt.jmax = 120;
           opt.method = method;
           const ExactCtmcResult r =
               solve_exact_ctmc_ph(p, InelasticFirst{}, erl4, opt);
           g_sink = r.mean_response_time;
           counters["states"] = static_cast<double>(r.num_states);
           counters["solver_iterations"] =
               static_cast<double>(r.solve_info.iterations);
         }});
  }
  // Auto's method choice against both forced methods on the chains where
  // a flop gate used to pick wrong: Erlang-3 chains whose dense blocks make
  // SOR the faster method, and rho = 0.9 exponential chains where block
  // is. The counters are the cost model's features and predictions, and
  // stationary_s (fastest iteration) is what the model predicts: the fit
  // of auto's coefficients in core/exact_ctmc.cpp reads these cases.
  struct AutoChain {
    const char* name;
    int k;
    const char* policy;
    const char* size_dist_i;  ///< nullptr = exponential
    long truncation;
  };
  for (const AutoChain& chain : {
           AutoChain{"erlang3_k4_trunc20_IF", 4, "IF", "erlang:3", 20},
           AutoChain{"erlang3_k4_trunc20_EF", 4, "EF", "erlang:3", 20},
           AutoChain{"erlang3_k8_trunc14_IF", 8, "IF", "erlang:3", 14},
           AutoChain{"exp_k4_eps1e-4_IF", 4, "IF", nullptr,
                     suggested_truncation(0.9, 1e-4)},
           AutoChain{"exp_k4_eps1e-9_IF", 4, "IF", nullptr,
                     suggested_truncation(0.9, 1e-9)}}) {
    for (const StationaryMethod method :
         {StationaryMethod::kAuto, StationaryMethod::kBlock,
          StationaryMethod::kSor}) {
      const bool smoke_case = chain.size_dist_i != nullptr &&
                              chain.k == 4 && chain.policy[0] == 'I' &&
                              method == StationaryMethod::kAuto;
      cases.push_back(
          {"exact_auto/" + std::string(chain.name) +
               "/method=" + stationary_method_name(method),
           !smoke_case, 0.0,
           [chain, method](std::map<std::string, double>& counters) {
             const bool erlang = chain.size_dist_i != nullptr;
             const SystemParams p = SystemParams::from_load(
                 chain.k, 1.0, 1.0, erlang ? 0.7 : 0.9);
             const auto policy = make_policy(chain.policy);
             ExactCtmcOptions opt;
             opt.imax = opt.jmax = chain.truncation;
             opt.method = method;
             const ExactCtmcResult r =
                 erlang ? solve_exact_ctmc_ph(
                              p, *policy,
                              SizeDistSpec::parse(chain.size_dist_i)
                                  .compile(p.mu_i),
                              opt)
                        : solve_exact_ctmc(p, *policy, opt);
             g_sink = r.mean_response_time;
             const ExactCostPrediction& model = r.prediction;
             counters["states"] = static_cast<double>(r.num_states);
             counters["levels"] = model.levels;
             counters["nnz"] = model.nnz;
             counters["flop_estimate"] = model.flop_estimate;
             counters["workspace_bytes"] = model.workspace_bytes;
             counters["predicted_block_s"] = model.block_seconds;
             counters["predicted_sor_s"] = model.sor_seconds;
             counters["ran_block"] = r.solve_info.method == "block" ? 1 : 0;
             counters["solver_iterations"] =
                 static_cast<double>(r.solve_info.iterations);
             const auto [it, fresh] =
                 counters.try_emplace("stationary_s", r.solve_info.seconds);
             if (!fresh) it->second = std::min(it->second, r.solve_info.seconds);
           }});
    }
  }
  {
    constexpr std::uint64_t kJobs = 20000;
    // Per-iteration seed bump keeps iterations honest (no chance of the
    // branch predictor learning one fixed trace) without touching any
    // engine RNG stream.
    auto seed = std::make_shared<std::uint64_t>(1);
    cases.push_back(
        {"sim_job_level", false, static_cast<double>(kJobs),
         [seed](std::map<std::string, double>& counters) {
           const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
           SimOptions opt;
           opt.num_jobs = kJobs;
           opt.warmup_jobs = 1000;
           opt.seed = (*seed)++;
           g_sink = simulate(p, InelasticFirst{}, opt).mean_response_time.mean;
           counters["jobs"] = static_cast<double>(kJobs);
         }});
  }
  {
    auto seed = std::make_shared<std::uint64_t>(1);
    cases.push_back(
        {"sim_ctmc", false, 0.0,
         [seed](std::map<std::string, double>&) {
           const SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
           CtmcSimOptions opt;
           opt.horizon = 10000.0;
           opt.warmup = 500.0;
           opt.seed = (*seed)++;
           g_sink = simulate_ctmc(p, InelasticFirst{}, opt).mean_response_time;
         }});
  }
  cases.push_back({"coxian2_fit", false, 0.0,
                   [](std::map<std::string, double>&) {
                     const Moments3 m = MM1(0.9, 1.0).busy_period_moments();
                     g_sink = fit_coxian2(m).nu1;
                   }});

  // Hot-path result-cache lookups on the mmap'd open-addressing table
  // (engine/shm_cache). One iteration hits every prewarmed key once, so
  // items_per_second is warm hits/second.
  {
    constexpr std::size_t kCacheKeys = 256;
    const auto bench_key = [](std::size_t i) {
      return "bench;cache;solver=qbd;point=" + std::to_string(i);
    };
    const auto bench_result = [](std::size_t i) {
      RunResult r;
      r.mean_response_time = 1.0 + 0.001 * static_cast<double>(i);
      r.mean_jobs_i = 0.5 * static_cast<double>(i);
      r.num_states = static_cast<long>(i);
      r.solver_iterations = static_cast<int>(i % 97);
      r.solve_residual = 1e-12;
      return r;
    };
    cases.push_back(
        {"cache_hot_path/shm_probe_hit", false,
         static_cast<double>(kCacheKeys),
         [bench_key, bench_result](std::map<std::string, double>& counters) {
           namespace fs = std::filesystem;
           static const auto table = [&] {
             const std::string dir =
                 (fs::temp_directory_path() / "esched_bench_cache_shm")
                     .string();
             fs::remove_all(dir);
             auto t = std::make_unique<ShmResultCache>(dir, 1024);
             for (std::size_t i = 0; i < kCacheKeys; ++i) {
               t->store(bench_key(i), bench_result(i));
             }
             return t;
           }();
           double sum = 0.0;
           for (std::size_t i = 0; i < kCacheKeys; ++i) {
             const auto hit = table->load(bench_key(i));
             sum += hit ? hit->mean_response_time : 0.0;
           }
           g_sink = sum;
           counters["keys"] = static_cast<double>(kCacheKeys);
           counters["slot_count"] = static_cast<double>(table->slot_count());
         }});
    // Fresh-table stores (creation + ftruncate + kCacheKeys CAS-claimed
    // publishes per iteration) — the cold half of the table's life.
    cases.push_back(
        {"cache_hot_path/shm_store", true, static_cast<double>(kCacheKeys),
         [bench_key, bench_result](std::map<std::string, double>& counters) {
           namespace fs = std::filesystem;
           static std::uint64_t run_id = 0;
           const std::string dir =
               (fs::temp_directory_path() /
                ("esched_bench_cache_store." + std::to_string(++run_id)))
                   .string();
           fs::remove_all(dir);
           auto table = std::make_unique<ShmResultCache>(dir, 1024);
           for (std::size_t i = 0; i < kCacheKeys; ++i) {
             table->store(bench_key(i), bench_result(i));
           }
           counters["keys"] = static_cast<double>(kCacheKeys);
           table.reset();
           fs::remove_all(dir);
         }});
  }
  // Warm full-rerun wall clock: a complete SweepRunner pass where every
  // point is a --cache-dir hit. This is the user-visible number behind the
  // hot-path cases above — the cost of re-running a finished sweep.
  cases.push_back(
      {"cache_warm_rerun/table", true, 336.0,
       [](std::map<std::string, double>& counters) {
         namespace fs = std::filesystem;
         static const std::vector<RunPoint> points = [] {
           Scenario scenario;
           scenario.name = "bench-cache";
           scenario.k_values = {2, 4, 8, 16};
           scenario.rho_values = {0.5, 0.7, 0.9};
           for (int n = 0; n < 14; ++n) {
             scenario.mu_i_values.push_back(0.5 + 0.1 * n);
           }
           scenario.policies = {"IF", "EF"};
           scenario.solvers = {SolverKind::kMmkBaseline};
           return scenario.expand();
         }();
         static const std::string dir = [] {
           const std::string path =
               (fs::temp_directory_path() / "esched_bench_cache_rerun_table")
                   .string();
           fs::remove_all(path);
           SweepRunner warmer(1);
           warmer.set_cache_dir(path);
           warmer.run(points, nullptr);
           return path;
         }();
         SweepRunner runner(1);
         runner.set_cache_dir(dir);
         SweepStats stats;
         const auto results = runner.run(points, &stats);
         g_sink = results.front().mean_response_time;
         counters["points"] = static_cast<double>(points.size());
         counters["disk_hits"] = static_cast<double>(stats.disk_hits);
       }});

  // Pure coordination overhead of the distributed queue: one claim (task
  // scan + atomic rename + owner stamp) plus one commit (chunk CSV + JSON
  // written atomically, done record, lease drop) per iteration, with the
  // solver replaced by precomputed results. The per-POINT overhead divides
  // by the chunk size, which is why even a few-ms chunk cost vanishes next
  // to real solves once chunks hold dozens of points.
  for (const std::size_t chunk_size : {std::size_t{1}, std::size_t{16},
                                       std::size_t{64}}) {
    // One iteration inits a fresh queue and drains all 64 points through
    // claim+commit, so items_per_second is protocol points/second at this
    // chunk size.
    cases.push_back(
        {"queue_claim_commit/chunk=" + std::to_string(chunk_size),
         chunk_size != 16, 64.0,
         [chunk_size](std::map<std::string, double>& counters) {
           namespace fs = std::filesystem;
           static std::uint64_t run_id = 0;
           const std::string dir =
               (fs::temp_directory_path() /
                ("esched_bench_queue." + std::to_string(++run_id)))
                   .string();
           // A 64-point sweep on the closed-form mmk backend; solved up
           // front so the timed body measures the queue protocol.
           static const auto fixture = [] {
             Scenario scenario;
             scenario.name = "bench-queue";
             scenario.k_values = {4};
             scenario.rho_values = {0.9};
             for (int n = 1; n < 64; ++n) {
               scenario.mu_i_values.push_back(0.5 + 0.01 * n);
             }
             scenario.policies = {"IF"};
             scenario.solvers = {SolverKind::kMmkBaseline};
             LoadedSweep sweep;
             sweep.scenarios = {scenario};
             sweep.grids = {scenario.expand()};
             sweep.scenario_size_dist = {false};
             sweep.total_points = sweep.grids.front().size();
             std::vector<RunResult> results;
             for (const RunPoint& point : sweep.concatenated()) {
               results.push_back(dispatch_run(point));
             }
             return std::make_pair(sweep, results);
           }();
           const LoadedSweep& sweep = fixture.first;
           const std::vector<RunPoint> points = sweep.concatenated();
           const std::vector<RunResult>& results = fixture.second;
           fs::remove_all(dir);
           WorkQueue queue = WorkQueue::init(dir, sweep, chunk_size);
           SweepStats stats;
           stats.total_points = chunk_size;
           std::size_t chunks = 0;
           for (const ChunkTask& task : queue.pending_tasks()) {
             if (!queue.claim(task, "bench")) continue;
             const std::vector<RunPoint> slice(
                 points.begin() + static_cast<std::ptrdiff_t>(task.begin),
                 points.begin() + static_cast<std::ptrdiff_t>(task.end));
             const std::vector<RunResult> slice_results(
                 results.begin() + static_cast<std::ptrdiff_t>(task.begin),
                 results.begin() + static_cast<std::ptrdiff_t>(task.end));
             queue.commit(task, "bench", slice, slice_results, stats);
             ++chunks;
           }
           counters["chunks"] = static_cast<double>(chunks);
           counters["points"] = static_cast<double>(points.size());
           fs::remove_all(dir);
         }});
  }
  return cases;
}

// ---------------------------------------------------------------------------
// Validation: the schema contract CI enforces on every emitted snapshot.
// Delegates to the shared loader in obs/bench_diff — the same parse
// `esched bench diff` applies to both of its inputs — so --validate
// passing guarantees the snapshot feeds the perf gate.

void validate_snapshot(const std::string& path) {
  const BenchSnapshot snapshot = load_bench_snapshot(path);
  ESCHED_CHECK(!snapshot.cases.empty(),
               path + ": snapshot holds no benchmark cases");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out PATH] [--smoke] [--filter SUBSTR] "
               "[--min-time SECONDS] [--list]\n"
               "       %s --validate PATH\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_perf.json";
  std::string filter;
  std::string validate_path;
  bool smoke = false;
  bool list = false;
  double min_time = 0.2;
  for (int n = 1; n < argc; ++n) {
    const std::string arg = argv[n];
    const auto next = [&]() -> const char* {
      if (n + 1 >= argc) return nullptr;
      return argv[++n];
    };
    if (arg == "--out") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      out_path = value;
    } else if (arg == "--filter") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      filter = value;
    } else if (arg == "--validate") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      validate_path = value;
    } else if (arg == "--min-time") {
      const char* value = next();
      if (value == nullptr) return usage(argv[0]);
      min_time = std::atof(value);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--list") {
      list = true;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    if (!validate_path.empty()) {
      validate_snapshot(validate_path);
      std::printf("%s: valid %s snapshot (schema_version %d)\n",
                  validate_path.c_str(), kBenchFormat, kBenchSchemaVersion);
      return 0;
    }

    const std::vector<BenchCase> cases = build_cases();
    if (list) {
      for (const BenchCase& bench : cases) {
        std::printf("%s%s\n", bench.name.c_str(),
                    bench.full_only ? " (full only)" : "");
      }
      return 0;
    }

    JsonValue root = JsonValue::make_object();
    root.set("format", JsonValue::make_string(kBenchFormat));
    root.set("schema_version",
             JsonValue::make_number(static_cast<double>(kBenchSchemaVersion)));
    root.set("mode", JsonValue::make_string(smoke ? "smoke" : "full"));
    root.set("min_time_seconds",
             JsonValue::make_number(smoke ? 0.0 : min_time));
    root.set("host", host_info());
    JsonValue benchmarks = JsonValue::make_array();
    for (const BenchCase& bench : cases) {
      if (smoke && bench.full_only) continue;
      if (!filter.empty() && bench.name.find(filter) == std::string::npos) {
        continue;
      }
      const BenchResult result = run_case(bench, smoke ? 0.0 : min_time);
      double sum = 0.0;
      for (const double s : result.samples) sum += s;
      std::fprintf(stderr, "%-32s %6zu iters  mean %.6f s\n",
                   result.name.c_str(), result.samples.size(),
                   sum / static_cast<double>(result.samples.size()));
      benchmarks.push_back(result_to_json(result));
    }
    ESCHED_CHECK(!benchmarks.as_array("benchmarks").empty(),
                 filter.empty() ? "no benchmark cases registered"
                                : "--filter '" + filter +
                                      "' matched no benchmark case");
    root.set("benchmarks", std::move(benchmarks));
    atomic_write_file(out_path, root.dump() + "\n");
    std::printf("wrote %s (%s mode)\n", out_path.c_str(),
                smoke ? "smoke" : "full");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_perf_solvers: %s\n", e.what());
    return 1;
  }
}
