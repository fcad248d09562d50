#include "engine/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"
#include "engine/shm_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace esched {

namespace {

/// Sweep-level observability handles, resolved once (registry lookups
/// take a mutex; these updates must stay off the workers' lock path).
struct RunnerMetrics {
  Counter& points_total;       ///< sweep.points.total
  Counter& points_solved;      ///< sweep.points.solved (fresh solves)
  Counter& points_failed;      ///< sweep.points.failed
  Counter& memo_hits;          ///< sweep.memo.hits
  Counter& disk_hits;          ///< sweep.disk.hits
  Counter& dup_points;         ///< sweep.dup.points (intra-call repeats)
  LogHistogram& point_seconds; ///< sweep.point.seconds (all backends)
  LogHistogram& queue_wait;    ///< sweep.queue_wait.seconds
  LogHistogram& utilization;   ///< sweep.thread.utilization (busy fraction)
  LogHistogram& run_seconds;   ///< sweep.run.seconds (per run() call)
};

RunnerMetrics& runner_metrics() {
  static RunnerMetrics metrics = [] {
    MetricsRegistry& m = global_metrics();
    return RunnerMetrics{m.counter("sweep.points.total"),
                         m.counter("sweep.points.solved"),
                         m.counter("sweep.points.failed"),
                         m.counter("sweep.memo.hits"),
                         m.counter("sweep.disk.hits"),
                         m.counter("sweep.dup.points"),
                         m.histogram("sweep.point.seconds"),
                         m.histogram("sweep.queue_wait.seconds"),
                         m.histogram("sweep.thread.utilization"),
                         m.histogram("sweep.run.seconds")};
  }();
  return metrics;
}

/// The copy of a result handed to callers for cache-served points: honest
/// provenance (from_cache) and ~zero cost (solve_seconds), so ETA and
/// cache-effectiveness arithmetic downstream never double-counts the
/// original solve's wall time. The caches themselves keep real timings.
RunResult cached_copy(const RunResult& result) {
  RunResult copy = result;
  copy.from_cache = true;
  copy.solve_seconds = 0.0;
  return copy;
}

}  // namespace

void SweepStats::add(const SweepStats& other) {
  total_points += other.total_points;
  solved_points += other.solved_points;
  cache_hits += other.cache_hits;
  disk_hits += other.disk_hits;
  wall_seconds += other.wall_seconds;
  solve_seconds_total += other.solve_seconds_total;
  threads_used = std::max(threads_used, other.threads_used);
}

JsonValue sweep_stats_to_json(const SweepStats& stats) {
  JsonValue root = JsonValue::make_object();
  const auto set = [&root](const char* key, double value) {
    root.set(key, JsonValue::make_number(value));
  };
  set("total_points", static_cast<double>(stats.total_points));
  set("solved_points", static_cast<double>(stats.solved_points));
  set("cache_hits", static_cast<double>(stats.cache_hits));
  set("disk_hits", static_cast<double>(stats.disk_hits));
  set("threads", stats.threads_used);
  set("wall_seconds", stats.wall_seconds);
  set("solve_seconds", stats.solve_seconds_total);
  return root;
}

SweepStats sweep_stats_from_json(const JsonValue& value,
                                 const std::string& where) {
  value.as_object(where);
  const auto count = [&](const char* key, long long max) {
    const JsonValue* v = value.find(key);
    return v == nullptr ? 0LL : v->as_integer(where + "." + key, 0, max);
  };
  const auto seconds = [&](const char* key) {
    const JsonValue* v = value.find(key);
    return v == nullptr ? 0.0 : v->as_number(where + "." + key);
  };
  constexpr long long kMax = std::numeric_limits<long long>::max();
  SweepStats stats;
  stats.total_points = static_cast<std::size_t>(count("total_points", kMax));
  stats.solved_points = static_cast<std::size_t>(count("solved_points", kMax));
  stats.cache_hits = static_cast<std::size_t>(count("cache_hits", kMax));
  stats.disk_hits = static_cast<std::size_t>(count("disk_hits", kMax));
  stats.threads_used =
      static_cast<int>(count("threads", std::numeric_limits<int>::max()));
  stats.wall_seconds = seconds("wall_seconds");
  stats.solve_seconds_total = seconds("solve_seconds");
  return stats;
}

SweepRunner::SweepRunner(int num_threads) : num_threads_(num_threads) {
  ESCHED_CHECK(num_threads >= 0, "thread count must be >= 0");
  if (num_threads_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads_ = hw == 0 ? 1 : static_cast<int>(hw);
  }
}

SweepRunner::~SweepRunner() = default;

void SweepRunner::set_cache_dir(const std::string& directory) {
  disk_cache_ = std::make_unique<ShmResultCache>(directory);
}

std::vector<RunResult> SweepRunner::run(const std::vector<RunPoint>& points,
                                        SweepStats* stats,
                                        const RowCallback& on_row) {
  const auto start = std::chrono::steady_clock::now();
  const auto seconds_since_start = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  RunnerMetrics& metrics = runner_metrics();
  metrics.points_total.add(points.size());
  if (TraceWriter* t = global_trace()) {
    t->event("sweep_start",
             {{"points", points.size()}, {"threads", num_threads_}});
  }
  // The sweep span nests under an open chunk span when a dist worker is
  // driving this call (same thread), and is a root otherwise. Point spans
  // solved on pool threads pass this id explicitly — a fresh thread has an
  // empty span stack, so auto-parenting cannot reach across.
  const TraceSpan sweep_span("sweep", {{"points", points.size()},
                                       {"threads", num_threads_}});
  const std::uint64_t sweep_span_id = sweep_span.id();

  // Deduplicate: first occurrence of each unmemoized key becomes a job, so
  // a point repeated across figure axes solves exactly once. Memo misses
  // consult the disk cache before becoming jobs. Points resolvable right
  // now (memo/disk hits) fire on_row immediately — delivered as
  // cached_copy, since their solve cost was paid earlier — while the rest
  // join their key's job and fire when its one solve lands.
  std::vector<std::string> keys;
  keys.reserve(points.size());
  std::vector<RunResult> results(points.size());
  std::vector<std::size_t> jobs;  // indices into `points` to solve now
  // Input indices of each job's key: the job's own index, then the
  // in-call duplicates.
  std::unordered_map<std::string, std::vector<std::size_t>> job_indices;
  std::size_t disk_hits = 0;
  for (std::size_t n = 0; n < points.size(); ++n) {
    keys.push_back(points[n].cache_key());
    const std::string& key = keys.back();
    if (auto job = job_indices.find(key); job != job_indices.end()) {
      metrics.dup_points.add();
      job->second.push_back(n);
      continue;
    }
    auto hit = memo_.find(key);
    if (hit != memo_.end()) {
      metrics.memo_hits.add();
      if (TraceWriter* t = global_trace()) {
        t->event("cache_hit", {{"index", n}});
      }
    } else if (disk_cache_ != nullptr) {
      if (auto loaded = disk_cache_->load(key)) {
        hit = memo_.emplace(key, *loaded).first;
        ++disk_hits;
        metrics.disk_hits.add();
        if (TraceWriter* t = global_trace()) {
          t->event("disk_hit", {{"index", n}});
        }
      }
    }
    if (hit != memo_.end()) {
      results[n] = cached_copy(hit->second);
      if (on_row != nullptr) on_row(n, points[n], results[n]);
      continue;
    }
    job_indices[key].push_back(n);
    jobs.push_back(n);
  }

  // Fan the jobs over the pool via an atomic work index, in input order.
  // Every point is its own job — exact points too: rebuilding a chain per
  // point costs far less than its solve, and a shared-topology batch would
  // run serially on one thread. Each point's solve is independent and
  // pure, so completion order cannot affect the results.
  std::atomic<std::size_t> next_job{0};
  std::mutex error_mutex;
  std::string first_error;
  const auto record_error = [&](const std::string& key, const char* what) {
    metrics.points_failed.add();
    if (TraceWriter* t = global_trace()) {
      t->event("point_error", {{"key", key}, {"error", what}});
    }
    std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error.empty()) {
      first_error = "sweep point '" + key + "' failed: " + what;
    }
  };
  std::mutex callback_mutex;
  bool callback_failed = false;  // guarded by callback_mutex
  // Each job writes only its own slots: results[n] and solved[j]. The memo
  // stays on the calling thread; the disk table takes each result as it
  // lands, so a killed run keeps its solves.
  std::vector<char> solved(jobs.size(), 0);
  const auto store = [&](std::size_t j, const RunResult& result) {
    const std::size_t n = jobs[j];
    results[n] = result;
    solved[j] = 1;
    if (disk_cache_ != nullptr) disk_cache_->store(keys[n], result);
    metrics.points_solved.add();
    metrics.point_seconds.record(result.solve_seconds);
    if (TraceWriter* t = global_trace()) {
      t->event("point_done",
               {{"index", n},
                {"solver", solver_name(points[n].solver)},
                {"policy", points[n].policy},
                {"seconds", result.solve_seconds}});
    }
    if (on_row == nullptr) return;
    // Deliver to every input index waiting on this key, serially: the
    // mutex both orders concurrent deliveries and publishes them, so the
    // callback can be lock-free. A throwing callback (e.g. a streaming
    // resume mismatch) fails the whole run with its own message — and
    // ends all further delivery, so a consumer that rejected one row is
    // never handed more — while workers keep solving into the caches.
    // The solving index itself (always the first) sees the fresh result;
    // duplicate indices see a cached_copy, matching the provenance
    // reported on the returned vector.
    std::lock_guard<std::mutex> lock(callback_mutex);
    if (callback_failed) return;
    try {
      for (const std::size_t index : job_indices.at(keys[n])) {
        on_row(index, points[index],
               index == n ? result : cached_copy(result));
      }
    } catch (const std::exception& e) {
      callback_failed = true;
      std::lock_guard<std::mutex> error_lock(error_mutex);
      if (first_error.empty()) {
        first_error = std::string("row callback failed: ") + e.what();
      }
    }
  };
  const auto worker = [&] {
    const auto thread_start = std::chrono::steady_clock::now();
    double busy_seconds = 0.0;
    bool worked = false;
    for (;;) {
      const std::size_t j = next_job.fetch_add(1);
      if (j >= jobs.size()) break;
      // Time from run() start to pickup: how long this job sat queued
      // behind other work.
      metrics.queue_wait.record(seconds_since_start());
      worked = true;
      const auto job_start = std::chrono::steady_clock::now();
      const std::size_t n = jobs[j];
      try {
        const TraceSpan point_span(
            "point",
            {{"index", n},
             {"solver", solver_name(points[n].solver)},
             {"policy", points[n].policy}},
            sweep_span_id);
        const RunResult result = [&] {
          // Inner solve span: separates pure solver time from the
          // store/deliver tail the point span also covers.
          const TraceSpan solve_span(
              "solve", {{"solver", solver_name(points[n].solver)}});
          return dispatch_run(points[n]);
        }();
        store(j, result);
      } catch (const std::exception& e) {
        record_error(keys[n], e.what());
      }
      busy_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        job_start)
              .count();
    }
    // Busy fraction of this worker's lifetime — only for threads that
    // actually got work, so a late-starting thread on a drained queue
    // does not drag the distribution toward zero.
    if (worked) {
      const double alive =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        thread_start)
              .count();
      metrics.utilization.record(alive > 0.0 ? busy_seconds / alive : 1.0);
    }
  };
  const int pool_size = static_cast<int>(std::min<std::size_t>(
      jobs.size(), static_cast<std::size_t>(num_threads_)));
  if (pool_size <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(pool_size));
    for (int t = 0; t < pool_size; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }

  // Memoize every fresh result — those of a failed run too, so a rerun
  // solves only what is missing — and hand its in-call duplicates a
  // cached_copy. Sum solve seconds in input order, as on one thread.
  double solve_seconds_total = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (solved[j] == 0) continue;
    const std::size_t n = jobs[j];
    memo_.emplace(keys[n], results[n]);
    solve_seconds_total += results[n].solve_seconds;
    for (const std::size_t index : job_indices.at(keys[n])) {
      if (index != n) results[index] = cached_copy(results[n]);
    }
  }
  if (!first_error.empty()) throw Error(first_error);
  const std::size_t cache_hits = points.size() - jobs.size();

  const double wall_seconds = seconds_since_start();
  metrics.run_seconds.record(wall_seconds);
  if (TraceWriter* t = global_trace()) {
    t->event("sweep_done", {{"points", points.size()},
                            {"solved", jobs.size()},
                            {"cache_hits", cache_hits},
                            {"wall_seconds", wall_seconds}});
  }
  if (stats != nullptr) {
    stats->total_points = points.size();
    stats->solved_points = jobs.size();
    stats->cache_hits = cache_hits;
    stats->disk_hits = disk_hits;
    stats->threads_used = pool_size;
    stats->wall_seconds = wall_seconds;
    stats->solve_seconds_total = solve_seconds_total;
  }
  return results;
}

}  // namespace esched
