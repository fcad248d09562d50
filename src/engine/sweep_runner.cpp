#include "engine/sweep_runner.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/numeric.hpp"
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

ResultCache::Shard& ResultCache::shard_for(const std::string& key) const {
  // Same hash family as the disk tier's file names and the mmap table's
  // home slots; the shard index is a pure function of the key, so layout
  // never depends on insertion (i.e. scheduling) order.
  return shards_[fnv1a64(key) & (kShardCount - 1)];
}

std::optional<RunResult> ResultCache::lookup(const std::string& key) const {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.results.find(key);
  if (it == shard.results.end()) return std::nullopt;
  return it->second;
}

void ResultCache::insert(const std::string& key, const RunResult& result) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.results.insert_or_assign(key, result);
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.results.size();
  }
  return total;
}

void ResultCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.results.clear();
  }
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

  // Deduplicate: first occurrence of each uncached key becomes a job, so a
  // point repeated across figure axes solves exactly once. Memory misses
  // consult the disk cache before becoming jobs. Points resolvable right
  // now (memo/disk hits) fire on_row immediately — delivered as
  // cached_copy, since their solve cost was paid earlier — while the rest
  // register as waiters on their key and fire when the one solve of that
  // key lands.
  std::vector<std::string> keys;
  keys.reserve(points.size());
  std::vector<std::size_t> jobs;  // indices into `points` to solve now
  std::unordered_map<std::string, std::size_t> seen;
  std::unordered_map<std::string, std::vector<std::size_t>> waiters;
  std::size_t disk_hits = 0;
  for (std::size_t n = 0; n < points.size(); ++n) {
    keys.push_back(points[n].cache_key());
    if (seen.count(keys.back()) != 0) {
      metrics.dup_points.add();
      if (on_row != nullptr) waiters[keys.back()].push_back(n);
      continue;
    }
    if (auto memoized = cache_.lookup(keys.back())) {
      metrics.memo_hits.add();
      if (TraceWriter* t = global_trace()) {
        t->event("cache_hit", {{"index", n}});
      }
      if (on_row != nullptr) on_row(n, points[n], cached_copy(*memoized));
      continue;
    }
    if (disk_cache_ != nullptr) {
      if (auto loaded = disk_cache_->load(keys.back())) {
        cache_.insert(keys.back(), *loaded);
        ++disk_hits;
        metrics.disk_hits.add();
        if (TraceWriter* t = global_trace()) {
          t->event("disk_hit", {{"index", n}});
        }
        if (on_row != nullptr) on_row(n, points[n], cached_copy(*loaded));
        continue;
      }
    }
    seen.emplace(keys.back(), n);
    jobs.push_back(n);
    if (on_row != nullptr) waiters[keys.back()].push_back(n);
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
  const auto store = [&](std::size_t n, const RunResult& result) {
    cache_.insert(keys[n], result);
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
    // The solving index itself (always the first waiter) sees the fresh
    // result; duplicate indices see a cached_copy, matching the
    // provenance reported on the returned vector.
    std::lock_guard<std::mutex> lock(callback_mutex);
    if (callback_failed) return;
    try {
      for (const std::size_t waiter : waiters[keys[n]]) {
        if (waiter == n) {
          on_row(waiter, points[waiter], result);
        } else {
          on_row(waiter, points[waiter], cached_copy(result));
        }
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
        store(n, result);
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
  if (!first_error.empty()) throw Error(first_error);

  std::vector<RunResult> results;
  results.reserve(points.size());
  std::unordered_map<std::string, bool> solved_now;
  for (const std::size_t n : jobs) solved_now.emplace(keys[n], true);
  std::size_t cache_hits = 0;
  double solve_seconds_total = 0.0;
  for (std::size_t n = 0; n < points.size(); ++n) {
    auto cached = cache_.lookup(keys[n]);
    ESCHED_ASSERT(cached.has_value(), "sweep result missing from cache");
    RunResult result = *cached;
    // The first solve of a point this call is fresh; everything else —
    // intra-call duplicates, prior-call results, disk loads — is a cache
    // hit, and reports ~zero solve_seconds: the cached entry's recorded
    // time was paid by the original solve, and repeating it would inflate
    // cache-effectiveness numbers and ETAs downstream.
    const auto it = solved_now.find(keys[n]);
    result.from_cache = it == solved_now.end() || !it->second;
    if (it != solved_now.end()) it->second = false;
    if (result.from_cache) {
      ++cache_hits;
      result.solve_seconds = 0.0;
    } else {
      solve_seconds_total += result.solve_seconds;
    }
    results.push_back(result);
  }

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
