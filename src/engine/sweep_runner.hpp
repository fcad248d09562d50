// Parallel sweep execution with memoization.
//
// The runner takes a flat list of RunPoints (typically Scenario::expand()),
// deduplicates them by cache key, solves the missing unique points on a
// std::thread worker pool, and returns results in input order. A
// mutex-guarded cache persists across run() calls, so repeated points —
// e.g. shared rho-axis baselines across figures — solve exactly once per
// process; an optional disk cache (set_cache_dir) extends that across
// processes and CLI invocations. Every unique point is its own job.
// Results are deterministic in the thread count: each point's solve is
// pure and its RNG seed derives from its cache key, never from scheduling
// order.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/solver_dispatch.hpp"

namespace esched {

class ShmResultCache;

/// Thread-safe memoization cache keyed on RunPoint::cache_key(), sharded
/// by key hash so a high-thread warm rerun (every point a memo hit) does
/// not serialize every worker on one mutex. Sharding is invisible to
/// callers: which shard holds a key depends only on the key, so contents
/// — and therefore sweep results — are bitwise identical at any thread
/// count.
class ResultCache {
 public:
  std::optional<RunResult> lookup(const std::string& key) const;
  void insert(const std::string& key, const RunResult& result);
  std::size_t size() const;
  void clear();

 private:
  static constexpr std::size_t kShardCount = 16;  // power of two

  struct alignas(64) Shard {  // own cache line: no false sharing of locks
    mutable std::mutex mutex;
    std::unordered_map<std::string, RunResult> results;
  };

  Shard& shard_for(const std::string& key) const;

  mutable std::array<Shard, kShardCount> shards_;
};

/// Bookkeeping for one run() call.
struct SweepStats {
  std::size_t total_points = 0;   ///< points requested
  std::size_t solved_points = 0;  ///< unique points actually solved now
  std::size_t cache_hits = 0;     ///< points served from the memo cache
  std::size_t disk_hits = 0;      ///< of cache_hits, loaded from --cache-dir
  double wall_seconds = 0.0;      ///< end-to-end wall time of run()
  /// Summed wall time of the fresh solves only (cache hits contribute 0),
  /// i.e. the compute this run would have cost single-threaded without a
  /// cache — the honest numerator for cache-effectiveness and ETA math.
  double solve_seconds_total = 0.0;
  int threads_used = 0;
};

/// Row-completion callback: invoked once per input point as soon as its
/// result is available, with the point's original index into the `points`
/// argument. Invocations are serialized (the runner holds an internal
/// mutex around every call), so the callback itself needs no locking, but
/// they arrive in completion order, not input order — streaming consumers
/// reorder (see StreamingCsvReport). Cache/disk hits fire before any
/// worker starts; duplicates of an in-flight point fire when that point's
/// one solve lands. Provenance is honest per delivery: a freshly solved
/// point arrives with from_cache = false and its real solve_seconds, while
/// memo/disk hits and duplicates of an in-flight solve arrive with
/// from_cache = true and solve_seconds = 0 (their cost was paid by the
/// original solve), matching the returned vector.
using RowCallback = std::function<void(
    std::size_t index, const RunPoint& point, const RunResult& result)>;

/// Executes RunPoints on a worker pool of `num_threads` threads
/// (0 = std::thread::hardware_concurrency()).
class SweepRunner {
 public:
  explicit SweepRunner(int num_threads = 0);
  ~SweepRunner();

  /// Solves every point (consulting/filling the caches) and returns
  /// results in input order. `from_cache` is set (and solve_seconds
  /// zeroed) on results that were memoized — including intra-call
  /// duplicates, which solve once. If any
  /// point's solve throws, the first error is re-thrown after all workers
  /// join; successfully solved points stay cached — and have already been
  /// delivered to `on_row`, which is what makes an interrupted streaming
  /// run resumable.
  std::vector<RunResult> run(const std::vector<RunPoint>& points,
                             SweepStats* stats = nullptr,
                             const RowCallback& on_row = nullptr);

  /// Attaches a persistent cache directory (created if missing): memory
  /// misses consult it before solving, and fresh solves are written back.
  /// The directory holds one mmap'd open-addressing table
  /// (engine/shm_cache) that serves hits with a lock-free probe. Throws
  /// when the directory or its table cannot be created, or when the
  /// directory holds a table this build cannot use.
  void set_cache_dir(const std::string& directory);

  int num_threads() const { return num_threads_; }
  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }

 private:
  int num_threads_;
  ResultCache cache_;
  std::unique_ptr<ShmResultCache> disk_cache_;
};

}  // namespace esched
