// The mmap'd open-addressing result cache (engine/shm_cache): slot
// round-trips, the torn/corrupt-reads-as-miss guarantee, dropped stores
// (oversized keys, a full probe window), incompatible tables, legacy
// file-only directories, gc compaction and temp hygiene, and a
// multi-thread x multi-process hammer with a writer killed mid-store — the
// survivors must only ever see valid-checksum hits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "engine/scenario.hpp"
#include "engine/shm_cache.hpp"
#include "engine/solver_dispatch.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define ESCHED_TEST_HAS_FORK 1
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#else
#define ESCHED_TEST_HAS_FORK 0
#endif

namespace esched {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

/// A RunResult whose every packed field is a pure function of `i`, so any
/// process/thread can independently derive what a hit for key i must be.
RunResult result_for(std::size_t i) {
  RunResult r;
  r.mean_response_time = 1.0 + 0.001 * static_cast<double>(i);
  r.mean_response_time_i = 2.0 + static_cast<double>(i);
  r.mean_response_time_e = 1.0 / (1.0 + static_cast<double>(i));
  r.mean_jobs_e = 0.5 * static_cast<double>(i);
  r.p50_i = 0.25 * static_cast<double>(i);
  r.p99_i = 7.0 * static_cast<double>(i) + 0.25;
  r.boundary_mass = 1e-9;
  r.num_states = static_cast<long>(100 + i);
  r.dom_checkpoints = static_cast<long>(i);
  r.solver_iterations = static_cast<int>(i % 97);
  r.solve_residual = 1e-12;
  r.solve_seconds = 0.125;
  return r;
}

std::string key_for(std::size_t i) {
  return "hammer;point=" + std::to_string(i);
}

/// Bitwise equality over every persisted field (numerically_equal ignores
/// provenance fields; this does not even tolerate -0.0 vs 0.0).
bool packed_identical(const RunResult& a, const RunResult& b) {
  std::vector<unsigned char> pa(run_result_packed_bytes());
  std::vector<unsigned char> pb(run_result_packed_bytes());
  pack_run_result(a, pa.data());
  pack_run_result(b, pb.data());
  return std::memcmp(pa.data(), pb.data(), pa.size()) == 0;
}

std::uint64_t read_u64_at(std::fstream& f, std::uint64_t offset) {
  f.seekg(static_cast<std::streamoff>(offset));
  std::uint64_t v = 0;
  f.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_u64_at(std::fstream& f, std::uint64_t offset, std::uint64_t v) {
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&v), sizeof(v));
  f.flush();
}

std::uint64_t spills() {
  return global_metrics().counter("cache.shm.spills").total();
}

std::size_t result_files_in(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".result") ++count;
  }
  return count;
}

void age_file(const std::string& path, std::chrono::hours by) {
  fs::last_write_time(path, fs::file_time_type::clock::now() - by);
}

/// File offset of the first slot holding `state`, or nullopt.
std::optional<std::uint64_t> find_slot_with_state(const ShmTableInfo& info,
                                                  std::fstream& f,
                                                  std::uint64_t state) {
  for (std::uint64_t i = 0; i < info.slot_count; ++i) {
    const std::uint64_t offset = info.header_bytes + i * info.slot_bytes;
    if (read_u64_at(f, offset) == state) return offset;
  }
  return std::nullopt;
}

TEST(PackedRunResult, RoundTripsBitwise) {
  RunResult r = result_for(41);
  r.mean_response_time = 1.0 / 3.0;
  r.ci_halfwidth = 1e-300;
  r.dom_max_violation = -0.0;
  std::vector<unsigned char> packed(run_result_packed_bytes());
  pack_run_result(r, packed.data());
  const RunResult back = unpack_run_result(packed.data());
  EXPECT_TRUE(packed_identical(r, back));
  EXPECT_EQ(back.num_states, r.num_states);
  EXPECT_EQ(back.solver_iterations, r.solver_iterations);
  EXPECT_EQ(std::signbit(back.dom_max_violation),
            std::signbit(r.dom_max_violation));
}

TEST(ShmCache, StoreLoadRoundTripAndMiss) {
  const std::string dir = fresh_dir("esched_shm_roundtrip");
  auto table = std::make_unique<ShmResultCache>(dir, 256);
  EXPECT_EQ(table->slot_count(), 256u);

  EXPECT_FALSE(table->load(key_for(0)).has_value());
  EXPECT_TRUE(table->store(key_for(0), result_for(0)));
  const auto hit = table->load(key_for(0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(packed_identical(*hit, result_for(0)));
  EXPECT_FALSE(table->load(key_for(1)).has_value());
  // Re-storing an existing key is a no-op success (first writer wins).
  EXPECT_TRUE(table->store(key_for(0), result_for(0)));

  // A second mapping of the same file sees the entry (what worker
  // processes do).
  auto remapped = ShmResultCache::open_existing(dir);
  ASSERT_NE(remapped, nullptr);
  const auto rehit = remapped->load(key_for(0));
  ASSERT_TRUE(rehit.has_value());
  EXPECT_TRUE(packed_identical(*rehit, result_for(0)));

  const ShmTableInfo info = table->info();
  EXPECT_EQ(info.valid_slots, 1u);
  EXPECT_EQ(info.wedged_slots, 0u);
  EXPECT_EQ(info.payload_bytes, run_result_packed_bytes());
  fs::remove_all(dir);
}

TEST(ShmCache, OversizedKeyStoreIsDroppedAndCounted) {
  const std::string dir = fresh_dir("esched_shm_drop_key");
  ShmResultCache table(dir);
  const std::string long_key(table.key_capacity() + 1, 'k');
  const std::uint64_t spills_before = spills();

  EXPECT_FALSE(table.store(long_key, result_for(7)));
  EXPECT_EQ(spills() - spills_before, 1u);
  EXPECT_FALSE(table.load(long_key).has_value());
  EXPECT_EQ(table.info().valid_slots, 0u);
  // Nothing else holds it: the directory is just the table file.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string(), table.path());
    ++files;
  }
  EXPECT_EQ(files, 1u);
  fs::remove_all(dir);
}

TEST(ShmCache, FullTableDropsStoresAndNeverServesAWrongResult) {
  const std::string dir = fresh_dir("esched_shm_full");
  ShmResultCache table(dir, 64);  // kMinSlotCount: tiny on purpose
  constexpr std::size_t kKeys = 100;  // > slot count: some must be dropped
  const std::uint64_t spills_before = spills();
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (!table.store(key_for(i), result_for(i))) ++dropped;
  }
  EXPECT_EQ(table.info().valid_slots, kKeys - dropped);
  EXPECT_GE(dropped, kKeys - 64);
  EXPECT_EQ(spills() - spills_before, dropped);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const auto hit = table.load(key_for(i));
    if (!hit.has_value()) continue;  // a dropped store: re-solve, fine
    EXPECT_TRUE(packed_identical(*hit, result_for(i))) << key_for(i);
    ++hits;
  }
  EXPECT_EQ(hits, kKeys - dropped);
  EXPECT_EQ(result_files_in(dir), 0u);
  fs::remove_all(dir);
}

TEST(ShmCache, ChecksumCorruptionReadsAsMissNeverWrongResult) {
  const std::string dir = fresh_dir("esched_shm_corrupt");
  auto table = std::make_unique<ShmResultCache>(dir, 64);
  ASSERT_TRUE(table->store("victim", result_for(3)));
  ASSERT_TRUE(table->load("victim").has_value());

  const ShmTableInfo info = table->info();
  std::fstream f(info.path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  const auto slot =
      find_slot_with_state(info, f, ShmResultCache::kStateValid);
  ASSERT_TRUE(slot.has_value());
  // Flip one payload byte behind the published checksum.
  const std::uint64_t victim_byte = *slot + info.payload_offset + 3;
  f.seekg(static_cast<std::streamoff>(victim_byte));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(static_cast<std::streamoff>(victim_byte));
  f.write(&b, 1);
  f.flush();

  // The slot is still `valid` with a matching key — only the checksum
  // knows. It must read as a miss, in this mapping and a fresh one.
  EXPECT_FALSE(table->load("victim").has_value());
  auto remapped = ShmResultCache::open_existing(dir);
  ASSERT_NE(remapped, nullptr);
  EXPECT_FALSE(remapped->load("victim").has_value());
  // The manifest skips it too, and compaction drops it.
  EXPECT_TRUE(table->list_keys().empty());
  const CacheGcResult compacted = table->compact(64);
  EXPECT_EQ(compacted.removed, 0u);  // a corrupt slot is not an entry
  EXPECT_EQ(compacted.kept, 0u);
  EXPECT_EQ(table->info().valid_slots, 0u);
  fs::remove_all(dir);
}

TEST(ShmCache, GcReclaimsWedgedSlotsStaleTempsAndAppliesByteBudget) {
  const std::string dir = fresh_dir("esched_shm_gc");
  ShmResultCache table(dir, 64);
  for (std::size_t i = 0; i < 10; ++i) table.store(key_for(i), result_for(i));

  // Simulate a writer killed between its CAS claim and its publish.
  {
    const ShmTableInfo info = table.info();
    std::fstream f(info.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto empty =
        find_slot_with_state(info, f, ShmResultCache::kStateEmpty);
    ASSERT_TRUE(empty.has_value());
    write_u64_at(f, *empty, ShmResultCache::kStateWriting);
  }
  EXPECT_EQ(table.info().wedged_slots, 1u);
  // A stale temp from a creator that died before publishing — and a young
  // one that could belong to a live creator and must survive gc.
  const std::string dead = table.path() + ".tmp.1.2";
  const std::string live = table.path() + ".tmp.3.4";
  std::ofstream(dead) << "junk";
  std::ofstream(live) << "junk";
  age_file(dead, std::chrono::hours(10));

  // gc without a budget drops no entry but rebuilds away the wedge and
  // removes only the stale temp.
  const CacheGcResult swept = table.gc(std::nullopt);
  EXPECT_EQ(swept.removed, 0u);
  EXPECT_EQ(swept.kept, 10u);
  EXPECT_EQ(table.info().wedged_slots, 0u);
  EXPECT_EQ(table.info().valid_slots, 10u);
  EXPECT_FALSE(fs::exists(dead));
  EXPECT_TRUE(fs::exists(live));
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.load(key_for(i)).has_value()) << key_for(i);
  }

  // A byte budget for half the entries keeps the newest-stored half.
  const std::uint64_t slot_bytes = table.slot_bytes();
  const CacheGcResult half = table.gc(5 * slot_bytes);
  EXPECT_EQ(half.removed, 5u);
  EXPECT_EQ(half.kept, 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(table.load(key_for(i)).has_value()) << "oldest kept";
  }
  for (std::size_t i = 5; i < 10; ++i) {
    EXPECT_TRUE(table.load(key_for(i)).has_value()) << "newest dropped";
  }

  // --max-bytes 0 empties the table entirely.
  const CacheGcResult all = table.gc(0);
  EXPECT_EQ(all.removed, 5u);
  EXPECT_EQ(all.kept, 0u);
  EXPECT_TRUE(table.list_keys().empty());
  fs::remove_all(dir);
}

TEST(ShmCache, IncompatibleTableIsRefusedNamingTheFileToDelete) {
  const std::string dir = fresh_dir("esched_shm_incompatible");
  std::string path;
  {
    ShmResultCache table(dir, 64);
    ASSERT_TRUE(table.store(key_for(1), result_for(1)));
    path = table.path();
  }
  // Another build's table: same size, different magic.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(0);
    f.write("NOTATABL", 8);
  }
  const auto bytes_before = fs::file_size(path);
  const auto expect_refusal = [&](const auto& open) {
    try {
      open();
      ADD_FAILURE() << "an incompatible table was opened";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + path + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("delete it"), std::string::npos) << what;
    }
  };
  expect_refusal([&] { ShmResultCache table(dir); });
  expect_refusal([&] { ShmResultCache::open_existing(dir); });
  SweepRunner runner(1);
  expect_refusal([&] { runner.set_cache_dir(dir); });
  // Refusal leaves the file as it was: another build may still use it.
  EXPECT_EQ(fs::file_size(path), bytes_before);
  char magic[8] = {};
  std::ifstream(path, std::ios::binary).read(magic, sizeof(magic));
  EXPECT_EQ(std::string(magic, sizeof(magic)), "NOTATABL");

  // No table file at all is not an error for inspection.
  fs::remove(path);
  EXPECT_EQ(ShmResultCache::open_existing(dir), nullptr);
  fs::remove_all(dir);
}

Scenario small_qbd_scenario() {
  Scenario s;
  s.name = "shm";
  s.k_values = {2, 4};
  s.rho_values = {0.5, 0.7};
  s.mu_i_values = {1.0};
  s.mu_e_values = {1.0};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis};
  return s;
}

TEST(SweepRunner, LegacyFileOnlyDirectoryReSolves) {
  const std::string dir = fresh_dir("esched_shm_legacy");
  fs::create_directories(dir);
  const auto points = small_qbd_scenario().expand();
  // Legacy state: one `<hash>.result` entry file per point, in the old
  // text format but holding a wrong answer — a sweep must never read it.
  for (const RunPoint& point : points) {
    const std::string key = point.cache_key();
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.result",
                  static_cast<unsigned long long>(fnv1a64(key)));
    std::ofstream(dir + "/" + name)
        << "key " << key << "\nesched-cache-v1\net 12345\n";
  }

  SweepRunner uncached(2);
  const auto expected = uncached.run(points, nullptr);
  SweepRunner runner(2);
  runner.set_cache_dir(dir);
  SweepStats stats;
  const auto results = runner.run(points, &stats);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.solved_points, points.size());
  for (std::size_t n = 0; n < points.size(); ++n) {
    RunResult a = expected[n];
    RunResult b = results[n];
    a.solve_seconds = b.solve_seconds = 0.0;  // wall time, not the answer
    EXPECT_TRUE(packed_identical(a, b)) << points[n].cache_key();
  }
  // The re-solves landed in the table; the legacy files are left alone.
  EXPECT_EQ(ShmResultCache(dir).info().valid_slots, points.size());
  EXPECT_EQ(result_files_in(dir), points.size());
  fs::remove_all(dir);
}

TEST(SweepRunner, TableCachePersistsAcrossRunnersWithoutEntryFiles) {
  const std::string dir = fresh_dir("esched_shm_sweep");
  const auto points = small_qbd_scenario().expand();

  SweepRunner first(2);
  first.set_cache_dir(dir);
  SweepStats cold;
  const auto solved = first.run(points, &cold);
  EXPECT_EQ(cold.solved_points, points.size());

  // Everything landed in the table: no per-entry files were written.
  EXPECT_EQ(result_files_in(dir), 0u);
  EXPECT_TRUE(fs::exists(ShmResultCache::table_path(dir)));

  SweepRunner second(2);
  second.set_cache_dir(dir);
  SweepStats warm;
  const auto loaded = second.run(points, &warm);
  EXPECT_EQ(warm.solved_points, 0u);
  EXPECT_EQ(warm.disk_hits, points.size());
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_TRUE(loaded[n].from_cache);
    EXPECT_TRUE(numerically_equal(solved[n], loaded[n]))
        << points[n].cache_key();
  }
  fs::remove_all(dir);
}

#if ESCHED_TEST_HAS_FORK

/// Body of one hammer process: 4 threads interleave load/store over the
/// shared table, each verifying every hit against the key-derived
/// expectation. Returns 0 = clean, 1 = a wrong-result hit was observed,
/// 2 = could not map the table. Runs in forked children via _exit(), so
/// no gtest assertions here.
int hammer_process(const std::string& dir, std::size_t keys, unsigned salt) {
  auto table = ShmResultCache::open_existing(dir);
  if (table == nullptr) return 2;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t stride = 1 + ((salt + t) % 7);
      for (int round = 0; round < 40 && wrong.load() == 0; ++round) {
        for (std::size_t n = 0; n < keys; ++n) {
          const std::size_t i = (n * stride + t) % keys;
          const std::string key = key_for(i);
          if (const auto hit = table->load(key)) {
            if (!packed_identical(*hit, result_for(i))) {
              wrong.store(1);
              return;
            }
          }
          table->store(key, result_for(i));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return wrong.load();
}

TEST(ShmCacheHammer, ThreadsTimesProcessesSurviveAMidStoreKill) {
  const std::string dir = fresh_dir("esched_shm_hammer");
  constexpr std::size_t kKeys = 96;
  { const ShmResultCache table(dir, 512); }

  // Process 1: a doomed single-threaded writer storing in a loop; the
  // parent SIGKILLs it mid-store, which may wedge at most one slot.
  const pid_t victim = fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    auto table = ShmResultCache::open_existing(dir);
    if (table == nullptr) _exit(2);
    for (std::size_t n = 0;; ++n) {
      const std::size_t i = n % kKeys;
      table->store(key_for(i), result_for(i));
    }
  }

  // Process 2: the multi-threaded hammer (threads start after fork —
  // required under TSan, and the realistic worker shape anyway).
  const pid_t worker = fork();
  ASSERT_GE(worker, 0);
  if (worker == 0) _exit(hammer_process(dir, kKeys, 7));

  // The parent hammers the same table concurrently, and kills the victim
  // while all three processes are mid-traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(kill(victim, SIGKILL), 0);
  EXPECT_EQ(hammer_process(dir, kKeys, 3), 0);

  int status = 0;
  ASSERT_EQ(waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_EQ(waitpid(worker, &status, 0), worker);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "a survivor saw a wrong result";

  // Post-mortem: every key is present and correct, the kill wedged at
  // most one slot, and gc's rebuild reclaims it without losing entries.
  auto table = ShmResultCache::open_existing(dir);
  ASSERT_NE(table, nullptr);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const auto hit = table->load(key_for(i));
    ASSERT_TRUE(hit.has_value()) << key_for(i);
    EXPECT_TRUE(packed_identical(*hit, result_for(i))) << key_for(i);
  }
  const ShmTableInfo info = table->info();
  EXPECT_EQ(info.valid_slots, kKeys);
  EXPECT_LE(info.wedged_slots, 1u);
  table->gc(std::nullopt);
  EXPECT_EQ(table->info().wedged_slots, 0u);
  EXPECT_EQ(table->info().valid_slots, kKeys);
  fs::remove_all(dir);
}

#endif  // ESCHED_TEST_HAS_FORK

}  // namespace
}  // namespace esched
