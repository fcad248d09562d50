// Persistent result cache behind --cache-dir: one mmap'd open-addressing
// table file (`table.esched`) per cache directory, shared MAP_SHARED by
// every thread and worker process that maps it; a warm hit is a lock-free
// linear probe over fixed-width slots.
//
// Crash/concurrency story (mirrors the dist queue's lease discipline —
// never trust anything that was not atomically published):
//   - A slot's state word is the publication point. Stores claim an empty
//     slot with a CAS (empty -> writing), fill key/payload/checksum, then
//     release-store `valid`; loads acquire-read the state and only then
//     touch the slot body.
//   - The checksum (FNV-1a over key length + key bytes + payload) and the
//     full key stored in the slot mean a torn write, a hash collision, or
//     a corrupt page reads as a miss — never as a wrong result.
//   - A writer killed mid-store leaves its slot wedged at `writing`
//     forever; every reader and writer skips it, and gc's compaction
//     rebuilds the table without it.
//   - Slots are immutable once valid (results are deterministic in the
//     key, so the first writer wins and there is nothing to update).
// A store whose key is too long for a slot, or whose probe window is full,
// is dropped (counted in cache.shm.spills): the point re-solves next time,
// and a miss is always correct.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/solver_dispatch.hpp"

namespace esched {

/// Fixed binary encoding of a RunResult, one slot payload: every field
/// occupies 8 host-endian bytes (doubles bit-cast, longs/ints
/// sign-extended to int64), and pack/unpack round-trip a RunResult
/// bitwise. from_cache is not packed — provenance belongs to the run that
/// observes the hit.
std::size_t run_result_packed_bytes();
void pack_run_result(const RunResult& result, unsigned char* out);
RunResult unpack_run_result(const unsigned char* in);

/// Outcome of a gc() or compact() pass; every entry costs one slot.
struct CacheGcResult {
  std::size_t removed = 0;  ///< entries dropped
  std::size_t kept = 0;     ///< entries left in the table
};

/// Geometry + occupancy of one table file, for `esched cache info`, gc's
/// wedged-slot check, and tests that need slot offsets to corrupt bytes.
struct ShmTableInfo {
  std::string path;
  std::uint64_t format_version = 0;
  std::uint64_t slot_count = 0;     ///< power of two
  std::uint64_t slot_bytes = 0;
  std::uint64_t payload_bytes = 0;  ///< run_result_packed_bytes()
  std::uint64_t key_capacity = 0;   ///< longest representable key
  std::uint64_t header_bytes = 0;   ///< slot 0 starts here
  std::uint64_t payload_offset = 0; ///< within a slot
  std::uint64_t key_offset = 0;     ///< within a slot
  std::uint64_t valid_slots = 0;    ///< published entries
  std::uint64_t wedged_slots = 0;   ///< claimed by a dead writer
  std::uintmax_t file_bytes = 0;    ///< apparent size (file is sparse)
};

class ShmResultCache {
 public:
  /// Slot state machine: empty -> writing (CAS claim) -> valid (release
  /// publish). Public so tests can assert on raw slot words.
  static constexpr std::uint64_t kStateEmpty = 0;
  static constexpr std::uint64_t kStateWriting = 1;
  static constexpr std::uint64_t kStateValid = 2;

  static constexpr std::uint64_t kDefaultSlotCount = 32768;  ///< ~16 MiB sparse
  static constexpr std::uint64_t kMinSlotCount = 64;

  /// The table file inside a cache directory.
  static std::string table_path(const std::string& directory);

  /// Maps an existing table; nullptr when there is no table file. Throws
  /// esched::Error, naming the file to delete, when the file exists but
  /// cannot be used (wrong magic/version/geometry/endianness, or no mmap).
  /// `esched cache ls/info/gc` use it so inspecting a directory never
  /// creates a table in it.
  static std::unique_ptr<ShmResultCache> open_existing(
      const std::string& directory);

  /// Maps the table in `directory`, creating the directory and — when no
  /// compatible table exists — a fresh one of `slot_count` slots (rounded
  /// up to a power of two). Creation is atomic: concurrent creators race
  /// on a link(2) publish and exactly one table survives. Throws
  /// esched::Error when the directory or table cannot be created or
  /// mapped (unwritable directory, or no mmap support), and, with the same
  /// message as open_existing, when a table file exists that this build
  /// cannot use. An incompatible table is never overwritten: another
  /// build may still be using it.
  explicit ShmResultCache(const std::string& directory,
                          std::uint64_t slot_count = kDefaultSlotCount);

  ~ShmResultCache();
  ShmResultCache(const ShmResultCache&) = delete;
  ShmResultCache& operator=(const ShmResultCache&) = delete;

  /// Lock-free linear probe. A checksum/key mismatch in a valid slot is
  /// skipped (counted as corruption, read as a miss), a `writing` slot is
  /// skipped, an `empty` slot ends the probe.
  std::optional<RunResult> load(const std::string& key) const;

  /// Claims a slot and publishes the entry. Returns false — the store is
  /// dropped and counted in cache.shm.spills — when the key is too long
  /// for a slot or the probe window is full. Returns true without writing
  /// when the key is already present.
  bool store(const std::string& key, const RunResult& result);

  ShmTableInfo info() const;

  /// The key of every published entry, oldest store first. Slots carry a
  /// store sequence number, not a wall-clock time, so there is no age.
  std::vector<std::string> list_keys() const;

  /// `esched cache gc`: removes stale (> 1 h old) table-creation temps
  /// left in the directory by a creator that died before publishing —
  /// younger ones may belong to a live creator. Then, with a byte budget
  /// (slot_bytes per published entry), compacts down to the newest entries
  /// that fit; without one, compacts only when wedged slots need
  /// reclaiming, keeping every live entry.
  CacheGcResult gc(std::optional<std::uintmax_t> max_bytes);

  /// Rebuilds the table keeping only the `keep_newest` most recently
  /// stored entries (wedged and corrupt slots are always dropped), shrinks
  /// the slot count to fit the survivors, and atomically publishes the new
  /// file over the old one, remapping this handle. Concurrent mappers of
  /// the old file keep a consistent (now orphaned) view. The counts come
  /// from the rebuild's own snapshot of the table.
  CacheGcResult compact(std::uint64_t keep_newest);

  const std::string& path() const { return path_; }
  std::uint64_t slot_count() const { return slot_count_; }
  std::uint64_t slot_bytes() const;
  std::uint64_t key_capacity() const;

 private:
  ShmResultCache() = default;
  /// Maps path_ (replacing any mapping); false when it is not a usable
  /// table.
  bool map();
  unsigned char* slot_ptr(std::uint64_t index) const;
  void unmap();

  /// A published entry whose checksum verified.
  struct Entry {
    std::uint64_t seq;  ///< store sequence number
    std::string key;
    std::vector<unsigned char> payload;
  };
  /// One pass over the slots: every published, checksum-clean entry,
  /// oldest store first. `wedged_slots`, when given, receives the count of
  /// slots that are neither empty nor published.
  std::vector<Entry> scan(std::uint64_t* wedged_slots = nullptr) const;
  /// compact() on an existing scan.
  CacheGcResult rebuild(std::vector<Entry> entries, std::uint64_t keep_newest);

  std::string path_;
  unsigned char* base_ = nullptr;  ///< mmap base (header at offset 0)
  std::uint64_t mapped_bytes_ = 0;
  std::uint64_t slot_count_ = 0;
};

/// Former name of the --cache-dir store, kept because the benchmark probe
/// (perfbench/probe.cpp) is compiled against it.
using TieredResultCache = ShmResultCache;

}  // namespace esched
