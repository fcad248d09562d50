#include "engine/shm_cache.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/numeric.hpp"
#include "obs/metrics.hpp"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define ESCHED_SHM_CACHE_POSIX 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#else
#define ESCHED_SHM_CACHE_POSIX 0
#endif

namespace esched {

namespace {

// ---- payload codec -------------------------------------------------------

/// One packed RunResult field and the member it round-trips through. The
/// table is the single source of truth for pack, unpack and the payload
/// size.
struct FieldSpec {
  double RunResult::* as_double = nullptr;
  long RunResult::* as_long = nullptr;
  int RunResult::* as_int = nullptr;
};

constexpr FieldSpec fd(double RunResult::* member) {
  return {member, nullptr, nullptr};
}
constexpr FieldSpec fl(long RunResult::* member) {
  return {nullptr, member, nullptr};
}
constexpr FieldSpec fi(int RunResult::* member) {
  return {nullptr, nullptr, member};
}

// Order is the payload order and part of the table format: changing it
// (or the field count, which the header records as payload_bytes) makes
// existing tables incompatible — sweeps then refuse the directory and name
// the table file to delete; it is never read as wrong results.
const FieldSpec kRunResultFields[] = {
    fd(&RunResult::mean_response_time),
    fd(&RunResult::mean_response_time_i),
    fd(&RunResult::mean_response_time_e),
    fd(&RunResult::mean_jobs_i),
    fd(&RunResult::mean_jobs_e),
    fd(&RunResult::ci_halfwidth),
    fd(&RunResult::p50_i),
    fd(&RunResult::p95_i),
    fd(&RunResult::p99_i),
    fd(&RunResult::p50_e),
    fd(&RunResult::p95_e),
    fd(&RunResult::p99_e),
    fd(&RunResult::boundary_mass),
    fl(&RunResult::num_states),
    fd(&RunResult::dom_max_violation),
    fd(&RunResult::dom_max_violation_i),
    fd(&RunResult::dom_avg_gap),
    fl(&RunResult::dom_checkpoints),
    fi(&RunResult::solver_iterations),
    fd(&RunResult::solve_residual),
    fd(&RunResult::solve_seconds),
};

// ---- on-disk format ------------------------------------------------------
// Header (4096 bytes, offsets below, everything u64 host-endian — the
// endian marker rejects a table written by a foreign-endian host):
constexpr char kMagic[8] = {'E', 'S', 'C', 'H', 'E', 'D', 'T', '1'};
constexpr std::uint64_t kEndianMarker = 0x0123456789abcdefull;
constexpr std::uint64_t kFormatVersion = 1;
constexpr std::uint64_t kHeaderBytes = 4096;
constexpr std::uint64_t kHdrMagic = 0;
constexpr std::uint64_t kHdrEndian = 8;
constexpr std::uint64_t kHdrVersion = 16;
constexpr std::uint64_t kHdrSlotCount = 24;
constexpr std::uint64_t kHdrSlotBytes = 32;
constexpr std::uint64_t kHdrPayloadBytes = 40;
constexpr std::uint64_t kHdrKeyCapacity = 48;
constexpr std::uint64_t kHdrStoreSeq = 56;  ///< atomic: next store sequence

// Slot (512 bytes): the state word at offset 0 is the only word ever
// touched with atomics; everything behind it is written exactly once
// between the CAS claim and the release publish, then immutable.
constexpr std::uint64_t kSlotBytes = 512;
constexpr std::uint64_t kSlotState = 0;
constexpr std::uint64_t kSlotKeyHash = 8;
constexpr std::uint64_t kSlotSeq = 16;
constexpr std::uint64_t kSlotKeyLen = 24;
constexpr std::uint64_t kSlotChecksum = 32;
constexpr std::uint64_t kSlotPayload = 40;

/// Probe window: a lookup or store scans at most this many slots from the
/// key's home slot before giving up (a store that gives up is dropped, so
/// a nearly-full table degrades to re-solving, never fails).
constexpr std::uint64_t kMaxProbes = 64;

std::uint64_t read_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void write_u64(unsigned char* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

std::atomic_ref<std::uint64_t> as_atomic_u64(unsigned char* p) {
  return std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(p));
}

std::uint64_t key_offset_in_slot() {
  return kSlotPayload + run_result_packed_bytes();
}

std::uint64_t slot_key_capacity() { return kSlotBytes - key_offset_in_slot(); }

/// Chained FNV-1a over (key length, key bytes, payload): the published
/// entry's integrity word. Verified against local copies on load, so a
/// mutated slot can at worst read as a miss.
std::uint64_t entry_checksum(std::uint64_t key_len, const unsigned char* key,
                             const unsigned char* payload,
                             std::uint64_t payload_bytes) {
  std::uint64_t h = fnv1a64_bytes(&key_len, sizeof(key_len));
  h = fnv1a64_bytes(key, key_len, h);
  return fnv1a64_bytes(payload, payload_bytes, h);
}

void fill_header(unsigned char* h, std::uint64_t slot_count,
                 std::uint64_t store_seq) {
  std::memset(h, 0, kHeaderBytes);
  std::memcpy(h + kHdrMagic, kMagic, sizeof(kMagic));
  write_u64(h + kHdrEndian, kEndianMarker);
  write_u64(h + kHdrVersion, kFormatVersion);
  write_u64(h + kHdrSlotCount, slot_count);
  write_u64(h + kHdrSlotBytes, kSlotBytes);
  write_u64(h + kHdrPayloadBytes, run_result_packed_bytes());
  write_u64(h + kHdrKeyCapacity, slot_key_capacity());
  write_u64(h + kHdrStoreSeq, store_seq);
}

/// True when `h` describes a table this build can use. Geometry is part of
/// the contract: a table with a different slot or payload size (an older
/// or newer RunResult) is incompatible and is never mapped.
bool header_compatible(const unsigned char* h, std::uint64_t file_bytes,
                       std::uint64_t* slot_count_out) {
  if (std::memcmp(h + kHdrMagic, kMagic, sizeof(kMagic)) != 0) return false;
  if (read_u64(h + kHdrEndian) != kEndianMarker) return false;
  if (read_u64(h + kHdrVersion) != kFormatVersion) return false;
  const std::uint64_t slot_count = read_u64(h + kHdrSlotCount);
  if (slot_count == 0 || !std::has_single_bit(slot_count)) return false;
  if (read_u64(h + kHdrSlotBytes) != kSlotBytes) return false;
  if (read_u64(h + kHdrPayloadBytes) != run_result_packed_bytes()) return false;
  if (read_u64(h + kHdrKeyCapacity) != slot_key_capacity()) return false;
  if (file_bytes < kHeaderBytes + slot_count * kSlotBytes) return false;
  *slot_count_out = slot_count;
  return true;
}

/// Mmap/observability handles, resolved once (registry lookups take a
/// mutex; probes must stay off it).
struct ShmMetrics {
  Counter& hits;               ///< cache.shm.hits
  Counter& misses;             ///< cache.shm.misses
  Counter& stores;             ///< cache.shm.stores
  Counter& spills;             ///< cache.shm.spills
  Counter& evictions;          ///< cache.shm.evictions
  LogHistogram& probe_length;  ///< cache.shm.probe.length
};

ShmMetrics& shm_metrics() {
  static ShmMetrics metrics = [] {
    MetricsRegistry& m = global_metrics();
    return ShmMetrics{m.counter("cache.shm.hits"),
                      m.counter("cache.shm.misses"),
                      m.counter("cache.shm.stores"),
                      m.counter("cache.shm.spills"),
                      m.counter("cache.shm.evictions"),
                      m.histogram("cache.shm.probe.length")};
  }();
  return metrics;
}

#if ESCHED_SHM_CACHE_POSIX

/// Maps `path` read-write/shared and validates the header. Returns the
/// base or nullptr; never throws — callers decide what "no table" means.
unsigned char* map_table_file(const std::string& path, std::uint64_t* bytes,
                              std::uint64_t* slot_count) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return nullptr;
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < static_cast<off_t>(kHeaderBytes)) {
    ::close(fd);
    return nullptr;
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  void* base = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (base == MAP_FAILED) return nullptr;
  std::uint64_t slots = 0;
  if (!header_compatible(static_cast<unsigned char*>(base), size, &slots)) {
    ::munmap(base, size);
    return nullptr;
  }
  *bytes = size;
  *slot_count = slots;
  return static_cast<unsigned char*>(base);
}

/// Creates the table file if absent: header + zeroed slots, written to a
/// unique temp sibling and published with link(2), so concurrent creators
/// race cleanly — exactly one table survives and every loser maps it.
/// The slot region is ftruncate-extended (sparse), so a fresh default
/// table costs pages only as slots are touched.
bool create_table_file(const std::string& path, std::uint64_t slot_count) {
  const std::string tmp = unique_tmp_path(path);
  const int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return false;
  const auto fail = [&] {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  };
  const off_t total =
      static_cast<off_t>(kHeaderBytes + slot_count * kSlotBytes);
  if (::ftruncate(fd, total) != 0) return fail();
  unsigned char header[kHeaderBytes];
  fill_header(header, slot_count, 0);
  if (::pwrite(fd, header, sizeof(header), 0) !=
      static_cast<ssize_t>(sizeof(header))) {
    return fail();
  }
  ::close(fd);
  if (::link(tmp.c_str(), path.c_str()) != 0) {
    const bool lost_race = errno == EEXIST;
    ::unlink(tmp.c_str());
    return lost_race;  // someone else published a table: map theirs
  }
  ::unlink(tmp.c_str());
  return true;
}

#else  // !ESCHED_SHM_CACHE_POSIX

bool create_table_file(const std::string&, std::uint64_t) { return false; }

#endif  // ESCHED_SHM_CACHE_POSIX

bool table_file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

/// A table file this build cannot map is left alone (another build may be
/// using it) and refused loudly, naming the file to delete.
Error incompatible_table(const std::string& path) {
  return Error("cache table '" + path +
               "' is incompatible with this build (another format version, "
               "result layout or byte order, or a damaged file) or cannot be "
               "mapped; delete it to start a fresh cache");
}

}  // namespace

std::size_t run_result_packed_bytes() {
  return std::size(kRunResultFields) * 8;
}

void pack_run_result(const RunResult& r, unsigned char* out) {
  for (const FieldSpec& field : kRunResultFields) {
    std::uint64_t word = 0;
    if (field.as_double != nullptr) {
      const double value = r.*field.as_double;
      std::memcpy(&word, &value, sizeof(word));
    } else {
      const std::int64_t value = field.as_long != nullptr
                                     ? static_cast<std::int64_t>(r.*field.as_long)
                                     : static_cast<std::int64_t>(r.*field.as_int);
      std::memcpy(&word, &value, sizeof(word));
    }
    std::memcpy(out, &word, sizeof(word));
    out += sizeof(word);
  }
}

RunResult unpack_run_result(const unsigned char* in) {
  RunResult r;
  for (const FieldSpec& field : kRunResultFields) {
    std::uint64_t word = 0;
    std::memcpy(&word, in, sizeof(word));
    in += sizeof(word);
    if (field.as_double != nullptr) {
      double value = 0.0;
      std::memcpy(&value, &word, sizeof(value));
      r.*field.as_double = value;
    } else {
      std::int64_t value = 0;
      std::memcpy(&value, &word, sizeof(value));
      if (field.as_long != nullptr) r.*field.as_long = static_cast<long>(value);
      else r.*field.as_int = static_cast<int>(value);
    }
  }
  return r;
}

std::string ShmResultCache::table_path(const std::string& directory) {
  return directory + "/table.esched";
}

std::uint64_t ShmResultCache::slot_bytes() const { return kSlotBytes; }

std::uint64_t ShmResultCache::key_capacity() const {
  return slot_key_capacity();
}

ShmResultCache::~ShmResultCache() { unmap(); }

unsigned char* ShmResultCache::slot_ptr(std::uint64_t index) const {
  return base_ + kHeaderBytes + index * kSlotBytes;
}

ShmResultCache::ShmResultCache(const std::string& directory,
                               std::uint64_t slot_count)
    : path_(table_path(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  const bool mapped =
      !ec && (map() ||
              (create_table_file(path_, std::bit_ceil(std::max(
                                            slot_count, kMinSlotCount))) &&
               map()));
  if (mapped) return;
  if (table_file_exists(path_)) throw incompatible_table(path_);
  throw Error("cannot create a cache table in '" + directory +
              "' (unwritable directory, or no mmap support)");
}

std::unique_ptr<ShmResultCache> ShmResultCache::open_existing(
    const std::string& directory) {
  std::unique_ptr<ShmResultCache> table(new ShmResultCache());
  table->path_ = table_path(directory);
  if (table->map()) return table;
  if (table_file_exists(table->path_)) throw incompatible_table(table->path_);
  return nullptr;
}

#if ESCHED_SHM_CACHE_POSIX

void ShmResultCache::unmap() {
  if (base_ != nullptr) ::munmap(base_, mapped_bytes_);
  base_ = nullptr;
  mapped_bytes_ = 0;
}

bool ShmResultCache::map() {
  unmap();
  base_ = map_table_file(path_, &mapped_bytes_, &slot_count_);
  return base_ != nullptr;
}

#else  // !ESCHED_SHM_CACHE_POSIX

void ShmResultCache::unmap() {}

bool ShmResultCache::map() { return false; }

#endif  // ESCHED_SHM_CACHE_POSIX

std::optional<RunResult> ShmResultCache::load(const std::string& key) const {
  ShmMetrics& metrics = shm_metrics();
  const std::uint64_t payload_bytes = run_result_packed_bytes();
  const std::uint64_t key_off = key_offset_in_slot();
  if (key.size() > slot_key_capacity()) {
    metrics.misses.add();
    return std::nullopt;
  }
  const std::uint64_t hash = fnv1a64(key);
  const std::uint64_t mask = slot_count_ - 1;
  const std::uint64_t probes = std::min(kMaxProbes, slot_count_);
  unsigned char payload[kSlotBytes];
  unsigned char slot_key[kSlotBytes];
  for (std::uint64_t probe = 0; probe < probes; ++probe) {
    unsigned char* slot = slot_ptr((hash + probe) & mask);
    // The acquire pairs with the storer's release: once `valid` is seen,
    // every body byte written before the publish is visible.
    const std::uint64_t state =
        as_atomic_u64(slot + kSlotState).load(std::memory_order_acquire);
    if (state == kStateEmpty) break;  // end of this key's probe chain
    if (state != kStateValid) continue;  // mid-store or wedged writer
    if (read_u64(slot + kSlotKeyHash) != hash) continue;
    const std::uint64_t key_len = read_u64(slot + kSlotKeyLen);
    if (key_len != key.size() || key_len > slot_key_capacity()) continue;
    // Copy body first, checksum the copies: whatever happens to the slot
    // afterwards, the result we return is the one the checksum vouches
    // for. A mismatch (torn write, corruption) is a miss, never an error.
    std::memcpy(payload, slot + kSlotPayload, payload_bytes);
    std::memcpy(slot_key, slot + key_off, key_len);
    if (std::memcmp(slot_key, key.data(), key_len) != 0) continue;
    const std::uint64_t expected =
        entry_checksum(key_len, slot_key, payload, payload_bytes);
    if (read_u64(slot + kSlotChecksum) != expected) continue;
    metrics.hits.add();
    metrics.probe_length.record(static_cast<double>(probe + 1));
    return unpack_run_result(payload);
  }
  metrics.misses.add();
  return std::nullopt;
}

bool ShmResultCache::store(const std::string& key, const RunResult& result) {
  ShmMetrics& metrics = shm_metrics();
  const std::uint64_t payload_bytes = run_result_packed_bytes();
  const std::uint64_t key_off = key_offset_in_slot();
  if (key.size() > slot_key_capacity()) {
    metrics.spills.add();
    return false;
  }
  const std::uint64_t hash = fnv1a64(key);
  const std::uint64_t mask = slot_count_ - 1;
  const std::uint64_t probes = std::min(kMaxProbes, slot_count_);
  unsigned char payload[kSlotBytes];
  pack_run_result(result, payload);
  for (std::uint64_t probe = 0; probe < probes; ++probe) {
    unsigned char* slot = slot_ptr((hash + probe) & mask);
    auto state = as_atomic_u64(slot + kSlotState);
    const std::uint64_t seen = state.load(std::memory_order_acquire);
    if (seen == kStateValid) {
      // Results are deterministic in the key, so an existing entry for
      // this key makes the store a no-op (first writer wins).
      if (read_u64(slot + kSlotKeyHash) == hash &&
          read_u64(slot + kSlotKeyLen) == key.size() &&
          std::memcmp(slot + key_off, key.data(), key.size()) == 0) {
        return true;
      }
      continue;
    }
    if (seen != kStateEmpty) continue;  // someone else is writing here
    std::uint64_t expected = kStateEmpty;
    if (!state.compare_exchange_strong(expected, kStateWriting,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      continue;  // lost the claim race; probe onward
    }
    // Slot is ours. A crash between here and the publish wedges the slot
    // at `writing` — readers skip it, gc compaction reclaims it.
    const std::uint64_t seq = as_atomic_u64(base_ + kHdrStoreSeq)
                                  .fetch_add(1, std::memory_order_relaxed);
    write_u64(slot + kSlotKeyHash, hash);
    write_u64(slot + kSlotSeq, seq);
    write_u64(slot + kSlotKeyLen, key.size());
    std::memcpy(slot + kSlotPayload, payload, payload_bytes);
    std::memcpy(slot + key_off, key.data(), key.size());
    write_u64(slot + kSlotChecksum,
              entry_checksum(key.size(),
                             reinterpret_cast<const unsigned char*>(key.data()),
                             payload, payload_bytes));
    state.store(kStateValid, std::memory_order_release);
    metrics.stores.add();
    metrics.probe_length.record(static_cast<double>(probe + 1));
    return true;
  }
  metrics.spills.add();  // probe window full: the store is dropped
  return false;
}

ShmTableInfo ShmResultCache::info() const {
  ShmTableInfo info;
  info.path = path_;
  info.format_version = kFormatVersion;
  info.slot_count = slot_count_;
  info.slot_bytes = kSlotBytes;
  info.payload_bytes = run_result_packed_bytes();
  info.key_capacity = slot_key_capacity();
  info.header_bytes = kHeaderBytes;
  info.payload_offset = kSlotPayload;
  info.key_offset = key_offset_in_slot();
  std::error_code ec;
  info.file_bytes = std::filesystem::file_size(path_, ec);
  if (ec) info.file_bytes = 0;
  for (std::uint64_t i = 0; i < slot_count_; ++i) {
    unsigned char* slot = slot_ptr(i);
    const std::uint64_t state =
        as_atomic_u64(slot + kSlotState).load(std::memory_order_acquire);
    if (state == kStateValid) ++info.valid_slots;
    else if (state != kStateEmpty) ++info.wedged_slots;
  }
  return info;
}

std::vector<std::string> ShmResultCache::list_keys() const {
  const std::uint64_t payload_bytes = run_result_packed_bytes();
  const std::uint64_t key_off = key_offset_in_slot();
  struct Row {
    std::uint64_t seq;
    std::string key;
  };
  std::vector<Row> rows;
  for (std::uint64_t i = 0; i < slot_count_; ++i) {
    unsigned char* slot = slot_ptr(i);
    const std::uint64_t state =
        as_atomic_u64(slot + kSlotState).load(std::memory_order_acquire);
    if (state != kStateValid) continue;
    const std::uint64_t key_len = read_u64(slot + kSlotKeyLen);
    if (key_len > slot_key_capacity()) continue;
    const std::uint64_t expected = entry_checksum(
        key_len, slot + key_off, slot + kSlotPayload, payload_bytes);
    if (read_u64(slot + kSlotChecksum) != expected) continue;  // corrupt
    Row row;
    row.seq = read_u64(slot + kSlotSeq);
    row.key.assign(reinterpret_cast<const char*>(slot + key_off), key_len);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.seq != b.seq) return a.seq < b.seq;  // oldest store first
    return a.key < b.key;
  });
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (Row& row : rows) keys.push_back(std::move(row.key));
  return keys;
}

CacheGcResult ShmResultCache::compact(std::uint64_t keep_newest) {
#if !ESCHED_SHM_CACHE_POSIX
  (void)keep_newest;
  return {};
#else
  ShmMetrics& metrics = shm_metrics();
  const std::uint64_t payload_bytes = run_result_packed_bytes();
  const std::uint64_t key_off = key_offset_in_slot();
  // Snapshot the survivors: every valid, checksum-clean entry, newest
  // (highest store seq) preferred. Wedged and corrupt slots never survive
  // a rebuild — that is the point of compaction.
  struct Entry {
    std::uint64_t seq;
    std::string key;
    std::vector<unsigned char> payload;
  };
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < slot_count_; ++i) {
    unsigned char* slot = slot_ptr(i);
    const std::uint64_t state =
        as_atomic_u64(slot + kSlotState).load(std::memory_order_acquire);
    if (state != kStateValid) continue;
    const std::uint64_t key_len = read_u64(slot + kSlotKeyLen);
    if (key_len > slot_key_capacity()) continue;
    const std::uint64_t expected = entry_checksum(
        key_len, slot + key_off, slot + kSlotPayload, payload_bytes);
    if (read_u64(slot + kSlotChecksum) != expected) continue;
    Entry entry;
    entry.seq = read_u64(slot + kSlotSeq);
    entry.key.assign(reinterpret_cast<const char*>(slot + key_off), key_len);
    entry.payload.assign(slot + kSlotPayload,
                         slot + kSlotPayload + payload_bytes);
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.key < b.key;
            });
  const std::size_t keep =
      std::min<std::size_t>(entries.size(), keep_newest);
  const std::size_t dropped = entries.size() - keep;
  entries.erase(entries.begin(), entries.end() - static_cast<std::ptrdiff_t>(keep));

  // Rebuild at <= 50% load (retrying larger if survivors cluster past the
  // probe window), renumbering sequences densely from zero.
  std::uint64_t new_count = std::bit_ceil(std::max<std::uint64_t>(
      keep * 2, std::min(slot_count_, kMinSlotCount)));
  std::string image;
  for (;; new_count *= 2) {
    image.assign(kHeaderBytes + new_count * kSlotBytes, '\0');
    unsigned char* buf = reinterpret_cast<unsigned char*>(image.data());
    fill_header(buf, new_count, entries.size());
    const std::uint64_t mask = new_count - 1;
    const std::uint64_t probes = std::min(kMaxProbes, new_count);
    bool ok = true;
    for (std::size_t n = 0; n < entries.size() && ok; ++n) {
      const Entry& entry = entries[n];
      const std::uint64_t hash = fnv1a64(entry.key);
      ok = false;
      for (std::uint64_t probe = 0; probe < probes; ++probe) {
        unsigned char* slot =
            buf + kHeaderBytes + ((hash + probe) & mask) * kSlotBytes;
        if (read_u64(slot + kSlotState) != kStateEmpty) continue;
        write_u64(slot + kSlotState, kStateValid);
        write_u64(slot + kSlotKeyHash, hash);
        write_u64(slot + kSlotSeq, n);
        write_u64(slot + kSlotKeyLen, entry.key.size());
        std::memcpy(slot + kSlotPayload, entry.payload.data(), payload_bytes);
        std::memcpy(slot + key_off, entry.key.data(), entry.key.size());
        write_u64(slot + kSlotChecksum,
                  entry_checksum(entry.key.size(),
                                 reinterpret_cast<const unsigned char*>(
                                     entry.key.data()),
                                 entry.payload.data(), payload_bytes));
        ok = true;
        break;
      }
    }
    if (ok) break;
  }

  // Publish the rebuilt table over the old file and remap. Processes still
  // mapping the old inode keep a consistent (orphaned) view; their stores
  // land in a file nobody new will open — lost cache entries, never lost
  // correctness.
  atomic_write_file(path_, image);
  ESCHED_CHECK(map(), "cannot remap compacted cache table '" + path_ + "'");
  metrics.evictions.add(dropped);
  return {dropped, keep};
#endif
}

CacheGcResult ShmResultCache::gc(std::optional<std::uintmax_t> max_bytes) {
  // Stale table-creation temps (a creator died between open and link) are
  // cruft once they are demonstrably stale: a live creator may hold a
  // young one open right now.
  namespace fs = std::filesystem;
  constexpr double kTmpStaleSeconds = 3600.0;
  const fs::path table_file(path_);
  const std::string tmp_prefix = table_file.filename().string() + ".tmp.";
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  for (fs::directory_iterator it(table_file.parent_path(), ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind(tmp_prefix, 0) != 0) continue;
    std::error_code tmp_ec;
    const auto mtime = fs::last_write_time(it->path(), tmp_ec);
    if (tmp_ec) continue;
    const double age = std::chrono::duration<double>(now - mtime).count();
    if (age > kTmpStaleSeconds) fs::remove(it->path(), tmp_ec);
  }

  // Without a budget nothing is evicted — not even entries a live writer
  // stores between this count and the rebuild's snapshot — and only
  // wedged slots force a rebuild.
  const std::uint64_t keep = max_bytes.has_value()
                                 ? *max_bytes / kSlotBytes
                                 : std::numeric_limits<std::uint64_t>::max();
  const std::size_t live = list_keys().size();
  if (keep < live || info().wedged_slots > 0) return compact(keep);
  CacheGcResult result;
  result.kept = live;
  return result;
}

}  // namespace esched
