#include "common/atomic_file.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "common/error.hpp"

namespace esched {

std::string unique_tmp_path(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
#if __has_include(<unistd.h>)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path + ".tmp." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1));
}

namespace {

/// Streams `write` into `path` in place. The final flush happens in
/// close(): a short write there (full disk, file-size limit) must throw
/// too.
void write_in_place(const std::string& path,
                    const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path, std::ios::binary);
  ESCHED_CHECK(out.good(), "cannot open '" + path + "' for writing");
  write(out);
  out.close();
  ESCHED_CHECK(!out.fail(), "error writing '" + path + "'");
}

}  // namespace

void atomic_write_stream(const std::string& path,
                         const std::function<void(std::ostream&)>& write) {
  // A device or FIFO at `path` (/dev/null, a pipe to a reader) is written
  // through: renaming over it would replace the node itself.
  std::error_code ec;
  const auto target = std::filesystem::status(path, ec);
  if (std::filesystem::exists(target) &&
      !std::filesystem::is_regular_file(target)) {
    write_in_place(path, write);
    return;
  }
  const std::string tmp = unique_tmp_path(path);
  try {
    write_in_place(tmp, write);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::remove(tmp.c_str());
  ESCHED_CHECK(!ec, "cannot move '" + tmp + "' into place at '" + path +
                        "': " + ec.message());
}

void atomic_write_file(const std::string& path, const std::string& text) {
  atomic_write_stream(path, [&](std::ostream& out) { out << text; });
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace esched
