// Crash-safe file publication: write a sibling temp file, then rename it
// into place. POSIX rename atomicity means a reader never observes a torn
// file under the final name, and concurrent writers racing on one path
// each publish a complete file (last rename wins). Shared by the reports
// and their mergers, the disk-backed work queue (src/dist), and anything
// else that must never leave a half-written artifact; read_file is the
// whole-file read their readers share.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

namespace esched {

/// A collision-safe sibling temp name for `path`: "<path>.tmp.<pid>.<n>"
/// with a process-wide counter, so concurrent writers — including several
/// in one process — never share a temp file. Files matching ".tmp." are
/// recognized as sweepable cruft by the queue's and cache's gc passes.
std::string unique_tmp_path(const std::string& path);

/// Atomically replaces `path` with `text` (unique temp + rename). Throws
/// esched::Error on failure — including a failed final flush — removing
/// the temp file first, so nothing is published. A `path` that exists and
/// is not a regular file (a device such as /dev/null, a FIFO) is written
/// in place instead, so the node itself is never replaced.
void atomic_write_file(const std::string& path, const std::string& text);

/// atomic_write_file with the contents streamed by `write` into the file,
/// so a large one is never held in memory whole. An exception from
/// `write` is rethrown after the temp file is removed.
void atomic_write_stream(const std::string& path,
                         const std::function<void(std::ostream&)>& write);

/// The whole of `path`; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path);

}  // namespace esched
