#include "obs/trace.hpp"

#include <cerrno>
#include <cstring>
#include <vector>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "common/error.hpp"

namespace esched {

namespace {

std::atomic<TraceWriter*> g_trace{nullptr};

long current_pid() {
#if __has_include(<unistd.h>)
  return static_cast<long>(::getpid());
#else
  return 0;
#endif
}

/// Span ids are per-process (unique under one pid, which is how the
/// report merger scopes them); 0 is reserved for "no span / no parent".
std::atomic<std::uint64_t> g_next_span{1};

/// One open span on this thread, with the fields trace_span_annotate
/// added for its span_end.
struct OpenSpan {
  std::uint64_t id;
  std::vector<TraceField> end_fields;
};

/// This thread's stack of open spans — what makes nested TraceSpans
/// parent automatically without threading ids through call signatures.
thread_local std::vector<OpenSpan> t_span_stack;

}  // namespace

TraceWriter::TraceWriter(const std::string& path)
    : path_(path),
      // esched-lint: allow(raw-file-io): the JSONL trace is a deliberately
      // live, tailable append sink (one fwrite + flush per complete line),
      // not a publish-on-completion artifact — temp + rename would hide
      // the stream until process exit.
      file_(std::fopen(path.c_str(), "wb")),
      start_(std::chrono::steady_clock::now()),
      pid_(current_pid()) {
  if (file_ == nullptr) {
    throw Error("cannot open trace file '" + path +
                "': " + std::strerror(errno));
  }
}

TraceWriter::~TraceWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void TraceWriter::event(const char* type,
                        std::initializer_list<TraceField> fields) {
  event(type, std::vector<TraceField>(fields.begin(), fields.end()));
}

void TraceWriter::event(const char* type,
                        const std::vector<TraceField>& fields) {
  const double t =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  // Build the whole line before taking the lock: serialization is the
  // expensive part and needs no synchronization.
  JsonValue line = JsonValue::make_object();
  line.set("t", JsonValue::make_number(t));
  line.set("ev", JsonValue::make_string(type));
  line.set("pid", JsonValue::make_number(static_cast<double>(pid_)));
  // The sequence is assigned OUTSIDE the writer mutex, so two events can
  // land in the file out of seq order — the report merger's (t, pid, seq)
  // sort restores the assignment order either way.
  line.set("seq", JsonValue::make_number(static_cast<double>(
                      seq_.fetch_add(1, std::memory_order_relaxed))));
  for (const TraceField& field : fields) {
    line.set(field.key, JsonValue(field.value));
  }
  std::string text = line.dump(/*indent=*/0);
  text.push_back('\n');
  std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(text.data(), 1, text.size(), file_);
  std::fflush(file_);
}

TraceWriter* set_global_trace(TraceWriter* writer) {
  return g_trace.exchange(writer, std::memory_order_acq_rel);
}

TraceWriter* global_trace() {
  return g_trace.load(std::memory_order_acquire);
}

std::uint64_t trace_span_begin(const char* name,
                               std::initializer_list<TraceField> fields,
                               std::uint64_t parent) {
  TraceWriter* writer = global_trace();
  if (writer == nullptr) return 0;
  const std::uint64_t id =
      g_next_span.fetch_add(1, std::memory_order_relaxed);
  if (parent == 0 && !t_span_stack.empty()) parent = t_span_stack.back().id;
  t_span_stack.push_back({id, {}});
  // span/parent/name lead the custom fields so every span_begin line is
  // self-describing.
  std::vector<TraceField> all;
  all.reserve(fields.size() + 3);
  all.push_back({"span", static_cast<std::size_t>(id)});
  all.push_back({"parent", static_cast<std::size_t>(parent)});
  all.push_back({"name", name});
  for (const TraceField& field : fields) all.push_back(field);
  writer->event("span_begin", all);
  return id;
}

void trace_span_end(std::uint64_t span_id, const char* name) {
  if (span_id == 0) return;
  // Pop this span (normally the top; a mismatched interleaving — e.g. a
  // span object outliving its children on another thread — just erases
  // the id wherever it sits, keeping the stack from leaking).
  std::vector<TraceField> fields = {
      {"span", static_cast<std::size_t>(span_id)}, {"name", name}};
  for (std::size_t n = t_span_stack.size(); n-- > 0;) {
    if (t_span_stack[n].id == span_id) {
      for (TraceField& field : t_span_stack[n].end_fields) {
        fields.push_back(std::move(field));
      }
      t_span_stack.erase(t_span_stack.begin() +
                         static_cast<std::ptrdiff_t>(n));
      break;
    }
  }
  TraceWriter* writer = global_trace();
  if (writer == nullptr) return;  // sink detached while the span was open
  writer->event("span_end", fields);
}

void trace_span_annotate(std::initializer_list<TraceField> fields) {
  if (global_trace() == nullptr || t_span_stack.empty()) return;
  std::vector<TraceField>& end_fields = t_span_stack.back().end_fields;
  end_fields.insert(end_fields.end(), fields.begin(), fields.end());
}

}  // namespace esched
