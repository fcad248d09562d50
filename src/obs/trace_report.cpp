#include "obs/trace_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <tuple>

#include "common/error.hpp"
#include "common/json.hpp"

namespace esched {

namespace {

/// One parsed JSONL line, carrying just what ordering and span matching
/// need; non-span events keep only their sort key (they still count).
struct RawEvent {
  double t = 0.0;
  long pid = 0;
  std::uint64_t seq = 0;
  std::size_t file = 0;
  enum class Kind { kBegin, kEnd, kOther } kind = Kind::kOther;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::vector<std::pair<std::string, std::string>> fields;
};

/// The merge order the trace schema promises: t first (one run's
/// steady-clock timeline), then pid, then the per-process seq that
/// restores each writer's emission order under equal timestamps.
bool event_order(const RawEvent& a, const RawEvent& b) {
  return std::tie(a.t, a.pid, a.seq, a.file) <
         std::tie(b.t, b.pid, b.seq, b.file);
}

std::string field_to_string(const JsonValue& value) {
  if (value.is_string()) return value.as_string("field");
  return value.dump(/*indent=*/0);
}

}  // namespace

double TraceForest::self_seconds(std::size_t index) const {
  const TraceReportSpan& span = spans[index];
  double children_seconds = 0.0;
  for (const std::size_t child : span.children) {
    children_seconds += spans[child].duration();
  }
  return std::max(0.0, span.duration() - children_seconds);
}

std::vector<std::string> TraceForest::path(std::size_t index) const {
  std::vector<std::string> names;
  for (std::size_t n = index; n != TraceReportSpan::kNoParent;
       n = spans[n].parent) {
    names.push_back(spans[n].name);
  }
  std::reverse(names.begin(), names.end());
  return names;
}

TraceForest build_trace_forest(const std::vector<std::string>& files) {
  TraceForest forest;
  forest.files = files.size();
  std::vector<RawEvent> events;
  std::vector<double> file_end(files.size(), 0.0);  // last event time seen
  for (std::size_t f = 0; f < files.size(); ++f) {
    std::ifstream in(files[f], std::ios::binary);
    if (!in.good()) {
      throw Error("cannot read trace file '" + files[f] + "'");
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      RawEvent event;
      event.file = f;
      try {
        const JsonValue doc = parse_json(line, files[f]);
        const JsonValue* t = doc.find("t");
        const JsonValue* ev = doc.find("ev");
        if (t == nullptr || ev == nullptr) throw Error("not a trace event");
        event.t = t->as_number("t");
        const std::string& type = ev->as_string("ev");
        if (const JsonValue* pid = doc.find("pid")) {
          event.pid = static_cast<long>(pid->as_number("pid"));
        }
        if (const JsonValue* seq = doc.find("seq")) {
          event.seq = static_cast<std::uint64_t>(seq->as_number("seq"));
        }
        if (type == "span_begin" || type == "span_end") {
          event.kind = type == "span_begin" ? RawEvent::Kind::kBegin
                                            : RawEvent::Kind::kEnd;
          const JsonValue* span = doc.find("span");
          if (span == nullptr) throw Error("span event without span id");
          event.span = static_cast<std::uint64_t>(span->as_number("span"));
          if (const JsonValue* parent = doc.find("parent")) {
            event.parent =
                static_cast<std::uint64_t>(parent->as_number("parent"));
          }
          if (const JsonValue* name = doc.find("name")) {
            event.name = name->as_string("name");
          }
          // Fields from both ends: span_end carries what the span's code
          // annotated while it ran (trace_span_annotate).
          for (const auto& [key, value] : doc.as_object("event")) {
            if (key == "t" || key == "ev" || key == "pid" || key == "seq" ||
                key == "span" || key == "parent" || key == "name") {
              continue;
            }
            event.fields.emplace_back(key, field_to_string(value));
          }
        }
      } catch (const std::exception&) {
        // A SIGKILLed worker's torn final line, or a foreign line: skip.
        ++forest.malformed_lines;
        continue;
      }
      file_end[f] = std::max(file_end[f], event.t);
      events.push_back(std::move(event));
    }
  }
  forest.events = events.size();
  std::sort(events.begin(), events.end(), event_order);

  // Replay in merged order. Span ids are per-process, so the lookup key
  // scopes them by (file, pid) — two workers' span 7s never collide.
  std::map<std::tuple<std::size_t, long, std::uint64_t>, std::size_t> by_id;
  for (const RawEvent& event : events) {
    if (event.kind == RawEvent::Kind::kBegin) {
      TraceReportSpan span;
      span.file = event.file;
      span.pid = event.pid;
      span.id = event.span;
      span.parent_id = event.parent;
      span.name = event.name;
      span.t_begin = event.t;
      span.t_end = file_end[event.file];  // until the matching end arrives
      span.fields = event.fields;
      if (event.parent != 0) {
        const auto parent =
            by_id.find({event.file, event.pid, event.parent});
        if (parent != by_id.end()) span.parent = parent->second;
      }
      const std::size_t index = forest.spans.size();
      by_id[{event.file, event.pid, event.span}] = index;
      if (span.parent != TraceReportSpan::kNoParent) {
        forest.spans[span.parent].children.push_back(index);
      } else {
        forest.roots.push_back(index);
      }
      forest.spans.push_back(std::move(span));
    } else if (event.kind == RawEvent::Kind::kEnd) {
      const auto found = by_id.find({event.file, event.pid, event.span});
      if (found == by_id.end()) {
        ++forest.malformed_lines;  // end without a begin
        continue;
      }
      TraceReportSpan& span = forest.spans[found->second];
      span.t_end = std::max(span.t_begin, event.t);
      span.closed = true;
      span.fields.insert(span.fields.end(), event.fields.begin(),
                         event.fields.end());
    }
  }
  for (const TraceReportSpan& span : forest.spans) {
    if (!span.closed) ++forest.unclosed_spans;
  }
  return forest;
}

namespace {

void appendf(std::ostream& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out << buf;
}

}  // namespace

void print_trace_report(const TraceForest& forest, std::ostream& out,
                        std::size_t rows) {
  appendf(out,
          "trace report: %zu file%s, %zu events, %zu spans "
          "(%zu unclosed, %zu malformed lines)\n",
          forest.files, forest.files == 1 ? "" : "s", forest.events,
          forest.spans.size(), forest.unclosed_spans, forest.malformed_lines);
  if (forest.spans.empty()) {
    out << "  no spans — was the trace recorded with this esched version?\n";
    return;
  }

  struct Phase {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Phase> phases;  // sorted → stable output
  for (std::size_t n = 0; n < forest.spans.size(); ++n) {
    Phase& phase = phases[forest.spans[n].name];
    ++phase.count;
    phase.total += forest.spans[n].duration();
    phase.self += forest.self_seconds(n);
  }
  std::vector<std::pair<std::string, Phase>> ordered(phases.begin(),
                                                     phases.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.total > b.second.total;
                   });
  appendf(out, "\nphase breakdown (self = total minus child spans):\n");
  appendf(out, "  %-12s %8s %12s %12s %12s\n", "span", "count", "total s",
          "self s", "mean s");
  for (const auto& [name, phase] : ordered) {
    appendf(out, "  %-12s %8zu %12.6f %12.6f %12.6f\n", name.c_str(),
            phase.count, phase.total, phase.self,
            phase.total / static_cast<double>(phase.count));
  }

  // Slowest spans: the "point" phase when present (the unit of sweep
  // work), otherwise whatever phase dominates total time.
  std::string focus = phases.count("point") != 0 ? "point"
                                                 : ordered.front().first;
  std::vector<std::size_t> slow;
  for (std::size_t n = 0; n < forest.spans.size(); ++n) {
    if (forest.spans[n].name == focus) slow.push_back(n);
  }
  std::stable_sort(slow.begin(), slow.end(),
                   [&](std::size_t a, std::size_t b) {
                     return forest.spans[a].duration() >
                            forest.spans[b].duration();
                   });
  if (slow.size() > rows) slow.resize(rows);
  appendf(out, "\nslowest %s spans:\n", focus.c_str());
  for (const std::size_t n : slow) {
    const TraceReportSpan& span = forest.spans[n];
    // A point's solve child says why it took its path (the exact
    // backend's method and its predicted cost); show what it adds.
    auto fields = span.fields;
    for (const std::size_t child : span.children) {
      if (forest.spans[child].name != "solve") continue;
      for (const auto& field : forest.spans[child].fields) {
        if (std::none_of(fields.begin(), fields.end(), [&](const auto& f) {
              return f.first == field.first;
            })) {
          fields.push_back(field);
        }
      }
    }
    appendf(out, "  %10.6f s  pid %ld%s", span.duration(), span.pid,
            fields.empty() ? "" : " ");
    for (std::size_t f = 0; f < fields.size(); ++f) {
      out << (f == 0 ? "" : " ") << fields[f].first << "="
          << fields[f].second;
    }
    if (!span.closed) out << "  [unclosed]";
    out << "\n";
  }
}

void print_trace_folded(const TraceForest& forest, std::ostream& out) {
  // Aggregate SELF time per root-to-span name path so the stack values
  // sum to total traced time, the invariant flamegraph tooling expects.
  std::map<std::string, std::uint64_t> folded;
  for (std::size_t n = 0; n < forest.spans.size(); ++n) {
    const std::vector<std::string> names = forest.path(n);
    std::string stack;
    for (const std::string& name : names) {
      if (!stack.empty()) stack += ';';
      stack += name;
    }
    folded[stack] += static_cast<std::uint64_t>(
        std::llround(forest.self_seconds(n) * 1e6));
  }
  for (const auto& [stack, micros] : folded) {
    out << stack << " " << micros << "\n";
  }
}

}  // namespace esched
