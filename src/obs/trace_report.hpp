// Multi-worker trace merging and span-tree reconstruction — the analysis
// half of src/obs/trace. Each worker writes its own JSONL trace with
// per-process span ids; `esched trace report a.jsonl b.jsonl` feeds them
// here, where events are ordered deterministically by (t, pid, seq) and
// the span_begin/span_end pairs are rebuilt into per-process trees
// (worker → chunk → sweep → point → solve). The report prints a per-phase
// time breakdown (total vs self time), a slowest-spans table, and a
// flamegraph-ready folded-stack form (`--format folded`).
//
// Robust by construction: a torn final line (killed worker), a foreign
// line, or a span left open at the kill point must degrade the report
// (counted in malformed_lines / unclosed_spans), never abort it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace esched {

/// One reconstructed span.
struct TraceReportSpan {
  std::size_t file = 0;  ///< index into the input file list
  long pid = 0;
  std::uint64_t id = 0;         ///< per-process span id
  std::uint64_t parent_id = 0;  ///< 0 = root
  std::string name;
  double t_begin = 0.0;
  double t_end = 0.0;   ///< last event time of its file when !closed
  bool closed = false;  ///< saw the matching span_end
  /// Custom span_begin fields ("index" = "3", "solver" = "qbd", ...) in
  /// emission order, then those span_end carries (trace_span_annotate),
  /// values rendered as strings.
  std::vector<std::pair<std::string, std::string>> fields;
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  std::size_t parent = kNoParent;     ///< index into TraceForest::spans
  std::vector<std::size_t> children;  ///< indices into TraceForest::spans

  double duration() const { return t_end - t_begin; }
};

/// Every span from every input file, in deterministic (t, pid, seq)
/// begin order, linked into trees.
struct TraceForest {
  std::vector<TraceReportSpan> spans;
  std::vector<std::size_t> roots;  ///< spans with no (resolvable) parent
  std::size_t files = 0;
  std::size_t events = 0;           ///< parsed JSONL events, all types
  std::size_t malformed_lines = 0;  ///< unparsable or field-less lines
  std::size_t unclosed_spans = 0;   ///< begun but never ended

  /// Span duration minus its children's durations, clamped at 0 (clock
  /// granularity can make a child nominally outlast its parent).
  double self_seconds(std::size_t index) const;
  /// Root-to-span name path, e.g. {"worker", "chunk", "sweep", "point"}.
  std::vector<std::string> path(std::size_t index) const;
};

/// Parses and merges the trace files. Throws esched::Error only when a
/// file cannot be opened; bad content degrades into the counters above.
TraceForest build_trace_forest(const std::vector<std::string>& files);

/// Per-phase breakdown + slowest-spans table (`rows` rows).
void print_trace_report(const TraceForest& forest, std::ostream& out,
                        std::size_t rows);

/// Folded-stack lines — "worker;chunk;sweep;point 1234" with self time in
/// integer microseconds, aggregated per path and sorted lexicographically
/// — the input format flamegraph.pl and speedscope consume directly.
void print_trace_folded(const TraceForest& forest, std::ostream& out);

}  // namespace esched
