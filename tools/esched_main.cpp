// `esched` — the scenario-sweep CLI.
//
// Runs scenarios — built-in names or user-authored JSON spec files —
// through the parallel engine, renders a named report view, and writes
// uniform CSV/JSON reports:
//
//   esched list                          # scenarios + report views
//   esched show fig5                     # print a built-in as spec JSON
//   esched run fig6 --threads 4
//   esched run my_sweep.json --view table
//   esched run fig4 fig5 --json out.json # shared memo cache across both
//   esched run fig5 --shard 0/2 --out s0.csv   # order-independent shards
//   esched run fig5 --cache-dir .esched-cache  # skip already-solved points
//   esched run fig5 --stream --out f5.csv      # tailable; resumes after a kill
//   esched merge s0.csv s1.csv --out merged.csv
//   esched merge a.json b.json --out m.json    # JSON reports merge too
//   esched cache ls --cache-dir .esched-cache
//   esched cache gc --cache-dir .esched-cache --max-bytes 8000000
//
// Distributed sweeps (the filesystem work queue, src/dist):
//
//   esched queue init fig4 --queue-dir q --chunk 32   # expand into tasks
//   esched work --queue-dir q         # claim/solve/commit chunks (run many)
//   esched status --queue-dir q      # pending/leased/done counts + ETA
//   esched collect --queue-dir q --out merged.csv --json merged.json
//
// (`esched <scenario>` without the `run` keyword still works.)
//
// Scenarios named in one invocation share the memoization cache, so
// overlapping grids (e.g. fig5 is a slice of fig4) solve once; --cache-dir
// extends that across invocations and processes.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "dist/work_queue.hpp"
#include "dist/worker.hpp"
#include "engine/report.hpp"
#include "engine/shm_cache.hpp"
#include "engine/scenario.hpp"
#include "engine/spec.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/bench_diff.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"
#include "phase/size_dist.hpp"

namespace {

// --- Command-line parsing ----------------------------------------------------
// Every subcommand is one row of commands() below: its name, its operands
// and its flags. parse_args reads any command line against its row, and
// print_usage writes each row's synopsis line.

/// How a flag's value parses.
enum class FlagKind {
  kString,  ///< any text
  kCount,   ///< a non-negative integer (Args::count checks the range)
  kNumber,  ///< a non-negative real: every seconds flag, and --threshold
  kSwitch,  ///< takes no value
};

/// kHidden flags parse like any other but stay out of the synopsis.
enum class FlagUse { kOptional, kRequired, kHidden };

struct Flag {
  const char* name;
  FlagKind kind;
  const char* value_name = nullptr;  ///< the value's name in the synopsis
  FlagUse use = FlagUse::kOptional;
};

/// Concatenates flag groups, so flags that several subcommands share are
/// declared once.
std::vector<Flag> flags(std::initializer_list<std::vector<Flag>> groups) {
  std::vector<Flag> all;
  for (const auto& group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

/// `esched run` and `esched queue init`: overrides applied while loading
/// the sweep.
const std::vector<Flag> kSweepFlags = {
    {"--seed", FlagKind::kCount, "S"},
    {"--sim-jobs", FlagKind::kCount, "N"},
    {"--exact-method", FlagKind::kString, "M"},
};

/// `esched run` and `esched work`: how the sweep runs and what it records.
const std::vector<Flag> kRunnerFlags = {
    {"--threads", FlagKind::kCount, "N"},
    {"--cache-dir", FlagKind::kString, "D"},
    {"--progress", FlagKind::kSwitch},
    {"--metrics-out", FlagKind::kString, "P"},
    {"--trace", FlagKind::kString, "P"},
    {"--telemetry-dir", FlagKind::kString, "D"},
    {"--telemetry-interval", FlagKind::kNumber, "S"},
};

const std::vector<Flag> kQueueDir = {
    {"--queue-dir", FlagKind::kString, "Q", FlagUse::kRequired}};
const std::vector<Flag> kCacheDir = {
    {"--cache-dir", FlagKind::kString, "D", FlagUse::kRequired}};

std::string expects_count(const std::string& flag) {
  return flag + " expects a non-negative integer";
}

/// A non-negative decimal integer: no sign, no blanks, no overflow.
std::uint64_t parse_count(const std::string& flag, const std::string& value) {
  std::uint64_t parsed = 0;
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error != std::errc() || stop != end) {
    throw esched::Error(expects_count(flag));
  }
  return parsed;
}

double parse_number(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == value.c_str() ||
      !(parsed >= 0.0)) {
    throw esched::Error(flag + " expects a non-negative number");
  }
  return parsed;
}

/// One parsed command line: its operands in order, plus the value of each
/// flag given (the last one wins), already checked against the flag's kind.
struct Args {
  using Value = std::variant<std::string, std::uint64_t, double>;
  std::vector<std::string> operands;
  std::map<std::string, Value> values;

  bool has(const std::string& flag) const { return values.count(flag) > 0; }

  std::string text(const std::string& flag,
                   const std::string& fallback = "") const {
    const auto it = values.find(flag);
    return it == values.end() ? fallback : std::get<std::string>(it->second);
  }

  /// A kCount flag as T; a value T cannot hold is refused like any other
  /// bad count.
  template <typename T>
  T count(const std::string& flag, T fallback) const {
    const auto it = values.find(flag);
    if (it == values.end()) return fallback;
    const std::uint64_t value = std::get<std::uint64_t>(it->second);
    if (!std::in_range<T>(value)) throw esched::Error(expects_count(flag));
    return static_cast<T>(value);
  }

  double number(const std::string& flag, double fallback) const {
    const auto it = values.find(flag);
    return it == values.end() ? fallback : std::get<double>(it->second);
  }
};

struct Command {
  const char* name;      ///< one or two words: "run", "cache ls", ...
  const char* operands;  ///< synopsis of the positional arguments, or nullptr
  std::vector<Flag> flags;
  int (*run)(const Args&);
};

/// The one flag-parsing loop: every subcommand's arguments go through it.
Args parse_args(const Command& command,
                const std::vector<std::string>& words) {
  const std::string name = command.name;
  Args args;
  for (std::size_t n = 0; n < words.size(); ++n) {
    const std::string& word = words[n];
    const bool is_flag = !word.empty() && word[0] == '-';
    if (!is_flag && command.operands != nullptr) {
      args.operands.push_back(word);
      continue;
    }
    const auto flag = std::find_if(
        command.flags.begin(), command.flags.end(),
        [&](const Flag& candidate) { return word == candidate.name; });
    if (!is_flag || flag == command.flags.end()) {
      throw esched::Error("unknown " + name + " option '" + word + "'");
    }
    Args::Value& slot = args.values[word];
    if (flag->kind == FlagKind::kSwitch) {
      slot = std::string();
      continue;
    }
    if (n + 1 >= words.size()) throw esched::Error(word + " expects a value");
    const std::string& value = words[++n];
    if (flag->kind == FlagKind::kCount) {
      slot = parse_count(word, value);
    } else if (flag->kind == FlagKind::kNumber) {
      slot = parse_number(word, value);
    } else {
      slot = value;
    }
  }
  for (const Flag& flag : command.flags) {
    if (flag.use == FlagUse::kRequired && args.text(flag.name).empty()) {
      throw esched::Error(name + " requires " + flag.name + " " +
                          flag.value_name);
    }
  }
  return args;
}

void print_usage();

/// `esched dists`: the supported size-distribution families.
void print_size_dists() {
  std::printf(
      "size distribution families (options.size_dist_i/size_dist_e and the\n"
      "axes.size_dist sweep axis; each scales to the class mean 1/mu_c, so\n"
      "sweeping a distribution changes variability at fixed load):\n\n");
  for (const auto& info : esched::size_dist_families()) {
    std::printf("  %-20s %s\n", info.syntax, info.summary);
  }
  std::printf(
      "\nbackends: sim accepts any family for either class; exact accepts\n"
      "phase-type *inelastic* sizes (<= 16 phases, state augmentation) and\n"
      "exponential elastic sizes; qbd/mmk/trace require exponential sizes\n"
      "and reject other specs with an error naming the option.\n");
}

void print_scenarios() {
  std::printf("built-in scenarios:\n");
  for (const auto& name : esched::builtin_scenario_names()) {
    const esched::Scenario s = esched::builtin_scenario(name);
    std::printf("  %-20s %4zu points  %s\n", name.c_str(), s.num_points(),
                s.description.c_str());
  }
  std::printf("\nreport views (--view):");
  for (const auto& view : esched::report_view_names()) {
    std::printf(" %s", view.c_str());
  }
  std::printf("\n");
}

/// Installs the process-wide trace sink for its lifetime when a --trace
/// path was given (engine layers pick it up via global_trace()), and
/// detaches the sink before the writer is destroyed. Observation only:
/// tracing never alters report bytes, RNG streams, or cache keys.
class TraceScope {
 public:
  explicit TraceScope(const std::string& path) {
    if (!path.empty()) {
      writer_ = std::make_unique<esched::TraceWriter>(path);
      esched::set_global_trace(writer_.get());
    }
  }
  ~TraceScope() {
    if (writer_ != nullptr) esched::set_global_trace(nullptr);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::unique_ptr<esched::TraceWriter> writer_;
};

/// Writes the --metrics-out snapshot (atomic rename, stable schema).
void write_metrics_snapshot(const std::string& path) {
  if (path.empty()) return;
  esched::write_metrics_json(esched::global_metrics(), path);
  std::printf("wrote %s (metrics schema v%d)\n", path.c_str(),
              esched::kMetricsSchemaVersion);
}

/// "I/N" with 0 <= I < N.
std::pair<std::size_t, std::size_t> parse_shard(const std::string& value) {
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos) {
    throw esched::Error("--shard expects I/N (e.g. --shard 0/4)");
  }
  const std::uint64_t index = parse_count("--shard", value.substr(0, slash));
  const std::uint64_t count = parse_count("--shard", value.substr(slash + 1));
  if (count < 1 || index >= count) {
    throw esched::Error("--shard I/N needs N >= 1 and I < N");
  }
  return {static_cast<std::size_t>(index), static_cast<std::size_t>(count)};
}

/// The kSweepFlags of a command line.
esched::SweepOverrides sweep_overrides(const Args& args) {
  esched::SweepOverrides overrides;
  if (args.has("--seed")) {
    overrides.base_seed = args.count<std::uint64_t>("--seed", 1);
  }
  overrides.sim_jobs = args.count<std::uint64_t>("--sim-jobs", 0);
  overrides.exact_method = args.text("--exact-method");
  return overrides;
}

/// `esched show <scenario>...`: each one as spec JSON.
int run_show(const Args& args) {
  if (args.operands.empty()) {
    throw esched::Error("show expects a scenario name");
  }
  for (const auto& name : args.operands) {
    const esched::Scenario scenario = esched::looks_like_spec_path(name)
                                          ? esched::load_scenario_file(name)
                                          : esched::builtin_scenario(name);
    std::printf("%s\n", esched::scenario_to_json(scenario).dump().c_str());
  }
  return 0;
}

/// `esched [run] <scenario>... [options]`
int run_sweep(const Args& args) {
  if (args.has("--help") || args.has("-h")) {
    print_usage();
    return 0;
  }
  const std::vector<std::string>& scenario_args = args.operands;
  if (scenario_args.empty()) {
    print_usage();
    std::printf("\n");
    print_scenarios();
    return 1;
  }
  const int threads = args.count<int>("--threads", 0);
  const std::size_t summary_rows = args.count<std::size_t>("--rows", 20);
  const std::string view_override = args.text("--view");
  const std::string cache_dir = args.text("--cache-dir");
  const std::string telemetry_dir = args.text("--telemetry-dir");
  const std::string out_path = args.text("--out");
  const std::string json_path = args.text("--json");
  const bool stream = args.has("--stream");
  const bool show_progress = args.has("--progress");
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  if (args.has("--shard")) {
    std::tie(shard_index, shard_count) = parse_shard(args.text("--shard"));
  }
  if (stream && out_path.empty()) {
    throw esched::Error("--stream requires --out PATH");
  }
  const TraceScope trace(args.text("--trace"));
  // Live telemetry for standalone runs mirrors the worker path: periodic
  // snapshots under the run's owner identity, final snapshot at exit.
  std::unique_ptr<esched::TelemetryPublisher> telemetry;
  if (!telemetry_dir.empty()) {
    esched::TelemetryOptions telemetry_options;
    telemetry_options.dir = telemetry_dir;
    telemetry_options.owner = esched::default_worker_owner();
    telemetry_options.interval_seconds =
        args.number("--telemetry-interval", 2.0);
    telemetry = std::make_unique<esched::TelemetryPublisher>(
        std::move(telemetry_options));
  }

  esched::SweepRunner runner(threads);
  if (!cache_dir.empty()) runner.set_cache_dir(cache_dir);
  // Load (and expand) every scenario before any output (engine
  // load_sweep, shared with `esched queue init` and the dist workers):
  // a typo'd second spec must not leave a half-written report, and the
  // report schema — whether size_dist columns appear — derives from the
  // FULL expanded sweeps, never from a shard slice, so every shard of
  // one command line shares one header and `esched merge` accepts them.
  esched::LoadedSweep sweep =
      esched::load_sweep(scenario_args, sweep_overrides(args));
  const bool with_size_dist = sweep.with_size_dist;
  // Rows this invocation will actually run (the shard slices), for the
  // --progress denominator.
  std::size_t invocation_rows = 0;
  for (const auto& grid : sweep.grids) {
    const auto [begin, end] =
        esched::shard_range(grid.size(), shard_index, shard_count);
    invocation_rows += end - begin;
  }
  // --out/--json collect every scenario into ONE combined report (the
  // schema is uniform across solvers); without --out each scenario
  // writes its own <name>.csv. With --stream, rows go to --out the
  // moment they complete (resuming a partial file when one exists)
  // instead of in one write at the end.
  std::unique_ptr<esched::StreamingCsvReport> stream_report;
  if (stream) {
    stream_report = std::make_unique<esched::StreamingCsvReport>(
        out_path, /*resume=*/true, with_size_dist);
    if (stream_report->rows_resumed() > 0) {
      std::printf("resuming %s: %zu complete rows kept\n", out_path.c_str(),
                  stream_report->rows_resumed());
    }
  }
  std::size_t streamed_offset = 0;
  std::vector<esched::RunPoint> all_points;
  std::vector<esched::RunResult> all_results;
  esched::SweepStats combined;
  combined.threads_used = runner.num_threads();
  for (std::size_t sc = 0; sc < sweep.scenarios.size(); ++sc) {
    const esched::Scenario& scenario = sweep.scenarios[sc];
    std::printf("=== scenario %s: %s ===\n", scenario.name.c_str(),
                scenario.description.c_str());
    auto points = std::move(sweep.grids[sc]);
    if (shard_count > 1) {
      // Contiguous row-order split: `esched merge` of the shard CSVs in
      // shard order reproduces the unsharded report row for row.
      const std::size_t total = points.size();
      const auto [begin, end] =
          esched::shard_range(total, shard_index, shard_count);
      points.assign(points.begin() + static_cast<std::ptrdiff_t>(begin),
                    points.begin() + static_cast<std::ptrdiff_t>(end));
      std::printf("shard %zu/%zu: points %zu..%zu of %zu%s\n", shard_index,
                  shard_count, begin, end, total,
                  begin == end ? " (empty)" : "");
    }
    esched::SweepStats stats;
    esched::RowCallback on_row;
    if (stream_report != nullptr || show_progress) {
      const std::size_t base = streamed_offset;
      // The progress callback offsets by `base` itself, so both
      // consumers number rows in the combined invocation order.
      esched::RowCallback progress;
      if (show_progress) {
        progress =
            esched::progress_callback(invocation_rows, std::cerr, base);
      }
      on_row = [&stream_report, progress, base](
                   std::size_t index, const esched::RunPoint& point,
                   const esched::RunResult& result) {
        if (progress) progress(index, point, result);
        if (stream_report != nullptr) {
          stream_report->add_row(base + index, point, result);
        }
      };
    }
    const auto results = runner.run(points, &stats, on_row);
    streamed_offset += points.size();

    // Figure views need the full grid; sharded runs fall back to the
    // generic table.
    std::string view = view_override.empty() ? scenario.view : view_override;
    if (shard_count > 1) view = "table";
    esched::print_view(view, std::cout, scenario, points, results, stats,
                       summary_rows);
    if (view != "table") {
      // The table view already ends with this trailer.
      std::printf("\n");
      esched::print_stats_line(std::cout, stats);
    }

    if (out_path.empty()) {
      // Schema from this scenario's FULL grid, so every shard of one
      // scenario emits the same header however its slice falls.
      const std::string csv_path = scenario.name + ".csv";
      esched::write_csv_report(csv_path, points, results,
                               static_cast<bool>(
                                   sweep.scenario_size_dist[sc]));
      std::printf("wrote %s (%zu rows)\n", csv_path.c_str(), points.size());
    }
    if (!out_path.empty() || !json_path.empty()) {
      all_points.insert(all_points.end(), points.begin(), points.end());
      all_results.insert(all_results.end(), results.begin(), results.end());
      combined.add(stats);
    }
    std::printf("\n");
  }
  if (stream_report != nullptr) {
    stream_report->finish(streamed_offset);
    std::printf("streamed %s (%zu rows, %zu resumed, %zu scenario%s)\n",
                out_path.c_str(), stream_report->rows_emitted(),
                stream_report->rows_resumed(), scenario_args.size(),
                scenario_args.size() == 1 ? "" : "s");
  } else if (!out_path.empty()) {
    esched::write_csv_report(out_path, all_points, all_results,
                             with_size_dist);
    std::printf("wrote %s (%zu rows, %zu scenario%s)\n", out_path.c_str(),
                all_points.size(), scenario_args.size(),
                scenario_args.size() == 1 ? "" : "s");
  }
  if (!json_path.empty()) {
    esched::write_json_report(json_path, all_points, all_results,
                              &combined, with_size_dist);
    std::printf("wrote %s (%zu rows, %zu scenario%s)\n", json_path.c_str(),
                all_points.size(), scenario_args.size(),
                scenario_args.size() == 1 ? "" : "s");
  }
  write_metrics_snapshot(args.text("--metrics-out"));
  return 0;
}

/// `esched merge <a.csv> <b.csv> ... --out merged.csv` — or the same with
/// .json report documents (the --out extension picks the format).
int run_merge(const Args& args) {
  const std::vector<std::string>& inputs = args.operands;
  const std::string out_path = args.text("--out");
  if (inputs.empty()) {
    throw esched::Error("merge expects at least one input report");
  }
  const bool json = out_path.ends_with(".json");
  for (const std::string& input : inputs) {
    if (input.ends_with(".json") != json) {
      throw esched::Error(
          "refusing to mix CSV and JSON reports in one merge ('" + input +
          "' vs --out " + out_path + ")");
    }
  }
  const esched::MergeStats stats =
      json ? esched::merge_json_reports(inputs, out_path)
           : esched::merge_csv_reports(inputs, out_path);
  std::printf("merged %zu file%s into %s (%zu rows)\n", stats.files,
              stats.files == 1 ? "" : "s", out_path.c_str(), stats.rows);
  return 0;
}

/// `esched cache init --cache-dir D [--slots N]`
int run_cache_init(const Args& args) {
  const esched::ShmResultCache table(
      args.text("--cache-dir"),
      args.count<std::uint64_t>("--slots",
                                esched::ShmResultCache::kDefaultSlotCount));
  const esched::ShmTableInfo info = table.info();
  std::printf(
      "cache table %s: %ju slots x %ju B (payload %ju B, keys up to %ju B), "
      "%ju entries\n",
      info.path.c_str(), static_cast<std::uintmax_t>(info.slot_count),
      static_cast<std::uintmax_t>(info.slot_bytes),
      static_cast<std::uintmax_t>(info.payload_bytes),
      static_cast<std::uintmax_t>(info.key_capacity),
      static_cast<std::uintmax_t>(info.valid_slots));
  return 0;
}

/// `esched cache info --cache-dir D`. Like ls and gc, info never creates
/// the table: inspecting (or shrinking) a cache directory must not seed a
/// 16 MiB table file in it. Sweeps and `cache init` create tables. A table
/// this build cannot use throws, naming the file to delete.
int run_cache_info(const Args& args) {
  const auto table =
      esched::ShmResultCache::open_existing(args.text("--cache-dir"));
  if (table == nullptr) {
    std::printf(
        "no cache table in %s ('esched cache init' or any sweep with "
        "--cache-dir creates one)\n",
        args.text("--cache-dir").c_str());
    return 0;
  }
  const esched::ShmTableInfo info = table->info();
  std::printf("table %s (format v%ju)\n", info.path.c_str(),
              static_cast<std::uintmax_t>(info.format_version));
  std::printf(
      "  %ju slots x %ju B, payload %ju B, keys up to %ju B, file %ju B\n",
      static_cast<std::uintmax_t>(info.slot_count),
      static_cast<std::uintmax_t>(info.slot_bytes),
      static_cast<std::uintmax_t>(info.payload_bytes),
      static_cast<std::uintmax_t>(info.key_capacity),
      static_cast<std::uintmax_t>(info.file_bytes));
  std::printf("  %ju entries, %ju wedged slot%s\n",
              static_cast<std::uintmax_t>(info.valid_slots),
              static_cast<std::uintmax_t>(info.wedged_slots),
              info.wedged_slots == 1 ? "" : "s");
  return 0;
}

/// `esched cache ls --cache-dir D [--format text|json]`
int run_cache_ls(const Args& args) {
  const std::string cache_dir = args.text("--cache-dir");
  const std::string format = args.text("--format", "text");
  if (format != "text" && format != "json") {
    throw esched::Error("--format expects text or json");
  }
  const auto table = esched::ShmResultCache::open_existing(cache_dir);
  const std::vector<std::string> keys =
      table != nullptr ? table->list_keys() : std::vector<std::string>{};
  const std::uintmax_t slot_bytes = table != nullptr ? table->slot_bytes() : 0;
  const std::uintmax_t total_bytes = keys.size() * slot_bytes;
  if (format == "json") {
    // Machine-readable manifest: same fields as the text table.
    esched::JsonValue doc = esched::JsonValue::make_object();
    doc.set("cache_dir", esched::JsonValue::make_string(cache_dir));
    esched::JsonValue rows = esched::JsonValue::make_array();
    for (const std::string& key : keys) {
      esched::JsonValue row = esched::JsonValue::make_object();
      row.set("key", esched::JsonValue::make_string(key));
      row.set("path", esched::JsonValue::make_string(table->path()));
      row.set("bytes", esched::JsonValue::make_number(
                           static_cast<double>(slot_bytes)));
      rows.push_back(std::move(row));
    }
    doc.set("entries", std::move(rows));
    doc.set("count", esched::JsonValue::make_number(
                         static_cast<double>(keys.size())));
    doc.set("total_bytes", esched::JsonValue::make_number(
                               static_cast<double>(total_bytes)));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }
  for (const std::string& key : keys) {
    std::printf("%8ju B  %s\n", slot_bytes, key.c_str());
  }
  std::printf("total: %zu entr%s, %ju bytes in %s\n", keys.size(),
              keys.size() == 1 ? "y" : "ies", total_bytes, cache_dir.c_str());
  return 0;
}

/// `esched cache gc --cache-dir D [--max-bytes B]`
int run_cache_gc(const Args& args) {
  std::optional<std::uintmax_t> max_bytes;
  if (args.has("--max-bytes")) {
    max_bytes = args.count<std::uintmax_t>("--max-bytes", 0);
  }
  const auto table =
      esched::ShmResultCache::open_existing(args.text("--cache-dir"));
  const esched::CacheGcResult result =
      table != nullptr ? table->gc(max_bytes) : esched::CacheGcResult{};
  const std::uintmax_t slot_bytes = table != nullptr ? table->slot_bytes() : 0;
  std::printf(
      "cache gc: removed %zu of %zu entries (%ju bytes freed, %ju kept)\n",
      result.removed, result.removed + result.kept,
      result.removed * slot_bytes, result.kept * slot_bytes);
  return 0;
}

/// `esched queue init <scenario>... --queue-dir Q [--chunk N] ...`
int run_queue_init(const Args& args) {
  const std::string queue_dir = args.text("--queue-dir");
  const std::size_t chunk = args.count<std::size_t>("--chunk", 32);
  if (args.operands.empty()) {
    throw esched::Error("queue init expects at least one scenario or spec");
  }
  if (chunk == 0) {
    throw esched::Error("--chunk must be >= 1");
  }
  const esched::LoadedSweep sweep =
      esched::load_sweep(args.operands, sweep_overrides(args));
  const esched::WorkQueue queue =
      esched::WorkQueue::init(queue_dir, sweep, chunk);
  std::printf(
      "queue %s: %zu chunks x <=%zu points (%zu points, %zu scenario%s)\n"
      "run `esched work --queue-dir %s` — as many workers as you like\n",
      queue_dir.c_str(), queue.manifest().num_chunks, chunk,
      sweep.total_points, sweep.scenarios.size(),
      sweep.scenarios.size() == 1 ? "" : "s", queue_dir.c_str());
  return 0;
}

/// `esched trace report <trace.jsonl>... [--format text|folded] [--rows N]
/// [--out P]` — merge multi-worker traces and rebuild the span trees.
int run_trace_report(const Args& args) {
  const std::string format = args.text("--format", "text");
  if (format != "text" && format != "folded") {
    throw esched::Error("--format expects text or folded");
  }
  const std::size_t rows = args.count<std::size_t>("--rows", 10);
  const std::string out_path = args.text("--out");
  if (args.operands.empty()) {
    throw esched::Error("trace report expects at least one trace file");
  }
  const esched::TraceForest forest = esched::build_trace_forest(args.operands);
  const auto render = [&](std::ostream& out) {
    if (format == "folded") {
      esched::print_trace_folded(forest, out);
    } else {
      esched::print_trace_report(forest, out, rows);
    }
  };
  if (out_path.empty()) {
    render(std::cout);
  } else {
    esched::atomic_write_stream(out_path, render);
  }
  return 0;
}

/// `esched bench diff <old.json> <new.json> [--threshold X]` — the perf
/// gate: exit 1 when any case regressed past the threshold.
int run_bench_diff(const Args& args) {
  const std::vector<std::string>& paths = args.operands;
  if (paths.size() != 2) {
    throw esched::Error("bench diff expects exactly two snapshots: old new");
  }
  const esched::BenchSnapshot old_snapshot =
      esched::load_bench_snapshot(paths[0]);
  const esched::BenchSnapshot new_snapshot =
      esched::load_bench_snapshot(paths[1]);
  const esched::BenchDiffResult diff = esched::diff_bench_snapshots(
      old_snapshot, new_snapshot, args.number("--threshold", 0.25));
  esched::print_bench_diff(diff, std::cout);
  return diff.regressions > 0 ? 1 : 0;
}

/// `esched work --queue-dir Q [...]`
int run_work(const Args& args) {
  const std::string queue_dir = args.text("--queue-dir");
  esched::WorkerOptions options;
  options.log = &std::cerr;
  options.threads = args.count<int>("--threads", options.threads);
  options.cache_dir = args.text("--cache-dir");
  options.owner = args.text("--owner");
  options.lease_ttl_seconds =
      args.number("--lease-ttl", options.lease_ttl_seconds);
  options.poll_ms = args.count<int>("--poll-ms", options.poll_ms);
  options.max_chunks =
      args.count<std::size_t>("--max-chunks", options.max_chunks);
  options.telemetry_dir = args.text("--telemetry-dir");
  options.telemetry_interval_seconds = args.number(
      "--telemetry-interval", options.telemetry_interval_seconds);
  options.progress = args.has("--progress");
  options.wait_for_stragglers = !args.has("--no-wait");
  options.abandon = args.has("--abandon");
  const TraceScope trace(args.text("--trace"));
  const esched::WorkerSummary summary = esched::run_worker(queue_dir, options);
  write_metrics_snapshot(args.text("--metrics-out"));
  std::printf("work %s: %zu chunks (%zu points) solved, %zu requeued%s\n",
              queue_dir.c_str(), summary.chunks_solved, summary.points_solved,
              summary.chunks_requeued,
              summary.queue_drained ? "; queue drained" : "");
  if (summary.queue_failed > 0) {
    std::fprintf(stderr,
                 "esched: %zu chunk(s) failed permanently (deterministic "
                 "solver errors; see %s/failed/ and `esched status`)\n",
                 summary.queue_failed, queue_dir.c_str());
    return 1;
  }
  return 0;
}

/// printf-style append. Status frames are assembled fully before any
/// write so `--watch` repaints with one fputs — no torn frames when the
/// terminal is shared with worker stderr.
void appendf(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[1024];
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

/// One `esched status` frame. The one-shot sections are byte-identical
/// to the historical output; `watch` adds per-worker throughput and a
/// rolling ETA computed from done records committed inside the last
/// `kRollingWindowSeconds` (their mtime age), which tracks the CURRENT
/// fleet speed — the cumulative avg below it never forgets a slow start.
/// Sets *finished when every chunk is done or terminally failed.
constexpr double kRollingWindowSeconds = 120.0;

/// Appends the live-telemetry fleet section: per-worker throughput and
/// heartbeat lag from the published snapshots, then fleet-wide cache
/// effectiveness and per-backend solve-time quantiles — counters summed
/// and histograms BUCKET-merged across workers, so the p50/p99 shown are
/// quantiles of the combined distribution, not averages of per-process
/// quantiles.
void append_fleet_status(std::string* out, const std::string& telemetry_dir) {
  const esched::FleetSnapshot fleet =
      esched::read_fleet_telemetry(telemetry_dir);
  if (fleet.workers.empty() && fleet.skipped_files == 0) return;
  appendf(out, "  fleet telemetry (%s): %zu worker%s", telemetry_dir.c_str(),
          fleet.workers.size(), fleet.workers.size() == 1 ? "" : "s");
  if (fleet.skipped_files > 0) {
    appendf(out, ", %zu unreadable file%s skipped", fleet.skipped_files,
            fleet.skipped_files == 1 ? "" : "s");
  }
  *out += "\n";
  for (const esched::WorkerTelemetry& worker : fleet.workers) {
    const std::uint64_t points =
        worker.metrics.counter_value("sweep.points.solved");
    const double rate = worker.uptime_seconds > 0.0
                            ? static_cast<double>(points) /
                                  worker.uptime_seconds
                            : 0.0;
    appendf(out,
            "    %-24s %6ju points  %7.2f pts/s  lag %5.1f s%s\n",
            worker.owner.empty() ? "(unnamed)" : worker.owner.c_str(),
            static_cast<std::uintmax_t>(points), rate, worker.age_seconds,
            worker.final_snapshot ? "  [final]" : "");
  }
  const std::uint64_t hits = fleet.merged.counter_value("cache.shm.hits");
  const std::uint64_t misses = fleet.merged.counter_value("cache.shm.misses");
  const std::uint64_t spills = fleet.merged.counter_value("cache.shm.spills");
  if (hits + misses + spills > 0) {
    appendf(out,
            "    cache.shm: %ju hits / %ju misses (%.1f%% hit rate), "
            "%ju spills\n",
            static_cast<std::uintmax_t>(hits),
            static_cast<std::uintmax_t>(misses),
            hits + misses == 0
                ? 0.0
                : 100.0 * static_cast<double>(hits) /
                      static_cast<double>(hits + misses),
            static_cast<std::uintmax_t>(spills));
  }
  for (const auto& [name, hist] : fleet.merged.histograms) {
    // Per-backend solve-time distributions: solver.<backend>.seconds.
    if (hist.count == 0 || name.rfind("solver.", 0) != 0 ||
        !name.ends_with(".seconds")) {
      continue;
    }
    appendf(out, "    %-24s p50 %10.6f s  p99 %10.6f s  (%ju solves)\n",
            name.c_str(), hist.quantile(0.50), hist.quantile(0.99),
            static_cast<std::uintmax_t>(hist.count));
  }
}

std::string render_status(const esched::WorkQueue& queue, double lease_ttl,
                          bool watch, bool* finished) {
  const esched::QueueManifest& manifest = queue.manifest();
  const esched::QueueCounts counts = queue.counts(lease_ttl);
  *finished = counts.done + counts.failed >= manifest.num_chunks;
  std::string out;
  appendf(&out, "queue %s: %zu chunks x <=%zu points (%zu points total)\n",
          queue.directory().c_str(), manifest.num_chunks, manifest.chunk_size,
          manifest.total_points);
  appendf(&out, "  pending: %zu   leased: %zu (%zu expired)   done: %zu/%zu\n",
          counts.pending, counts.leased, counts.expired, counts.done,
          manifest.num_chunks);
  if (counts.failed > 0) {
    appendf(&out, "  FAILED: %zu chunk(s) — deterministic solver errors:\n",
            counts.failed);
    for (const esched::FailureRecord& failure : queue.failures()) {
      appendf(&out, "    chunk %zu (%s): %s\n", failure.chunk,
              failure.owner.c_str(), failure.error.c_str());
    }
  }
  appendf(&out, "  points done: %zu/%zu (%.1f%%)\n", counts.done_points,
          manifest.total_points,
          manifest.total_points == 0
              ? 100.0
              : 100.0 * static_cast<double>(counts.done_points) /
                    static_cast<double>(manifest.total_points));
  if (watch && counts.done > 0) {
    // Per-owner tallies over every committed chunk, plus the recent
    // window for the rolling rate.
    struct Tally {
      std::size_t chunks = 0;
      std::size_t points = 0;
      double seconds = 0.0;
      std::size_t recent_points = 0;
    };
    std::map<std::string, Tally> by_owner;  // sorted -> stable frames
    std::size_t recent_points = 0;
    double recent_span = 0.0;
    for (const esched::ChunkRecord& record : queue.completed()) {
      Tally& tally =
          by_owner[record.owner.empty() ? "(unknown)" : record.owner];
      ++tally.chunks;
      tally.points += record.rows;
      tally.seconds += record.stats.wall_seconds;
      if (record.age_seconds <= kRollingWindowSeconds) {
        recent_points += record.rows;
        tally.recent_points += record.rows;
        recent_span = std::max(recent_span, record.age_seconds);
      }
    }
    appendf(&out, "  workers (committed chunks):\n");
    for (const auto& [owner, tally] : by_owner) {
      appendf(&out, "    %-24s %4zu chunks  %6zu points  %.4f s/point",
              owner.c_str(), tally.chunks, tally.points,
              tally.points == 0
                  ? 0.0
                  : tally.seconds / static_cast<double>(tally.points));
      if (tally.recent_points > 0) {
        appendf(&out, "  [%zu recent]", tally.recent_points);
      }
      out += "\n";
    }
    if (recent_points > 0 && !*finished) {
      const double span = std::max(recent_span, 1.0);
      const double rate = static_cast<double>(recent_points) / span;
      const double eta =
          static_cast<double>(manifest.total_points - counts.done_points) /
          rate;
      appendf(&out,
              "  rolling: %.2f points/s over the last %.0f s -> ~%.1f s "
              "left\n",
              rate, span, eta);
    }
  }
  if (counts.done_points > 0 && counts.done < manifest.num_chunks) {
    const double per_point =
        counts.done_seconds / static_cast<double>(counts.done_points);
    const double remaining =
        per_point *
        static_cast<double>(manifest.total_points - counts.done_points);
    const std::size_t workers =
        counts.active_workers > 0 ? counts.active_workers : 1;
    appendf(&out,
            "  avg solve: %.4f s/point; ~%.1f s of work left (~%.1f s at %zu "
            "active worker%s)\n",
            per_point, remaining, remaining / static_cast<double>(workers),
            workers, workers == 1 ? "" : "s");
  }
  if (counts.done == manifest.num_chunks) {
    appendf(&out, "  complete — `esched collect --queue-dir %s --out ...`\n",
            queue.directory().c_str());
  }
  return out;
}

/// `esched status --queue-dir Q [--lease-ttl S] [--watch] [--interval S]`
int run_status(const Args& args) {
  const std::string queue_dir = args.text("--queue-dir");
  std::string telemetry_dir = args.text("--telemetry-dir");
  const double lease_ttl = args.number("--lease-ttl", 60.0);
  const bool watch = args.has("--watch");
  const double interval = args.number("--interval", 2.0);
  // The conventional in-queue location workers get by pointing
  // --telemetry-dir at <queue-dir>/telemetry; picked up automatically so
  // `esched status --queue-dir Q` shows the fleet without extra flags.
  if (telemetry_dir.empty()) {
    const std::string conventional =
        (std::filesystem::path(queue_dir) / "telemetry").string();
    std::error_code ec;
    if (std::filesystem::is_directory(conventional, ec)) {
      telemetry_dir = conventional;
    }
  }
  const esched::WorkQueue queue(queue_dir);
  bool finished = false;
  if (!watch) {
    std::string frame =
        render_status(queue, lease_ttl, /*watch=*/false, &finished);
    if (!telemetry_dir.empty()) append_fleet_status(&frame, telemetry_dir);
    std::fputs(frame.c_str(), stdout);
    return 0;
  }
#if __has_include(<unistd.h>)
  const bool tty = ::isatty(::fileno(stdout)) != 0;
#else
  const bool tty = false;
#endif
  for (;;) {
    std::string frame =
        render_status(queue, lease_ttl, /*watch=*/true, &finished);
    if (!telemetry_dir.empty()) append_fleet_status(&frame, telemetry_dir);
    // Home + clear on a tty so the frame repaints in place; plain
    // append when piped (each frame stays a parseable block).
    if (tty) std::fputs("\033[H\033[2J", stdout);
    std::fputs(frame.c_str(), stdout);
    std::fflush(stdout);
    if (finished) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  return 0;
}

/// `esched collect --queue-dir Q --out merged.csv [--json merged.json]`
int run_collect(const Args& args) {
  const std::string queue_dir = args.text("--queue-dir");
  const std::string out_path = args.text("--out");
  const std::string json_path = args.text("--json");
  if (out_path.empty() && json_path.empty()) {
    throw esched::Error("collect requires --out PATH (and/or --json PATH)");
  }
  const esched::WorkQueue queue(queue_dir);
  queue.sweep_stale_tmp();
  const std::vector<std::string> chunks = queue.collectable_paths();
  const esched::ReportTable table = esched::read_csv_reports(chunks);
  if (!out_path.empty()) {
    esched::write_csv_report(out_path, table);
    std::printf("collected %s: %zu rows from %zu chunks\n", out_path.c_str(),
                table.rows.size(), chunks.size());
  }
  if (!json_path.empty()) {
    // The chunks' stats travel in their done records.
    esched::SweepStats stats;
    for (const esched::ChunkRecord& record : queue.completed()) {
      stats.add(record.stats);
    }
    esched::write_json_report(json_path, table, &stats);
    std::printf("collected %s: %zu rows from %zu chunks\n", json_path.c_str(),
                table.rows.size(), chunks.size());
  }
  return 0;
}

/// Every subcommand, in synopsis order. "run" is also the default: a
/// command line that names no subcommand runs its scenarios.
const std::vector<Command>& commands() {
  using K = FlagKind;
  static const std::vector<Command> table = {
      {"run", "<scenario-or-spec.json>...",
       flags({kRunnerFlags, kSweepFlags,
              {{"--view", K::kString, "NAME"},
               {"--shard", K::kString, "I/N"},
               {"--out", K::kString, "PATH"},
               {"--stream", K::kSwitch},
               {"--json", K::kString, "PATH"},
               {"--rows", K::kCount, "N"},
               {"--help", K::kSwitch, nullptr, FlagUse::kHidden},
               {"-h", K::kSwitch, nullptr, FlagUse::kHidden}}}),
       run_sweep},
      {"list", nullptr, {}, [](const Args&) { print_scenarios(); return 0; }},
      {"show", "<scenario>...", {}, run_show},
      {"dists", nullptr, {}, [](const Args&) { print_size_dists(); return 0; }},
      {"merge", "<report.csv|.json>...",
       {{"--out", K::kString, "merged.csv|.json", FlagUse::kRequired}},
       run_merge},
      {"cache ls", nullptr,
       flags({kCacheDir, {{"--format", K::kString, "text|json"}}}),
       run_cache_ls},
      {"cache gc", nullptr,
       flags({kCacheDir, {{"--max-bytes", K::kCount, "B"}}}), run_cache_gc},
      {"cache init", nullptr,
       flags({kCacheDir, {{"--slots", K::kCount, "N"}}}), run_cache_init},
      {"cache info", nullptr, kCacheDir, run_cache_info},
      {"queue init", "<scenario-or-spec.json>...",
       flags({kQueueDir, {{"--chunk", K::kCount, "N"}}, kSweepFlags}),
       run_queue_init},
      {"work", nullptr,
       flags({kQueueDir, kRunnerFlags,
              {{"--lease-ttl", K::kNumber, "S"},
               {"--poll-ms", K::kCount, "M"},
               {"--max-chunks", K::kCount, "N"},
               {"--owner", K::kString, "NAME"},
               {"--no-wait", K::kSwitch},
               // Crash-test hook: claim a chunk and exit holding the
               // lease, so CI can exercise lease expiry + requeue
               // deterministically.
               {"--abandon", K::kSwitch, nullptr, FlagUse::kHidden}}}),
       run_work},
      {"status", nullptr,
       flags({kQueueDir,
              {{"--lease-ttl", K::kNumber, "S"},
               {"--watch", K::kSwitch},
               {"--interval", K::kNumber, "S"},
               {"--telemetry-dir", K::kString, "D"}}}),
       run_status},
      {"collect", nullptr,
       flags({kQueueDir,
              {{"--out", K::kString, "merged.csv"},
               {"--json", K::kString, "m.json"}}}),
       run_collect},
      {"trace report", "<trace.jsonl>...",
       {{"--format", K::kString, "text|folded"},
        {"--rows", K::kCount, "N"},
        {"--out", K::kString, "P"}},
       run_trace_report},
      {"bench diff", "<old.json> <new.json>",
       {{"--threshold", K::kNumber, "X"}}, run_bench_diff},
  };
  return table;
}

/// `esched --help`: one synopsis line per command, wrapped under the
/// command's name, then what the options mean.
void print_usage() {
  constexpr std::size_t kWidth = 78;
  const char* lead = "usage: esched ";
  for (const Command& command : commands()) {
    std::string line = lead;
    line += command.run == run_sweep ? "[run]" : command.name;
    const std::string indent(line.size() + 1, ' ');
    const auto add = [&](const std::string& word) {
      if (line.size() + 1 + word.size() > kWidth) {
        std::printf("%s\n", line.c_str());
        line = indent + word;
      } else {
        line += " " + word;
      }
    };
    if (command.operands != nullptr) add(command.operands);
    for (const Flag& flag : command.flags) {
      if (flag.use == FlagUse::kHidden) continue;
      std::string word = flag.name;
      if (flag.kind != FlagKind::kSwitch) {
        word += std::string(" ") + flag.value_name;
      }
      add(flag.use == FlagUse::kRequired ? word : "[" + word + "]");
    }
    std::printf("%s\n", line.c_str());
    lead = "       esched ";
  }
  std::printf(
      "\n"
      "A scenario argument is a built-in name (see `esched list`) or a\n"
      "path to a JSON spec file (anything containing '/' or ending in\n"
      "'.json'); see README for the spec schema.\n"
      "\n"
      "run options:\n"
      "  --threads N     worker threads (default: all hardware threads)\n"
      "  --seed S        base RNG seed for simulation points (default: 1)\n"
      "  --sim-jobs N    measured completions per simulation point\n"
      "  --exact-method M  stationary solver for exact-CTMC points:\n"
      "                  auto (default), gth, block, or sor\n"
      "  --view NAME     report view (default: the scenario's own view)\n"
      "  --shard I/N     run only shard I of N (contiguous row-order\n"
      "                  split; `esched merge` of the shard CSVs in shard\n"
      "                  order reproduces the unsharded report)\n"
      "  --cache-dir D   persistent result cache: skip points already\n"
      "                  solved by earlier invocations, store new ones\n"
      "  --out PATH      CSV output path (default: <scenario>.csv)\n"
      "  --stream        append CSV rows to --out as points finish (flushed\n"
      "                  per row, so the file can be tailed); if --out\n"
      "                  already holds a partial run, its complete rows are\n"
      "                  kept and the sweep resumes after them (pair with\n"
      "                  --cache-dir so kept rows are disk hits, not\n"
      "                  re-solves — resume skips the writes either way)\n"
      "  --json PATH     also write a JSON report\n"
      "  --rows N        summary rows printed per scenario (default: 20)\n"
      "  --progress      one stderr line per completed row (index, backend,\n"
      "                  E[T], solve time) — the same progress path\n"
      "                  `esched work --progress` uses\n"
      "  --metrics-out P write a metrics snapshot JSON when the run ends:\n"
      "                  per-backend solve-time/state-count histograms,\n"
      "                  cache hit/miss counters, thread utilization (see\n"
      "                  README 'Observability'; observation only — CSV\n"
      "                  and JSON report bytes are unchanged by it)\n"
      "  --trace P       append structured JSONL lifecycle events (one\n"
      "                  object per line: point_done, cache_hit, span_begin,\n"
      "                  ...) to P as the sweep runs; also observation-only\n"
      "  --telemetry-dir D  publish live metrics snapshots to\n"
      "                  D/<owner>.metrics.json every --telemetry-interval\n"
      "                  seconds (default 2) plus a final one at exit;\n"
      "                  `esched status --telemetry-dir D` merges them into\n"
      "                  a fleet view while the sweep runs\n"
      "\n"
      "observability tooling:\n"
      "  trace report    merge worker JSONL traces (deterministic\n"
      "                  (t, pid, seq) order), rebuild the span trees\n"
      "                  (worker > chunk > sweep > point > solve), and\n"
      "                  print a per-phase breakdown plus the slowest\n"
      "                  points; --format folded emits flamegraph-ready\n"
      "                  folded stacks (self time in microseconds)\n"
      "  bench diff      compare two bench_perf_solvers snapshots case by\n"
      "                  case; exits 1 when any case's mean AND p50 both\n"
      "                  grew more than --threshold (default 0.25 = +25%%)\n"
      "\n"
      "cache options (--cache-dir D holds one mmap'd table file,\n"
      "D/table.esched; *.result files left by older builds are unused\n"
      "and can be deleted by hand):\n"
      "  --max-bytes B   gc: evict the oldest-stored entries until the\n"
      "                  table holds at most B bytes of entries; without\n"
      "                  it, gc only reclaims slots wedged by killed\n"
      "                  writers and stale temp files\n"
      "\n"
      "distributed queue (many `esched work` processes on one queue\n"
      "directory — local disk or a shared filesystem — cooperatively solve\n"
      "one sweep; see README 'Distributed sweeps'):\n"
      "  queue init      expand the sweep into chunked task files under Q\n"
      "                  (--chunk points per work unit, default 32)\n"
      "  work            claim tasks by atomic rename, solve them through\n"
      "                  the sweep engine, commit each chunk's CSV\n"
      "                  atomically, its stats in the done record; expired\n"
      "                  leases (--lease-ttl, default 60 s since last\n"
      "                  heartbeat) are requeued, so killed workers lose\n"
      "                  nothing\n"
      "  status          pending/leased/done chunk counts, points done,\n"
      "                  active workers, and an ETA from committed solve\n"
      "                  times; --watch redraws every --interval seconds\n"
      "                  (default 2) with per-worker throughput and a\n"
      "                  rolling ETA from recent commits, exiting when the\n"
      "                  queue finishes\n"
      "  collect         validate completeness and merge the chunk CSVs in\n"
      "                  chunk order: --out is byte-identical to the\n"
      "                  unsharded `esched run` CSV, and --json to its JSON\n"
      "                  outside the stats, summed from the done records\n");
}

/// The command `words` names and how many words its name takes: "cache
/// ls" takes two; a line that names no command runs its scenarios.
std::pair<const Command*, std::size_t> find_command(
    const std::vector<std::string>& words) {
  std::string group_commands;
  for (const Command& command : commands()) {
    const std::string name = command.name;
    const std::size_t space = name.find(' ');
    if (words.empty() || words[0] != name.substr(0, space)) continue;
    if (space == std::string::npos) return {&command, 1};
    const std::string action = name.substr(space + 1);
    if (words.size() > 1 && words[1] == action) return {&command, 2};
    group_commands += (group_commands.empty() ? "" : ", ") + action;
  }
  if (!group_commands.empty()) {
    const std::size_t last = group_commands.rfind(", ");
    if (last != std::string::npos) group_commands.replace(last, 2, " or ");
    throw esched::Error(words[0] + " expects a subcommand: " + group_commands);
  }
  return {&commands().front(), 0};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> words(argv + 1, argv + argc);
    const auto [command, name_words] = find_command(words);
    return command->run(parse_args(
        *command, std::vector<std::string>(words.begin() + name_words,
                                           words.end())));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esched: %s\n", e.what());
    return 1;
  }
}
