#include "obs/bench_diff.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <ostream>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace esched {

const BenchCaseStats* BenchSnapshot::find(const std::string& name) const {
  for (const BenchCaseStats& c : cases) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

BenchSnapshot load_bench_snapshot(const std::string& path) {
  const auto text = read_file(path);
  ESCHED_CHECK(text.has_value(), "cannot read '" + path + "'");
  const JsonValue root = parse_json(*text, path);

  const JsonValue* format = root.find("format");
  ESCHED_CHECK(format != nullptr &&
                   format->as_string("format") == kBenchFormat,
               path + ": missing or wrong \"format\" tag (expected \"" +
                   kBenchFormat + "\")");
  const JsonValue* version = root.find("schema_version");
  ESCHED_CHECK(version != nullptr &&
                   version->as_integer("schema_version", 1, 1000000) ==
                       kBenchSchemaVersion,
               path + ": unsupported schema_version (this build knows " +
                   std::to_string(kBenchSchemaVersion) + ")");
  const JsonValue* mode = root.find("mode");
  ESCHED_CHECK(mode != nullptr && (mode->as_string("mode") == "full" ||
                                   mode->as_string("mode") == "smoke"),
               path + ": \"mode\" must be \"full\" or \"smoke\"");
  const JsonValue* host = root.find("host");
  ESCHED_CHECK(host != nullptr && host->is_object(),
               path + ": missing \"host\" object");
  for (const char* key : {"hostname", "compiler"}) {
    ESCHED_CHECK(host->find(key) != nullptr,
                 path + ": host lacks \"" + key + "\"");
  }
  const JsonValue* benchmarks = root.find("benchmarks");
  ESCHED_CHECK(benchmarks != nullptr && benchmarks->is_array() &&
                   !benchmarks->as_array("benchmarks").empty(),
               path + ": missing or empty \"benchmarks\" array");

  BenchSnapshot snapshot;
  snapshot.path = path;
  snapshot.mode = mode->as_string("mode");
  for (const JsonValue& entry : benchmarks->as_array("benchmarks")) {
    BenchCaseStats stats;
    stats.name = entry.find("name") != nullptr
                     ? entry.find("name")->as_string("benchmarks[].name")
                     : "";
    ESCHED_CHECK(!stats.name.empty(),
                 path + ": benchmark entry lacks \"name\"");
    const std::string where = path + ": " + stats.name;
    const JsonValue* iterations = entry.find("iterations");
    ESCHED_CHECK(iterations != nullptr,
                 where + ": missing \"iterations\"");
    stats.iterations =
        iterations->as_integer(where + ".iterations", 1, 1000000000);
    // The percentile chain must be monotone; a snapshot violating it was
    // not produced by the harness and must not feed the gate.
    double last = 0.0;
    const auto checked = [&](const char* key) {
      const JsonValue* v = entry.find(key);
      ESCHED_CHECK(v != nullptr, where + ": missing \"" + key + "\"");
      const double value = v->as_number(where + "." + key);
      ESCHED_CHECK(value >= 0.0, where + ": " + key + " is negative");
      ESCHED_CHECK(value + 1e-12 >= last,
                   where + ": " + key +
                       " is not monotone with the preceding percentile");
      last = value;
      return value;
    };
    stats.min_seconds = checked("min_seconds");
    stats.p50_seconds = checked("p50_seconds");
    stats.p90_seconds = checked("p90_seconds");
    stats.p99_seconds = checked("p99_seconds");
    stats.max_seconds = checked("max_seconds");
    const JsonValue* mean = entry.find("mean_seconds");
    ESCHED_CHECK(mean != nullptr &&
                     mean->as_number(where + ".mean_seconds") >= 0.0,
                 where + ": missing mean_seconds");
    stats.mean_seconds = mean->as_number(where + ".mean_seconds");
    if (const JsonValue* items = entry.find("items_per_second")) {
      stats.items_per_second = items->as_number(where + ".items_per_second");
    }
    snapshot.cases.push_back(std::move(stats));
  }
  return snapshot;
}

namespace {

double ratio(double old_value, double new_value) {
  if (old_value > 0.0) return new_value / old_value;
  return new_value > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
}

}  // namespace

BenchDiffResult diff_bench_snapshots(const BenchSnapshot& old_snapshot,
                                     const BenchSnapshot& new_snapshot,
                                     double threshold) {
  BenchDiffResult diff;
  diff.threshold = threshold;
  for (const BenchCaseStats& new_case : new_snapshot.cases) {
    const BenchCaseStats* old_case = old_snapshot.find(new_case.name);
    if (old_case == nullptr) {
      diff.only_new.push_back(new_case.name);
      continue;
    }
    BenchCaseDelta delta;
    delta.name = new_case.name;
    delta.old_mean = old_case->mean_seconds;
    delta.new_mean = new_case.mean_seconds;
    delta.old_p50 = old_case->p50_seconds;
    delta.new_p50 = new_case.p50_seconds;
    delta.mean_ratio = ratio(delta.old_mean, delta.new_mean);
    delta.p50_ratio = ratio(delta.old_p50, delta.new_p50);
    delta.regressed = delta.mean_ratio > 1.0 + threshold &&
                      delta.p50_ratio > 1.0 + threshold;
    if (delta.regressed) ++diff.regressions;
    diff.cases.push_back(std::move(delta));
  }
  for (const BenchCaseStats& old_case : old_snapshot.cases) {
    if (new_snapshot.find(old_case.name) == nullptr) {
      diff.only_old.push_back(old_case.name);
    }
  }
  return diff;
}

void print_bench_diff(const BenchDiffResult& diff, std::ostream& out) {
  char line[256];
  std::snprintf(line, sizeof(line), "%-44s %12s %12s %8s %8s\n", "case",
                "old mean s", "new mean s", "mean", "p50");
  out << line;
  for (const BenchCaseDelta& delta : diff.cases) {
    std::snprintf(line, sizeof(line),
                  "%-44s %12.6f %12.6f %+7.1f%% %+7.1f%%%s\n",
                  delta.name.c_str(), delta.old_mean, delta.new_mean,
                  100.0 * (delta.mean_ratio - 1.0),
                  100.0 * (delta.p50_ratio - 1.0),
                  delta.regressed ? "  REGRESSED" : "");
    out << line;
  }
  for (const std::string& name : diff.only_new) {
    out << "  new case (no baseline): " << name << "\n";
  }
  for (const std::string& name : diff.only_old) {
    out << "  case disappeared: " << name << "\n";
  }
  std::snprintf(line, sizeof(line),
                "%zu case%s compared, %zu regression%s (threshold +%.0f%% on "
                "both mean and p50)\n",
                diff.cases.size(), diff.cases.size() == 1 ? "" : "s",
                diff.regressions, diff.regressions == 1 ? "" : "s",
                100.0 * diff.threshold);
  out << line;
}

}  // namespace esched
