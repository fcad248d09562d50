// Tests for fleet observability: live telemetry publication and merging
// (src/obs/telemetry), snapshot JSON round-trips and bucket-wise
// histogram merging (src/obs/metrics), multi-worker span-tree
// reconstruction (src/obs/trace_report), and the bench regression gate
// (src/obs/bench_diff). The load-bearing contracts: a torn telemetry
// file reads as absent, merged fleet counters equal the sum of the
// per-worker finals, merged quantiles are re-derived from combined
// buckets (never averaged across processes), and the span merger orders
// interleaved two-process traces deterministically by (t, pid, seq).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/bench_diff.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"

namespace esched {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

// --- snapshot JSON round-trip and merging ---------------------------------

TEST(MetricsSnapshotJson, RoundTripsCountersGaugesAndHistograms) {
  MetricsRegistry registry;
  registry.counter("sweep.points.solved").add(42);
  registry.gauge("queue.depth").set(7.5);
  LogHistogram& hist = registry.histogram("solver.qbd.seconds");
  hist.record(0.5);
  hist.record(1.5);
  hist.record(3.0);
  const MetricsSnapshot snap = registry.snapshot();
  const MetricsSnapshot back =
      metrics_snapshot_from_json(snap.to_json(), "round-trip");
  EXPECT_EQ(back.counter_value("sweep.points.solved"), 42u);
  EXPECT_DOUBLE_EQ(back.gauge_value("queue.depth"), 7.5);
  const LogHistogram::Snapshot* h = back.find_histogram("solver.qbd.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_DOUBLE_EQ(h->sum, 5.0);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 3.0);
  // Buckets relocated by their exact power-of-two lo bounds: quantiles of
  // the round-tripped snapshot match the original's.
  const LogHistogram::Snapshot* orig =
      snap.find_histogram("solver.qbd.seconds");
  ASSERT_NE(orig, nullptr);
  EXPECT_DOUBLE_EQ(h->quantile(0.5), orig->quantile(0.5));
  EXPECT_DOUBLE_EQ(h->quantile(0.99), orig->quantile(0.99));
}

TEST(MetricsSnapshotJson, RejectsWrongSchemaVersion) {
  JsonValue doc = JsonValue::make_object();
  doc.set("schema_version", JsonValue::make_number(999));
  EXPECT_THROW(metrics_snapshot_from_json(doc, "bad"), Error);
}

TEST(MergeMetricsSnapshots, SumsCountersAndGauges) {
  MetricsRegistry a;
  a.counter("sweep.points.solved").add(10);
  a.gauge("queue.depth").set(2.0);
  MetricsRegistry b;
  b.counter("sweep.points.solved").add(32);
  b.counter("cache.shm.hits").add(5);
  b.gauge("queue.depth").set(3.0);
  const MetricsSnapshot merged =
      merge_metrics_snapshots({a.snapshot(), b.snapshot()});
  EXPECT_EQ(merged.counter_value("sweep.points.solved"), 42u);
  EXPECT_EQ(merged.counter_value("cache.shm.hits"), 5u);
  EXPECT_DOUBLE_EQ(merged.gauge_value("queue.depth"), 5.0);
}

TEST(MergeMetricsSnapshots, RederivesQuantilesFromCombinedBuckets) {
  // Process A solves only fast points, process B only slow ones. The
  // fleet p50 must come from the COMBINED distribution (~the boundary of
  // the two populations) — averaging the per-process p50s would also land
  // mid-way here, but the p99 separates the approaches: the true combined
  // p99 sits in B's slow bucket, while an average of per-process p99s
  // ((0.004 + 4.0) / 2 ~= 2.0) lands in the empty middle of the
  // distribution where no sample exists.
  MetricsRegistry a;
  MetricsRegistry b;
  for (int n = 0; n < 100; ++n) a.histogram("sweep.point.seconds").record(0.004);
  for (int n = 0; n < 100; ++n) b.histogram("sweep.point.seconds").record(4.0);
  const MetricsSnapshot merged =
      merge_metrics_snapshots({a.snapshot(), b.snapshot()});
  const LogHistogram::Snapshot* h =
      merged.find_histogram("sweep.point.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 200u);
  EXPECT_DOUBLE_EQ(h->min, 0.004);
  EXPECT_DOUBLE_EQ(h->max, 4.0);
  const double p99 = h->quantile(0.99);
  EXPECT_GE(p99, 2.0);  // in the slow population's bucket
  EXPECT_LE(p99, 4.0);
  // And the histogram sum/count give the true fleet mean.
  EXPECT_NEAR(h->mean(), (100 * 0.004 + 100 * 4.0) / 200.0, 1e-12);
}

TEST(MergeMetricsSnapshots, SingleBucketAndEmptyHistograms) {
  // Empty histograms contribute nothing; a single-bucket distribution's
  // quantiles stay clamped to [min, max] after merging.
  MetricsRegistry a;
  MetricsRegistry b;
  a.histogram("solver.qbd.seconds");  // registered, never recorded
  for (int n = 0; n < 7; ++n) b.histogram("solver.qbd.seconds").record(1.25);
  const MetricsSnapshot merged =
      merge_metrics_snapshots({a.snapshot(), b.snapshot()});
  const LogHistogram::Snapshot* h = merged.find_histogram("solver.qbd.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 7u);
  EXPECT_DOUBLE_EQ(h->quantile(0.5), 1.25);
  EXPECT_DOUBLE_EQ(h->quantile(0.99), 1.25);
  EXPECT_DOUBLE_EQ(h->quantile(0.0), 1.25);

  // Merging only empties yields an empty histogram whose quantiles are 0.
  const MetricsSnapshot empty = merge_metrics_snapshots({a.snapshot()});
  const LogHistogram::Snapshot* e = empty.find_histogram("solver.qbd.seconds");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 0u);
  EXPECT_DOUBLE_EQ(e->quantile(0.5), 0.0);
}

// --- telemetry publication and fleet reads --------------------------------

TEST(Telemetry, FileStemSanitizesOwner) {
  EXPECT_EQ(telemetry_file_stem("host-1.worker_2"), "host-1.worker_2");
  EXPECT_EQ(telemetry_file_stem("a/b c"), "a_b_c");
  EXPECT_EQ(telemetry_file_stem(""), "worker");
}

TEST(Telemetry, PublisherWritesImmediateAndFinalSnapshots) {
  const std::string dir = fresh_dir("esched_telemetry_pub");
  MetricsRegistry registry;
  registry.counter("sweep.points.solved").add(5);
  std::string path;
  {
    TelemetryOptions options;
    options.dir = dir;
    options.owner = "unit.1";
    options.interval_seconds = 3600.0;  // only the ctor + dtor snapshots
    options.registry = &registry;
    TelemetryPublisher publisher(options);
    path = publisher.path();
    // The constructor published synchronously: the fleet sees the worker
    // the moment it starts, final=false.
    const FleetSnapshot live = read_fleet_telemetry(dir);
    ASSERT_EQ(live.workers.size(), 1u);
    EXPECT_EQ(live.workers[0].owner, "unit.1");
    EXPECT_FALSE(live.workers[0].final_snapshot);
    EXPECT_EQ(live.workers[0].metrics.counter_value("sweep.points.solved"),
              5u);
    registry.counter("sweep.points.solved").add(2);
  }
  // The destructor published a final snapshot with the post-increment
  // counter value.
  const FleetSnapshot done = read_fleet_telemetry(dir);
  ASSERT_EQ(done.workers.size(), 1u);
  EXPECT_TRUE(done.workers[0].final_snapshot);
  EXPECT_GE(done.workers[0].uptime_seconds, 0.0);
  EXPECT_EQ(done.workers[0].metrics.counter_value("sweep.points.solved"), 7u);
  EXPECT_GT(done.workers[0].pid, 0);  // this process's pid round-tripped
  EXPECT_EQ(fs::path(path).filename().string(), "unit.1.metrics.json");
}

TEST(Telemetry, PublisherTicksOnItsInterval) {
  const std::string dir = fresh_dir("esched_telemetry_tick");
  MetricsRegistry registry;
  TelemetryOptions options;
  options.dir = dir;
  options.owner = "ticker";
  options.interval_seconds = 0.05;
  options.registry = &registry;
  TelemetryPublisher publisher(options);
  registry.counter("telemetry.test.ticks").add(9);
  // Within ~2 s a 50 ms interval must republish the bumped counter; poll
  // instead of sleeping a fixed amount so the test is fast when the tick
  // is prompt and robust when the machine is loaded.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t seen = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const FleetSnapshot fleet = read_fleet_telemetry(dir);
    if (!fleet.workers.empty()) {
      seen = fleet.workers[0].metrics.counter_value("telemetry.test.ticks");
      if (seen == 9) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(seen, 9u);
}

TEST(Telemetry, TornAndForeignFilesReadAsAbsent) {
  // A worker SIGKILLed mid-write can leave (a) a '.tmp.' orphan from
  // atomic_write_file and (b) — on a filesystem without atomic rename
  // semantics this codebase does not target, or from a foreign writer — a
  // truncated document. Both must read as absent, never throw.
  const std::string dir = fresh_dir("esched_telemetry_torn");
  write_file(dir + "/alive.metrics.json",
             "{\"telemetry_schema_version\":1,\"owner\":\"alive\",\"pid\":1,"
             "\"final\":false,\"uptime_seconds\":1.0,\"metrics\":"
             "{\"schema_version\":1,\"counters\":{\"sweep.points.solved\":3},"
             "\"gauges\":{},\"histograms\":{}}}\n");
  write_file(dir + "/torn.metrics.json",
             "{\"telemetry_schema_version\":1,\"owner\":\"torn\",\"met");
  write_file(dir + "/.tmp.1234.worker.metrics.json", "half-written");
  write_file(dir + "/README.txt", "not telemetry");
  write_file(dir + "/skewed.metrics.json",
             "{\"telemetry_schema_version\":999}");
  const FleetSnapshot fleet = read_fleet_telemetry(dir);
  ASSERT_EQ(fleet.workers.size(), 1u);
  EXPECT_EQ(fleet.workers[0].owner, "alive");
  // torn + skewed counted; '.tmp.' and foreign files are silently ignored
  // (orphan sweeping is the queue's job, and README.txt is not ours).
  EXPECT_EQ(fleet.skipped_files, 2u);
  EXPECT_EQ(fleet.merged.counter_value("sweep.points.solved"), 3u);
}

TEST(Telemetry, MissingDirectoryYieldsEmptyFleet) {
  const FleetSnapshot fleet =
      read_fleet_telemetry(testing::TempDir() + "esched_no_such_dir_xyz");
  EXPECT_TRUE(fleet.workers.empty());
  EXPECT_EQ(fleet.skipped_files, 0u);
  EXPECT_TRUE(fleet.merged.counters.empty());
}

TEST(Telemetry, ThreeWorkerMergeEqualsSumOfFinals) {
  const std::string dir = fresh_dir("esched_telemetry_fleet3");
  std::uint64_t expected_points = 0;
  double expected_hist_sum = 0.0;
  for (int w = 0; w < 3; ++w) {
    MetricsRegistry registry;
    const std::uint64_t points = 10 + static_cast<std::uint64_t>(w) * 7;
    registry.counter("sweep.points.solved").add(points);
    expected_points += points;
    for (int n = 0; n <= w; ++n) {
      const double seconds = 0.25 * (w + 1);
      registry.histogram("solver.qbd.seconds").record(seconds);
      expected_hist_sum += seconds;
    }
    TelemetryOptions options;
    options.dir = dir;
    options.owner = "w" + std::to_string(w);
    options.interval_seconds = 3600.0;
    options.registry = &registry;
    TelemetryPublisher publisher(options);
    publisher.publish(/*final_snapshot=*/true);
  }
  const FleetSnapshot fleet = read_fleet_telemetry(dir);
  ASSERT_EQ(fleet.workers.size(), 3u);
  // Sorted by owner for stable frames.
  EXPECT_EQ(fleet.workers[0].owner, "w0");
  EXPECT_EQ(fleet.workers[2].owner, "w2");
  EXPECT_EQ(fleet.merged.counter_value("sweep.points.solved"),
            expected_points);
  const LogHistogram::Snapshot* h =
      fleet.merged.find_histogram("solver.qbd.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 6u);  // 1 + 2 + 3 samples
  EXPECT_NEAR(h->sum, expected_hist_sum, 1e-12);
  EXPECT_DOUBLE_EQ(h->min, 0.25);
  EXPECT_DOUBLE_EQ(h->max, 0.75);
}

// --- span-structured tracing and the report merger ------------------------

TEST(TraceSpans, EventsCarryPidSeqAndSpanFields) {
  const std::string path = testing::TempDir() + "esched_span_events.jsonl";
  {
    TraceWriter writer(path);
    set_global_trace(&writer);
    {
      const TraceSpan outer("sweep", {{"points", std::size_t{4}}});
      ASSERT_NE(outer.id(), 0u);
      const TraceSpan inner("point", {{"index", std::size_t{0}}});
      ASSERT_NE(inner.id(), 0u);
      EXPECT_NE(inner.id(), outer.id());
    }
    set_global_trace(nullptr);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<JsonValue> events;
  while (std::getline(in, line)) {
    if (!line.empty()) events.push_back(parse_json(line, path));
  }
  ASSERT_EQ(events.size(), 4u);  // begin sweep, begin point, end, end
  std::uint64_t last_seq = 0;
  for (std::size_t n = 0; n < events.size(); ++n) {
    ASSERT_NE(events[n].find("pid"), nullptr);
    ASSERT_NE(events[n].find("seq"), nullptr);
    const std::uint64_t seq =
        static_cast<std::uint64_t>(events[n].find("seq")->as_number("seq"));
    if (n > 0) {
      EXPECT_GT(seq, last_seq);  // per-process monotonic
    }
    last_seq = seq;
  }
  // The inner span auto-parents under the outer via the thread stack.
  EXPECT_EQ(events[1].find("parent")->as_number("parent"),
            events[0].find("span")->as_number("span"));
  // LIFO close order: the inner span ends first.
  EXPECT_EQ(events[2].find("span")->as_number("span"),
            events[1].find("span")->as_number("span"));
}

TEST(TraceSpans, AnnotationsRideOnSpanEndAndReachTheReport) {
  const std::string path = testing::TempDir() + "esched_span_annotate.jsonl";
  trace_span_annotate({{"ignored", 1}});  // tracing off: a no-op
  {
    TraceWriter writer(path);
    set_global_trace(&writer);
    trace_span_annotate({{"ignored", 2}});  // no open span: a no-op
    {
      const TraceSpan point("point", {{"index", std::size_t{3}}});
      const TraceSpan solve("solve", {{"solver", "exact"}});
      // What the exact backend adds from inside the solve.
      trace_span_annotate({{"method", "sor"}, {"prediction_ratio", 1.5}});
    }
    set_global_trace(nullptr);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<JsonValue> events;
  while (std::getline(in, line)) {
    if (!line.empty()) events.push_back(parse_json(line, path));
  }
  ASSERT_EQ(events.size(), 4u);
  // The innermost span's end carries the fields; nothing else does.
  EXPECT_EQ(events[2].find("name")->as_string("name"), "solve");
  ASSERT_NE(events[2].find("method"), nullptr);
  ASSERT_NE(events[2].find("prediction_ratio"), nullptr);
  EXPECT_EQ(events[2].find("method")->as_string("method"), "sor");
  EXPECT_EQ(events[2].find("prediction_ratio")->as_number("ratio"), 1.5);
  EXPECT_EQ(events[3].find("method"), nullptr);
  for (const JsonValue& event : events) {
    EXPECT_EQ(event.find("ignored"), nullptr);
  }

  const TraceForest forest = build_trace_forest({path});
  ASSERT_EQ(forest.spans.size(), 2u);
  const TraceReportSpan& solve = forest.spans[1];
  EXPECT_EQ(solve.name, "solve");
  ASSERT_EQ(solve.fields.size(), 3u);  // solver, then method and ratio
  EXPECT_EQ(solve.fields[1], std::make_pair(std::string("method"),
                                            std::string("sor")));
  // The slowest-point row shows why its solve took that path.
  std::ostringstream report;
  print_trace_report(forest, report, 5);
  EXPECT_NE(report.str().find("index=3 solver=exact method=sor"),
            std::string::npos)
      << report.str();
  std::remove(path.c_str());
}

TEST(TraceReport, ReconstructsSpanTreesFromInterleavedTwoProcessTrace) {
  // Hand-written two-worker fixture with interleaved timestamps and
  // colliding span ids (both processes use ids 1..3 — scoping by pid is
  // what keeps them apart). Worker A: worker(1) > chunk(2) > point(3);
  // worker B: worker(1) > chunk(2), with chunk 2 left UNCLOSED as if B
  // was SIGKILLed, plus one torn trailing line.
  const std::string dir = fresh_dir("esched_trace_report");
  const std::string a = dir + "/a.jsonl";
  const std::string b = dir + "/b.jsonl";
  write_file(
      a,
      "{\"t\":0.0,\"ev\":\"span_begin\",\"pid\":100,\"seq\":0,\"span\":1,"
      "\"parent\":0,\"name\":\"worker\",\"owner\":\"a\"}\n"
      "{\"t\":0.1,\"ev\":\"span_begin\",\"pid\":100,\"seq\":1,\"span\":2,"
      "\"parent\":1,\"name\":\"chunk\",\"chunk\":0}\n"
      "{\"t\":0.2,\"ev\":\"span_begin\",\"pid\":100,\"seq\":2,\"span\":3,"
      "\"parent\":2,\"name\":\"point\",\"index\":7,\"solver\":\"qbd\"}\n"
      "{\"t\":0.6,\"ev\":\"span_end\",\"pid\":100,\"seq\":3,\"span\":3,"
      "\"name\":\"point\"}\n"
      "{\"t\":0.7,\"ev\":\"span_end\",\"pid\":100,\"seq\":4,\"span\":2,"
      "\"name\":\"chunk\"}\n"
      "{\"t\":0.8,\"ev\":\"span_end\",\"pid\":100,\"seq\":5,\"span\":1,"
      "\"name\":\"worker\"}\n");
  write_file(
      b,
      "{\"t\":0.05,\"ev\":\"span_begin\",\"pid\":200,\"seq\":0,\"span\":1,"
      "\"parent\":0,\"name\":\"worker\",\"owner\":\"b\"}\n"
      "{\"t\":0.15,\"ev\":\"span_begin\",\"pid\":200,\"seq\":1,\"span\":2,"
      "\"parent\":1,\"name\":\"chunk\",\"chunk\":1}\n"
      "{\"t\":0.55,\"ev\":\"span_end\",\"pid\":200,\"seq\":2,\"span\":1,"
      "\"name\":\"worker\"}\n"
      "{\"t\":0.6,\"ev\":\"span_beg");  // torn final line
  const TraceForest forest = build_trace_forest({a, b});
  EXPECT_EQ(forest.malformed_lines, 1u);
  EXPECT_EQ(forest.unclosed_spans, 1u);  // B's chunk
  ASSERT_EQ(forest.spans.size(), 5u);
  ASSERT_EQ(forest.roots.size(), 2u);

  // Deterministic (t, pid, seq) merge order: A.worker(0.0), B.worker
  // (0.05), A.chunk(0.1), B.chunk(0.15), A.point(0.2).
  EXPECT_EQ(forest.spans[0].name, "worker");
  EXPECT_EQ(forest.spans[0].pid, 100);
  EXPECT_EQ(forest.spans[1].name, "worker");
  EXPECT_EQ(forest.spans[1].pid, 200);
  EXPECT_EQ(forest.spans[2].name, "chunk");
  EXPECT_EQ(forest.spans[2].pid, 100);
  EXPECT_EQ(forest.spans[3].name, "chunk");
  EXPECT_EQ(forest.spans[3].pid, 200);
  EXPECT_EQ(forest.spans[4].name, "point");
  EXPECT_EQ(forest.spans[4].pid, 100);

  // Tree edges resolve within each process despite the id collisions.
  EXPECT_EQ(forest.spans[2].parent, 0u);  // A.chunk under A.worker
  EXPECT_EQ(forest.spans[3].parent, 1u);  // B.chunk under B.worker
  EXPECT_EQ(forest.spans[4].parent, 2u);  // A.point under A.chunk
  const std::vector<std::string> path4 = forest.path(4);
  ASSERT_EQ(path4.size(), 3u);
  EXPECT_EQ(path4[0], "worker");
  EXPECT_EQ(path4[1], "chunk");
  EXPECT_EQ(path4[2], "point");

  // Durations: A.point 0.4 s; B's unclosed chunk extends to its file's
  // last event time (0.55).
  EXPECT_NEAR(forest.spans[4].duration(), 0.4, 1e-12);
  EXPECT_FALSE(forest.spans[3].closed);
  EXPECT_NEAR(forest.spans[3].duration(), 0.4, 1e-12);
  // Self time excludes children: A.chunk total 0.6, minus point 0.4.
  EXPECT_NEAR(forest.self_seconds(2), 0.2, 1e-9);

  // Golden text report (deterministic: merge order, sorted phases).
  std::ostringstream text;
  print_trace_report(forest, text, 5);
  EXPECT_NE(text.str().find("2 files, 9 events, 5 spans"), std::string::npos);
  EXPECT_NE(text.str().find("(1 unclosed, 1 malformed lines)"),
            std::string::npos);
  EXPECT_NE(text.str().find("slowest point spans:"), std::string::npos);
  EXPECT_NE(text.str().find("index=7 solver=qbd"), std::string::npos);

  // Folded stacks: lexicographically sorted, self time in microseconds.
  std::ostringstream folded;
  print_trace_folded(forest, folded);
  const std::string expected =
      "worker 300000\n"            // A self 0.2 + B self 0.1
      "worker;chunk 600000\n"      // A self 0.2 + B self 0.4
      "worker;chunk;point 400000\n";
  EXPECT_EQ(folded.str(), expected);
}

TEST(TraceReport, SortsEqualTimestampsByPidThenSeq) {
  const std::string dir = fresh_dir("esched_trace_order");
  const std::string path = dir + "/t.jsonl";
  // Same t everywhere; order must come from (pid, seq) alone. Written
  // shuffled on purpose.
  write_file(
      path,
      "{\"t\":1.0,\"ev\":\"span_begin\",\"pid\":2,\"seq\":1,\"span\":2,"
      "\"parent\":1,\"name\":\"y\"}\n"
      "{\"t\":1.0,\"ev\":\"span_begin\",\"pid\":1,\"seq\":0,\"span\":1,"
      "\"parent\":0,\"name\":\"x\"}\n"
      "{\"t\":1.0,\"ev\":\"span_begin\",\"pid\":2,\"seq\":0,\"span\":1,"
      "\"parent\":0,\"name\":\"x\"}\n");
  const TraceForest forest = build_trace_forest({path});
  ASSERT_EQ(forest.spans.size(), 3u);
  EXPECT_EQ(forest.spans[0].pid, 1);
  EXPECT_EQ(forest.spans[1].pid, 2);
  EXPECT_EQ(forest.spans[1].id, 1u);   // pid 2's seq 0 before its seq 1
  EXPECT_EQ(forest.spans[2].id, 2u);
  // pid 2's span 2 parents under pid 2's span 1, begun earlier in merge
  // order, despite pid 1 owning an identical id.
  EXPECT_EQ(forest.spans[2].parent, 1u);
}

// --- bench diff and the regression gate -----------------------------------

std::string bench_snapshot_json(
    const std::vector<std::pair<std::string, double>>& cases) {
  JsonValue root = JsonValue::make_object();
  root.set("format", JsonValue::make_string(kBenchFormat));
  root.set("schema_version",
           JsonValue::make_number(static_cast<double>(kBenchSchemaVersion)));
  root.set("mode", JsonValue::make_string("smoke"));
  JsonValue host = JsonValue::make_object();
  host.set("hostname", JsonValue::make_string("test"));
  host.set("compiler", JsonValue::make_string("test"));
  root.set("host", std::move(host));
  JsonValue benchmarks = JsonValue::make_array();
  for (const auto& [name, seconds] : cases) {
    JsonValue entry = JsonValue::make_object();
    entry.set("name", JsonValue::make_string(name));
    entry.set("iterations", JsonValue::make_number(3));
    entry.set("mean_seconds", JsonValue::make_number(seconds));
    entry.set("min_seconds", JsonValue::make_number(seconds));
    entry.set("max_seconds", JsonValue::make_number(seconds));
    entry.set("p50_seconds", JsonValue::make_number(seconds));
    entry.set("p90_seconds", JsonValue::make_number(seconds));
    entry.set("p99_seconds", JsonValue::make_number(seconds));
    benchmarks.push_back(std::move(entry));
  }
  root.set("benchmarks", std::move(benchmarks));
  return root.dump() + "\n";
}

TEST(BenchDiff, LoadRejectsMalformedSnapshots) {
  const std::string dir = fresh_dir("esched_bench_load");
  EXPECT_THROW(load_bench_snapshot(dir + "/missing.json"), Error);
  write_file(dir + "/wrong.json", "{\"format\":\"other\"}");
  EXPECT_THROW(load_bench_snapshot(dir + "/wrong.json"), Error);
  // Non-monotone percentiles are a corrupted snapshot, not a slow case.
  write_file(dir + "/mono.json",
             "{\"format\":\"esched-bench\",\"schema_version\":1,"
             "\"mode\":\"smoke\",\"host\":{\"hostname\":\"h\","
             "\"compiler\":\"c\"},\"benchmarks\":[{\"name\":\"x\","
             "\"iterations\":1,\"mean_seconds\":1.0,\"min_seconds\":2.0,"
             "\"p50_seconds\":1.0,\"p90_seconds\":1.0,\"p99_seconds\":1.0,"
             "\"max_seconds\":1.0}]}");
  EXPECT_THROW(load_bench_snapshot(dir + "/mono.json"), Error);
}

TEST(BenchDiff, FlagsInjectedRegressionAndHonorsThreshold) {
  const std::string dir = fresh_dir("esched_bench_diff");
  write_file(dir + "/old.json", bench_snapshot_json({{"solve/a", 1.0},
                                                     {"solve/b", 1.0},
                                                     {"gone", 1.0}}));
  write_file(dir + "/new.json", bench_snapshot_json({{"solve/a", 1.10},
                                                     {"solve/b", 2.0},
                                                     {"fresh", 1.0}}));
  const BenchSnapshot old_snapshot = load_bench_snapshot(dir + "/old.json");
  const BenchSnapshot new_snapshot = load_bench_snapshot(dir + "/new.json");

  // +10% and +100%: at the default 25% threshold only b regresses.
  const BenchDiffResult diff =
      diff_bench_snapshots(old_snapshot, new_snapshot, 0.25);
  ASSERT_EQ(diff.cases.size(), 2u);
  EXPECT_EQ(diff.regressions, 1u);
  EXPECT_FALSE(diff.cases[0].regressed);  // solve/a, +10%
  EXPECT_TRUE(diff.cases[1].regressed);   // solve/b, +100%
  EXPECT_NEAR(diff.cases[1].mean_ratio, 2.0, 1e-12);
  ASSERT_EQ(diff.only_old.size(), 1u);
  EXPECT_EQ(diff.only_old[0], "gone");
  ASSERT_EQ(diff.only_new.size(), 1u);
  EXPECT_EQ(diff.only_new[0], "fresh");

  // Tighten the threshold to 5% and the +10% case regresses too; loosen
  // to 150% and nothing does. Appeared/disappeared cases never gate.
  EXPECT_EQ(diff_bench_snapshots(old_snapshot, new_snapshot, 0.05)
                .regressions,
            2u);
  EXPECT_EQ(diff_bench_snapshots(old_snapshot, new_snapshot, 1.5).regressions,
            0u);

  // The printed report names the regression.
  std::ostringstream out;
  print_bench_diff(diff, out);
  EXPECT_NE(out.str().find("REGRESSED"), std::string::npos);
  EXPECT_NE(out.str().find("solve/b"), std::string::npos);
}

TEST(BenchDiff, IdenticalSnapshotsNeverRegress) {
  const std::string dir = fresh_dir("esched_bench_same");
  write_file(dir + "/snap.json", bench_snapshot_json({{"solve/a", 0.5}}));
  const BenchSnapshot snapshot = load_bench_snapshot(dir + "/snap.json");
  // Threshold 0: even equality must pass (ratio 1.0 is not > 1.0).
  const BenchDiffResult diff = diff_bench_snapshots(snapshot, snapshot, 0.0);
  EXPECT_EQ(diff.regressions, 0u);
}

}  // namespace
}  // namespace esched
