// perfbench_probe: the in-process half of the esched benchmark.
//
// perfbench/run.py generates a workload's scenario specs from a seed and
// calls this binary with them. Two modes:
//
//   timed  — end-to-end passes through the public sweep API, tracing off:
//            set-up (spec load + expand, runner and cache-table creation),
//            cold 1-thread and N-thread sweeps with their CSV reports, and
//            a warm rerun; repeated until --seconds have been spent.
//   trace  — the per-layer run: SweepRunner passes observed through
//            SweepStats and row-callback timestamps, then a single-threaded
//            replay that calls each layer's public functions directly and
//            records spans (name, start, end, parent) around every call.
//
// Every pass's results are checked (closed forms for IF/EF, bitwise
// agreement between passes, byte-identical CSV reports). The result is one
// JSON object on stdout; counts are written as exact integers.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ef_analysis.hpp"
#include "core/exact_ctmc.hpp"
#include "core/if_analysis.hpp"
#include "dist/work_queue.hpp"
#include "engine/report.hpp"
#include "engine/shm_cache.hpp"
#include "engine/solver_dispatch.hpp"
#include "engine/spec.hpp"
#include "engine/sweep_runner.hpp"
#include "queueing/mmk.hpp"
#include "sim/cluster_sim.hpp"

namespace fs = std::filesystem;
using esched::RunPoint;
using esched::RunResult;
using esched::SolverKind;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---------------------------------------------------------------- output

/// Flat metric record. Counts stay integers all the way to the text: the
/// library's JSON writer prints numbers in %g form (190 -> 1.9e+02).
class Record {
 public:
  void real(const std::string& name, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    fields_.emplace_back(name, buf);
  }
  void count(const std::string& name, std::uint64_t value) {
    fields_.emplace_back(name, std::to_string(value));
  }
  void text(const std::string& name, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    fields_.emplace_back(name, quoted + "\"");
  }
  void series(const std::string& name, const std::vector<double>& values) {
    std::string list = "[";
    char buf[64];
    for (std::size_t n = 0; n < values.size(); ++n) {
      std::snprintf(buf, sizeof(buf), n == 0 ? "%.17g" : ", %.17g", values[n]);
      list += buf;
    }
    fields_.emplace_back(name, list + "]");
  }
  void flag(const std::string& name, bool value) {
    fields_.emplace_back(name, value ? "true" : "false");
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t n = 0; n < fields_.size(); ++n) {
      if (n > 0) out += ", ";
      out += "\"" + fields_[n].first + "\": " + fields_[n].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

/// The highest of the usual percentiles that still has at least ten
/// samples above it (the median when the sample is smaller than that).
double tail_percentile(std::size_t samples) {
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - pct / 100.0) >= 10.0) return pct;
  }
  return 50.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

// ----------------------------------------------------------- correctness

/// Checks one result against what the model guarantees in closed form.
/// IF serves inelastic jobs as an M/M/k (Erlang C); EF serves elastic jobs
/// as an M/M/1 of rate k*mu_E. The QBD analysis reproduces both to
/// rounding; the truncated chain deviates by at most its boundary mass
/// times the truncation depth (the mass it drops, at most that many
/// levels deep); the simulator is held to a relative band.
bool check_point(const RunPoint& point, const RunResult& result,
                 std::string* why) {
  const esched::SystemParams& p = point.params;
  if (!std::isfinite(result.mean_response_time) ||
      result.mean_response_time <= 0.0) {
    *why = "non-positive or non-finite E[T]";
    return false;
  }
  const auto tolerance = [&](double reference) {
    switch (point.solver) {
      case SolverKind::kQbdAnalysis:
        return 1e-9 * reference;
      case SolverKind::kExactCtmc: {
        const double depth = static_cast<double>(
            std::max(point.options.imax, point.options.jmax) > 0
                ? std::max(point.options.imax, point.options.jmax)
                : esched::suggested_truncation(
                      p.rho(), point.options.truncation_epsilon));
        return 1e-9 * reference + result.boundary_mass * depth * reference;
      }
      case SolverKind::kSimulation:
        return 0.15 * reference;
      default:
        return 0.0;
    }
  };
  const auto compare = [&](const char* what, double got, double want) {
    const double tol = tolerance(want);
    if (std::fabs(got - want) <= tol) return true;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s %.17g vs closed form %.17g (tol %.3g)",
                  what, got, want, tol);
    *why = buf;
    return false;
  };
  if (point.policy == "IF" && point.options.size_dist_i.is_exponential() &&
      p.lambda_i > 0.0) {
    const esched::MMk mmk(p.lambda_i, p.mu_i, p.k);
    if (!compare("IF inelastic E[T]", result.mean_response_time_i,
                 mmk.mean_response_time())) {
      return false;
    }
  }
  if (point.policy == "EF" && point.options.size_dist_e.is_exponential() &&
      p.lambda_e > 0.0 && p.elastic_cap == 0) {
    const double want = 1.0 / (static_cast<double>(p.k) * p.mu_e - p.lambda_e);
    if (!compare("EF elastic E[T]", result.mean_response_time_e, want)) {
      return false;
    }
  }
  return true;
}

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void fail(const std::string& note, std::uint64_t points = 1) {
    failed += points;
    if (notes.size() < 8) notes.push_back(note);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Data rows of two CSV reports that differ (header or trailer mismatches
/// count as one).
std::uint64_t csv_row_mismatches(const std::string& a, const std::string& b) {
  if (a == b) return 0;
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  std::uint64_t diffs = 0;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) break;
    if (ga != gb || la != lb) ++diffs;
  }
  return std::max<std::uint64_t>(diffs, 1);
}

// ---------------------------------------------------------------- inputs

struct Options {
  std::string mode;
  std::vector<std::string> specs;
  std::string workdir;
  int threads = 1;
  double seconds = 10.0;
  bool cache = false;       ///< sweeps use a fresh --cache-dir
  bool nthreads_pass = true;
  /// One timed rep and no warm-up rep (queue-mixed's in-process slices,
  /// whose 1-thread pass shows no warm-up cost).
  bool single_rep = false;
  /// Chunk size of the work queue: set-up is queue init, and the trace
  /// replay goes through the queue.
  std::size_t queue_chunk = 0;
};

/// Largest chain the regret pass densifies for a forced GTH solve.
constexpr std::size_t kRegretGthStates = 2000;

Options parse_options(int argc, char** argv) {
  Options o;
  if (argc < 2) throw std::runtime_error("usage: perfbench_probe timed|trace ...");
  o.mode = argv[1];
  for (int n = 2; n < argc; ++n) {
    const std::string arg = argv[n];
    const auto value = [&]() -> std::string {
      if (n + 1 >= argc) throw std::runtime_error(arg + " expects a value");
      return argv[++n];
    };
    if (arg == "--spec") o.specs.push_back(value());
    else if (arg == "--workdir") o.workdir = value();
    else if (arg == "--threads") o.threads = std::stoi(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--cache") o.cache = value() == "1";
    else if (arg == "--no-nthreads") o.nthreads_pass = false;
    else if (arg == "--single-rep") o.single_rep = true;
    else if (arg == "--queue-chunk") o.queue_chunk = std::stoul(value());
    else throw std::runtime_error("unknown option " + arg);
  }
  if (o.specs.empty() || o.workdir.empty() || o.threads < 1) {
    throw std::runtime_error("need --spec, --workdir and --threads >= 1");
  }
  return o;
}

/// An empty path under the run directory (whatever was there is removed).
std::string fresh_dir(const Options& o, const std::string& name) {
  const std::string dir = o.workdir + "/" + name;
  fs::remove_all(dir);
  return dir;
}

/// A path under the run directory that no process has used before. Queue
/// directories are never deleted during a run: ext4 without a journal skips
/// recently freed inodes, re-reading each, when it allocates new ones, so
/// deleting a queue's files would slow every later file creation (the next
/// queue init, the workers' commits). run.py empties them when the run ends.
std::string unused_dir(const Options& o, const std::string& name) {
  static int serial = 0;
  return o.workdir + "/" + name + "-" + std::to_string(getpid()) + "-" +
         std::to_string(serial++);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Build facts visible to the compiler, which compiles this file with the
/// library's own flags.
void record_build(Record* out) {
#ifdef NDEBUG
  out->flag("build.ndebug", true);
#else
  out->flag("build.ndebug", false);
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  out->flag("build.sanitizer", true);
#else
  out->flag("build.sanitizer", false);
#endif
#ifdef ESCHED_DEBUG_INVARIANTS
  out->flag("build.debug_invariants", true);
#else
  out->flag("build.debug_invariants", false);
#endif
#ifdef __OPTIMIZE__
  out->flag("build.optimized", true);
#else
  out->flag("build.optimized", false);
#endif
  out->text("build.compiler_version", __VERSION__);
  out->count("host.hardware_threads", std::thread::hardware_concurrency());
}

// ------------------------------------------------------------ sweep pass

struct Setup {
  esched::LoadedSweep sweep;
  std::vector<RunPoint> points;
  std::unique_ptr<esched::SweepRunner> runner;
  double seconds = 0.0;
};

/// Everything that happens before the first point is handed over: spec
/// load + expand, runner construction, and (with a cache dir) the cache
/// table creation.
Setup set_up(const Options& o, int threads, const std::string& cache_dir) {
  Setup s;
  const double start = now_s();
  s.sweep = esched::load_sweep(o.specs);
  s.points = s.sweep.concatenated();
  s.runner = std::make_unique<esched::SweepRunner>(threads);
  if (!cache_dir.empty()) s.runner->set_cache_dir(cache_dir);
  s.seconds = now_s() - start;
  return s;
}

/// Queue set-up, as `esched queue init` does it: spec load + expand, then
/// the task files and manifest of a fresh queue directory.
double queue_set_up(const Options& o) {
  const std::string dir = unused_dir(o, "setup-queue");
  const double start = now_s();
  esched::WorkQueue::init(dir, esched::load_sweep(o.specs), o.queue_chunk);
  return now_s() - start;
}

struct Pass {
  double wall = 0.0;
  bool ok = true;
  std::string error;
  std::vector<RunResult> results;
  esched::SweepStats stats;
  std::string csv;
};

/// One sweep plus its CSV report — what a user of `esched run --out` waits
/// for.
Pass run_pass(const Setup& s, esched::SweepRunner& runner,
              const std::string& csv_path,
              const esched::RowCallback& on_row = nullptr) {
  Pass pass;
  const double start = now_s();
  try {
    pass.results = runner.run(s.points, &pass.stats, on_row);
    esched::write_csv_report(csv_path, s.points, pass.results,
                             s.sweep.with_size_dist);
  } catch (const std::exception& e) {
    pass.ok = false;
    pass.error = e.what();
  }
  pass.wall = now_s() - start;
  if (pass.ok) pass.csv = read_file(csv_path);
  return pass;
}

/// Checks every point of a pass against the closed forms and, when a
/// reference pass is given, bitwise against its results and CSV bytes.
void judge(const Setup& s, const Pass& pass, const Pass* reference,
           const char* label, Verdict* verdict) {
  const std::size_t n = s.points.size();
  verdict->attempted += n;
  if (!pass.ok) {
    verdict->fail(std::string(label) + ": sweep failed: " + pass.error, n);
    return;
  }
  const auto note = [&](std::size_t i, const std::string& why) {
    if (verdict->notes.size() < 8) {
      verdict->notes.push_back(std::string(label) + " point " +
                               std::to_string(i) + " " + s.points[i].policy +
                               ": " + why);
    }
  };
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::string why;
    if (!check_point(s.points[i], pass.results[i], &why)) {
      ++bad;
      note(i, why);
    } else if (reference != nullptr &&
               (!reference->ok ||
                !numerically_equal(pass.results[i], reference->results[i]))) {
      ++bad;
      note(i, "differs from the 1-thread cold pass");
    }
  }
  if (reference != nullptr && reference->ok) {
    const std::uint64_t rows = csv_row_mismatches(pass.csv, reference->csv);
    if (rows > bad) {
      note(0, "CSV bytes differ from the 1-thread cold pass");
      bad = std::min<std::uint64_t>(rows, n);
    }
  }
  verdict->failed += bad;
}

// ------------------------------------------------------------ timed mode

int run_timed(const Options& o) {
  Verdict verdict;
  std::vector<double> setup_s;
  std::vector<double> rate_1t;
  std::vector<double> rate_nt;
  std::vector<double> rate_warm;
  std::unique_ptr<Pass> reference;
  std::size_t points = 0;
  // Rep 0 warms up (thread arenas, page cache, the first table mapping)
  // and sets the reference results; its timings are not kept, except with
  // --single-rep, where it is the only rep.
  const double start = now_s();
  int reps = 0;
  std::vector<double> first_rep;
  while (reps < (o.single_rep ? 1 : 3) || now_s() - start < o.seconds) {
    const bool timed = reps > 0 || o.single_rep;
    const std::string tag = "rep" + std::to_string(reps % 2);
    // Cold, 1 thread.
    Setup one = set_up(o, 1, o.cache ? fresh_dir(o, tag + "-cache1") : "");
    points = one.points.size();
    Pass cold1 = run_pass(one, *one.runner, o.workdir + "/cold1.csv");
    if (timed) {
      setup_s.push_back(o.queue_chunk > 0 ? queue_set_up(o) : one.seconds);
      rate_1t.push_back(static_cast<double>(points) / cold1.wall);
    } else {
      first_rep.push_back(static_cast<double>(points) / cold1.wall);
    }
    if (reference == nullptr) {
      judge(one, cold1, nullptr, "cold 1-thread", &verdict);
      reference = std::make_unique<Pass>(std::move(cold1));
    } else {
      judge(one, cold1, reference.get(), "cold 1-thread", &verdict);
    }
    // Cold, N threads (a fresh runner and cache dir of its own).
    const std::string dir_n = o.cache ? fresh_dir(o, tag + "-cacheN") : "";
    Setup many = set_up(o, o.threads, dir_n);
    if (timed && o.queue_chunk == 0) setup_s.push_back(many.seconds);
    if (o.nthreads_pass) {
      const Pass coldn = run_pass(many, *many.runner, o.workdir + "/coldn.csv");
      (timed ? rate_nt : first_rep)
          .push_back(static_cast<double>(points) / coldn.wall);
      judge(many, coldn, reference.get(), "cold N-thread", &verdict);
    } else {
      // No N-thread pass: the warm rerun below reuses the 1-thread runner.
      many.runner = std::move(one.runner);
    }
    // Warm: with a cache dir, a fresh runner on the filled directory (every
    // point a table hit); without, the same runner again (memo hits). One
    // checked pass, then samples timed without the report (its file write
    // would swamp a pass that takes about a millisecond). A pass that short
    // times unevenly, so each sample is a block of back-to-back passes
    // covering at least 20 ms.
    const auto warm_runner = [&]() -> std::unique_ptr<esched::SweepRunner> {
      if (!o.cache) return nullptr;
      auto fresh = std::make_unique<esched::SweepRunner>(o.threads);
      fresh->set_cache_dir(dir_n);
      return fresh;
    };
    const std::unique_ptr<esched::SweepRunner> checked = warm_runner();
    const Pass hot = run_pass(many, checked ? *checked : *many.runner,
                              o.workdir + "/warm.csv");
    judge(many, hot, reference.get(), "warm", &verdict);
    const int block = std::clamp(
        static_cast<int>(0.02 / std::max(hot.stats.wall_seconds, 1e-6)) + 1, 1,
        1000);
    for (int sample = 0; timed && sample < 5; ++sample) {
      double wall = 0.0;
      for (int n = 0; n < block; ++n) {
        // One runner (and table mapping) at a time: the timed wall is the
        // runner's own, so creating it here stays out of the sample.
        const std::unique_ptr<esched::SweepRunner> fresh = warm_runner();
        esched::SweepStats stats;
        (fresh ? *fresh : *many.runner).run(many.points, &stats);
        wall += stats.wall_seconds;
      }
      rate_warm.push_back(static_cast<double>(points) * block / wall);
    }
    ++reps;
  }
  // Set-up takes milliseconds: top the samples up on their own.
  while (setup_s.size() < 11) {
    if (o.queue_chunk > 0) {
      setup_s.push_back(queue_set_up(o));
    } else {
      const Setup s =
          set_up(o, o.threads, o.cache ? fresh_dir(o, "setup-cache") : "");
      setup_s.push_back(s.seconds);
    }
  }
  if (o.cache) {
    for (const char* name : {"rep0-cache1", "rep0-cacheN", "rep1-cache1",
                             "rep1-cacheN", "setup-cache"}) {
      fs::remove_all(o.workdir + "/" + name);
    }
  }

  Record out;
  out.text("mode", "timed");
  out.count("reps",
            static_cast<std::uint64_t>(o.single_rep ? reps : reps - 1));
  out.count("points", points);
  out.count("attempted", verdict.attempted);
  out.count("failed", verdict.failed);
  out.real("setup_s", median(setup_s));
  out.count("setup_samples", setup_s.size());
  out.real("points_per_s_1t", median(rate_1t));
  if (o.nthreads_pass) out.real("points_per_s", median(rate_nt));
  // The fastest block, not the median: whole runners run warm passes at
  // one of two speeds about 1.7x apart (by where their threads and memo
  // land), in shares that change from run to run.
  out.real("warm_points_per_s",
           rate_warm.empty()
               ? 0.0
               : *std::max_element(rate_warm.begin(), rate_warm.end()));
  out.real("probe_peak_rss_mb", peak_rss_mb());
  out.series("series.setup_s", setup_s);
  out.series("series.points_per_s_1t", rate_1t);
  out.series("series.points_per_s", rate_nt);
  out.series("series.warm_points_per_s", rate_warm);
  // The dropped first rep: 1-thread and N-thread rates of a fresh process.
  out.series("series.first_rep_points_per_s", first_rep);
  for (std::size_t n = 0; n < verdict.notes.size(); ++n) {
    out.text("note" + std::to_string(n), verdict.notes[n]);
  }
  record_build(&out);
  std::cout << out.json() << std::endl;
  return 0;
}

// ------------------------------------------------------------ trace mode

/// In-memory span recorder: spans nest by a stack (the replay is
/// single-threaded) and are written out once, at the end. When disabled,
/// the same replay code runs with no clock reads and no records.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  std::int64_t open(const char* name) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = now_s();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<std::int64_t>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  double duration(std::int64_t id) const {
    if (id < 0) return 0.0;
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span early and returns its duration (0 when tracing is off).
  double close() {
    if (!closed_) {
      tracer_.close(id_);
      closed_ = true;
    }
    return tracer_.duration(id_);
  }

 private:
  Tracer& tracer_;
  std::int64_t id_;
  bool closed_ = false;
};

const char* dispatch_span_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kQbdAnalysis: return "dispatch.qbd";
    case SolverKind::kExactCtmc: return "dispatch.exact";
    case SolverKind::kSimulation: return "dispatch.sim";
    default: return "dispatch.other";
  }
}

/// Per-call samples gathered by one replay.
struct Samples {
  std::map<SolverKind, std::vector<double>> dispatch_s;
  std::vector<double> cache_miss_s;
  std::vector<double> cache_hit_s;
  std::vector<double> cache_store_s;
  double report_write_s = 0.0;
  std::uint64_t report_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double queue_init_s = 0.0;
  std::vector<double> claim_s;
  std::vector<double> commit_s;
  double collect_s = 0.0;
  std::uint64_t chunks = 0;
  std::string csv;  ///< the replay's report (or the queue's collected one)
  bool ok = true;
  std::string error;
};

void solve_point(const RunPoint& point, Tracer& tracer, Samples* samples,
                 RunResult* result) {
  Scope span(tracer, dispatch_span_name(point.solver));
  *result = esched::dispatch_run(point);
  const double d = span.close();
  if (tracer.enabled()) samples->dispatch_s[point.solver].push_back(d);
}

/// The sweep without the runner: per point a cache probe, a dispatch and a
/// cache store, then the CSV report; with a cache, a second probe pass over
/// the filled directory.
void replay_sweep(const Options& o, const Setup& s, Tracer& tracer,
                  const std::string& tag, Samples* samples) {
  std::unique_ptr<esched::TieredResultCache> cache;
  if (o.cache) {
    cache = std::make_unique<esched::TieredResultCache>(
        fresh_dir(o, tag + "-cache"));
  }
  const Scope root(tracer, "bench.replay");
  std::vector<RunResult> results(s.points.size());
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const Scope point(tracer, "bench.point");
    std::string key;
    if (cache != nullptr) {
      key = s.points[i].cache_key();
      Scope probe(tracer, "cache.load");
      const auto hit = cache->load(key);
      const double d = probe.close();
      if (hit.has_value()) {
        results[i] = *hit;
        ++samples->cache_hits;
        continue;
      }
      ++samples->cache_misses;
      if (tracer.enabled()) samples->cache_miss_s.push_back(d);
    }
    solve_point(s.points[i], tracer, samples, &results[i]);
    if (cache != nullptr) {
      Scope store(tracer, "cache.store");
      cache->store(key, results[i]);
      const double d = store.close();
      if (tracer.enabled()) samples->cache_store_s.push_back(d);
    }
  }
  const std::string csv_path = o.workdir + "/" + tag + ".csv";
  {
    Scope write(tracer, "report.write");
    esched::write_csv_report(csv_path, s.points, results,
                             s.sweep.with_size_dist);
    samples->report_write_s += write.close();
  }
  if (cache != nullptr) {
    for (const RunPoint& point : s.points) {
      Scope probe(tracer, "cache.load");
      const auto hit = cache->load(point.cache_key());
      const double d = probe.close();
      if (hit.has_value()) {
        ++samples->cache_hits;
        if (tracer.enabled()) samples->cache_hit_s.push_back(d);
      } else {
        ++samples->cache_misses;
      }
    }
  }
  samples->csv = read_file(csv_path);
  samples->report_bytes = samples->csv.size();
}

/// The queue protocol of two `esched work` processes, replayed in one
/// thread: each logical worker scans the task directory, then both claim
/// before either commits, the way two live workers racing down the same
/// listing do; then `esched collect`.
void replay_queue(const Options& o, const Setup& s, Tracer& tracer,
                  const std::string& tag, Samples* samples) {
  const std::string dir = unused_dir(o, tag + "-queue");
  const Scope root(tracer, "bench.replay");
  {
    Scope init(tracer, "queue.init");
    esched::WorkQueue::init(dir, s.sweep, o.queue_chunk);
    samples->queue_init_s += init.close();
  }
  esched::WorkQueue queue(dir);
  const std::vector<RunPoint>& all = queue.expanded_points();
  struct Worker {
    std::string owner;
    std::vector<esched::ChunkTask> listing;
    std::size_t next = 0;
    std::optional<esched::ChunkTask> held;
    bool idle = false;
  };
  Worker workers[2] = {{"replay-a", {}, 0, std::nullopt, false},
                       {"replay-b", {}, 0, std::nullopt, false}};
  while (!(workers[0].idle && workers[1].idle)) {
    for (Worker& w : workers) {
      w.held.reset();
      for (;;) {
        if (w.next >= w.listing.size()) {
          Scope scan(tracer, "queue.scan");
          w.listing = queue.pending_tasks();
          w.next = 0;
          if (w.listing.empty()) break;
        }
        const esched::ChunkTask task = w.listing[w.next++];
        if (queue.is_done(task.chunk)) continue;
        Scope claim(tracer, "queue.claim");
        const bool won = queue.claim(task, w.owner);
        const double d = claim.close();
        if (tracer.enabled()) samples->claim_s.push_back(d);
        if (won) {
          w.held = task;
          break;
        }
      }
      w.idle = !w.held.has_value();
    }
    for (Worker& w : workers) {
      if (!w.held.has_value()) continue;
      const esched::ChunkTask task = *w.held;
      const Scope chunk(tracer, "queue.chunk");
      const std::vector<RunPoint> slice(
          all.begin() + static_cast<std::ptrdiff_t>(task.begin),
          all.begin() + static_cast<std::ptrdiff_t>(task.end));
      std::vector<RunResult> results(slice.size());
      esched::SweepStats stats;
      stats.total_points = stats.solved_points = slice.size();
      stats.threads_used = 1;
      const double solve_start = now_s();
      for (std::size_t i = 0; i < slice.size(); ++i) {
        const Scope point(tracer, "bench.point");
        solve_point(slice[i], tracer, samples, &results[i]);
        Scope beat(tracer, "queue.heartbeat");
        queue.heartbeat(task.chunk);
      }
      stats.wall_seconds = now_s() - solve_start;
      Scope commit(tracer, "queue.commit");
      queue.commit(task, w.owner, slice, results, stats);
      const double d = commit.close();
      if (tracer.enabled()) samples->commit_s.push_back(d);
      ++samples->chunks;
    }
  }
  const std::string csv_path = o.workdir + "/" + tag + ".csv";
  {
    Scope collect(tracer, "queue.collect");
    esched::merge_csv_reports(queue.collectable_paths(/*json=*/false),
                              csv_path);
    samples->collect_s += collect.close();
  }
  samples->csv = read_file(csv_path);
  samples->report_bytes = samples->csv.size();
}

void replay(const Options& o, const Setup& s, Tracer& tracer,
            const std::string& tag, Samples* samples) {
  try {
    if (o.queue_chunk > 0) {
      replay_queue(o, s, tracer, tag, samples);
    } else {
      replay_sweep(o, s, tracer, tag, samples);
    }
  } catch (const std::exception& e) {
    samples->ok = false;
    samples->error = e.what();
  }
  if (o.cache) fs::remove_all(o.workdir + "/" + tag + "-cache");
}

/// The (imax, jmax, method) an exact point solves with — the dispatcher's
/// own rule: explicit levels win, otherwise derived from rho.
esched::ExactCtmcOptions exact_options(const RunPoint& point) {
  esched::ExactCtmcOptions options;
  const long derived = esched::suggested_truncation(
      point.params.rho(), point.options.truncation_epsilon);
  options.imax = point.options.imax > 0 ? point.options.imax : derived;
  options.jmax = point.options.jmax > 0 ? point.options.jmax : derived;
  options.method = point.options.exact_method;
  return options;
}

esched::ExactCtmcResult solve_exact(const RunPoint& point,
                                    const esched::ExactCtmcOptions& options) {
  const auto policy = esched::make_policy(point.policy);
  if (!point.options.size_dist_i.is_exponential()) {
    return esched::solve_exact_ctmc_ph(
        point.params, *policy,
        point.options.size_dist_i.compile(point.params.mu_i), options);
  }
  return esched::solve_exact_ctmc(point.params, *policy, options);
}

struct CoreSamples {
  std::vector<double> if_s;
  std::vector<double> ef_s;
  std::vector<double> qbd_iterations;
  double exact_build_s = 0.0;
  double exact_solve_s = 0.0;
  std::uint64_t states_max = 0;
  std::map<std::string, std::uint64_t> method_solves;
  std::uint64_t sor_iterations = 0;
  std::vector<double> sim_s;
  double sim_jobs = 0.0;
};

/// Calls each backend's core entry points directly: the QBD analyses, the
/// exact chain (skeleton build once per topology group, then one solve per
/// policy, as the runner batches them), and the simulator.
void core_pass(const std::vector<RunPoint>& points, Tracer& tracer,
               CoreSamples* core) {
  std::map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::size_t> solo;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RunPoint& point = points[i];
    if (point.solver == SolverKind::kQbdAnalysis) {
      const bool inelastic_first = point.policy == "IF";
      Scope span(tracer, inelastic_first ? "qbd.if" : "qbd.ef");
      const esched::ResponseTimeAnalysis a =
          inelastic_first
              ? esched::analyze_inelastic_first(point.params,
                                                point.options.fit_order)
              : esched::analyze_elastic_first(point.params,
                                              point.options.fit_order);
      (inelastic_first ? core->if_s : core->ef_s).push_back(span.close());
      core->qbd_iterations.push_back(a.qbd_iterations);
    } else if (point.solver == SolverKind::kExactCtmc) {
      const std::string topology = esched::exact_topology_key(point);
      if (topology.empty()) {
        solo.push_back(i);
      } else {
        groups[topology].push_back(i);
      }
    } else if (point.solver == SolverKind::kSimulation) {
      esched::SimOptions options;
      options.num_jobs = point.options.sim_jobs;
      options.warmup_jobs = point.options.sim_warmup;
      options.seed = point.options.sim_raw_seed ? point.options.base_seed
                                                : point.seed();
      const auto policy = esched::make_policy(point.policy);
      Scope span(tracer, "sim");
      esched::simulate(point.params, *policy, options);
      core->sim_s.push_back(span.close());
      core->sim_jobs += static_cast<double>(options.num_jobs +
                                            options.warmup_jobs);
    }
  }
  const auto note = [&](const esched::ExactCtmcResult& r) {
    core->states_max = std::max<std::uint64_t>(core->states_max, r.num_states);
    ++core->method_solves[r.solve_info.method];
    if (r.solve_info.method == "sor") {
      core->sor_iterations +=
          static_cast<std::uint64_t>(r.solve_info.iterations);
    }
  };
  for (const auto& [topology, members] : groups) {
    const RunPoint& first = points[members.front()];
    Scope build(tracer, "exact_ctmc.build");
    esched::ExactCtmcBatch batch(first.params, exact_options(first));
    core->exact_build_s += build.close();
    for (const std::size_t i : members) {
      Scope solve(tracer, "exact_ctmc.solve");
      const esched::ExactCtmcResult r =
          batch.solve(*esched::make_policy(points[i].policy));
      core->exact_solve_s += solve.close();
      note(r);
    }
  }
  for (const std::size_t i : solo) {
    // Augmented phase-type chains build and solve in one call.
    Scope solve(tracer, "exact_ctmc.solve");
    const esched::ExactCtmcResult r =
        solve_exact(points[i], exact_options(points[i]));
    core->exact_solve_s += solve.close();
    note(r);
  }
}

/// auto's solve time over the fastest forced method, summed over a fixed
/// sample: the IF point of every chain topology plus every phase-type
/// point. GTH is forced only on chains small enough to densify.
void regret_pass(const std::vector<RunPoint>& points,
                 double* regret, std::uint64_t* sampled) {
  std::map<std::string, std::size_t> picks;
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RunPoint& point = points[i];
    if (point.solver != SolverKind::kExactCtmc) continue;
    const std::string topology = esched::exact_topology_key(point);
    if (topology.empty()) {
      sample.push_back(i);
    } else if (point.policy == "IF" && picks.count(topology) == 0) {
      picks[topology] = i;
      sample.push_back(i);
    }
  }
  double auto_total = 0.0;
  double best_total = 0.0;
  for (const std::size_t i : sample) {
    const RunPoint& point = points[i];
    esched::ExactCtmcOptions options = exact_options(point);
    options.method = esched::StationaryMethod::kAuto;
    double start = now_s();
    const esched::ExactCtmcResult automatic = solve_exact(point, options);
    const double t_auto = now_s() - start;
    double best = t_auto;
    for (const auto method :
         {esched::StationaryMethod::kGth, esched::StationaryMethod::kBlock,
          esched::StationaryMethod::kSor}) {
      if (method == esched::StationaryMethod::kGth &&
          automatic.num_states > kRegretGthStates) {
        continue;
      }
      options.method = method;
      try {
        start = now_s();
        solve_exact(point, options);
        best = std::min(best, now_s() - start);
      } catch (const std::exception&) {
        // A method that cannot take this chain is not a candidate.
      }
    }
    auto_total += t_auto;
    best_total += best;
  }
  *regret = best_total > 0.0 ? auto_total / best_total : 0.0;
  *sampled = sample.size();
}

/// Per-layer self time: each span's duration minus what its children
/// cover, summed by layer (the span-name prefix before the first '.').
std::map<std::string, double> self_times(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> layers;
  for (std::size_t n = 0; n < spans.size(); ++n) {
    const std::string& name = spans[n].name;
    const std::string layer = name.substr(0, name.find('.'));
    layers[layer] += spans[n].end - spans[n].start - child[n];
  }
  return layers;
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  const auto& spans = tracer.spans();
  for (std::size_t n = 0; n < spans.size(); ++n) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                  "\"start\": %.9f, \"end\": %.9f}\n",
                  n, static_cast<long long>(spans[n].parent),
                  spans[n].name.c_str(), spans[n].start, spans[n].end);
    out << buf;
  }
}

int run_trace(const Options& o) {
  Verdict verdict;
  Record out;
  out.text("mode", "trace");

  // engine/spec: load + expand, timed from outside.
  std::vector<double> load_s;
  Setup s;
  for (int n = 0; n < 11; ++n) {
    const double start = now_s();
    s.sweep = esched::load_sweep(o.specs);
    s.points = s.sweep.concatenated();
    load_s.push_back(now_s() - start);
  }
  const std::size_t points = s.points.size();
  out.real("spec.load_s", median(load_s));
  out.count("spec.points", points);

  // engine/sweep_runner, observed through SweepStats and row callbacks,
  // after one untimed N-thread pass (the timed runs also drop their first
  // rep: a fresh process's first parallel pass pays for allocator arenas).
  {
    Setup warmup = set_up(o, o.threads, o.cache ? fresh_dir(o, "warmup") : "");
    run_pass(warmup, *warmup.runner, o.workdir + "/warmup.csv");
    if (o.cache) fs::remove_all(o.workdir + "/warmup");
  }
  const std::string cache1 = o.cache ? fresh_dir(o, "runner-cache1") : "";
  const std::string cachen = o.cache ? fresh_dir(o, "runner-cacheN") : "";
  Setup one = set_up(o, 1, cache1);
  const Pass cold1 = run_pass(one, *one.runner, o.workdir + "/runner1.csv");
  judge(one, cold1, nullptr, "runner 1-thread", &verdict);
  Setup many = set_up(o, o.threads, cachen);
  std::vector<double> completions;
  const esched::RowCallback on_row = [&completions](std::size_t,
                                                    const RunPoint&,
                                                    const RunResult& result) {
    if (!result.from_cache) completions.push_back(now_s());
  };
  const Pass coldn =
      run_pass(many, *many.runner, o.workdir + "/runnerN.csv", on_row);
  judge(many, coldn, &cold1, "runner N-thread", &verdict);
  esched::SweepRunner warm_runner(o.threads);
  esched::SweepRunner* warm_target = many.runner.get();
  if (o.cache) {
    warm_runner.set_cache_dir(cachen);
    warm_target = &warm_runner;
  }
  const Pass warm = run_pass(many, *warm_target, o.workdir + "/runnerW.csv");
  judge(many, warm, &cold1, "runner warm", &verdict);
  std::sort(completions.begin(), completions.end());
  const std::size_t nth = static_cast<std::size_t>(o.threads);
  // From the N-th-to-last completion to the last one.
  const double tail = completions.size() >= nth
                          ? completions.back() -
                                completions[completions.size() - nth]
                          : 0.0;
  out.real("sweep_runner.run_s", coldn.stats.wall_seconds);
  out.real("sweep_runner.solve_s_total", coldn.stats.solve_seconds_total);
  out.real("sweep_runner.idle_s",
           coldn.stats.wall_seconds * o.threads -
               coldn.stats.solve_seconds_total);
  out.real("sweep_runner.tail_s", tail);
  out.real("sweep_runner.inflation",
           cold1.stats.solve_seconds_total > 0.0
               ? coldn.stats.solve_seconds_total /
                     cold1.stats.solve_seconds_total
               : 0.0);
  std::uint64_t memo_hits = 0;
  std::uint64_t disk_hits = 0;
  for (const Pass* pass : {&cold1, &coldn, &warm}) {
    memo_hits += pass->stats.cache_hits - pass->stats.disk_hits;
    disk_hits += pass->stats.disk_hits;
  }
  out.count("sweep_runner.memo_hits", memo_hits);
  out.count("sweep_runner.disk_hits", disk_hits);
  for (const std::string& dir : {cache1, cachen}) {
    if (!dir.empty()) fs::remove_all(dir);
  }

  // The single-threaded replay through the layers, alternating untraced
  // and traced passes of identical code until --seconds are spent.
  Tracer tracer(true);
  Samples traced;
  std::vector<double> overhead;
  const double replay_start = now_s();
  do {
    // Alternate which of the two goes first, so neither always pays for
    // cold pages and allocator growth.
    Tracer off(false);
    Samples plain;
    double plain_s = 0.0;
    double traced_s = 0.0;
    for (int turn = 0; turn < 2; ++turn) {
      const double start = now_s();
      if ((turn == 0) == (overhead.size() % 2 == 0)) {
        replay(o, s, off, "replay-plain", &plain);
        plain_s = now_s() - start;
      } else {
        replay(o, s, tracer, "replay-traced", &traced);
        traced_s = now_s() - start;
      }
    }
    overhead.push_back(traced_s / plain_s);
    for (const Samples* r : {&plain, &traced}) {
      verdict.attempted += points;
      if (!r->ok) {
        verdict.fail("replay failed: " + r->error, points);
      } else if (cold1.ok) {
        const std::uint64_t rows = csv_row_mismatches(r->csv, cold1.csv);
        if (rows > 0) {
          verdict.fail(o.queue_chunk > 0
                           ? "queue collect differs from the in-process run"
                           : "replay CSV differs from the runner's",
                       std::min<std::uint64_t>(rows, points));
        }
      }
    }
  } while (overhead.size() < 2 ||
           (now_s() - replay_start < o.seconds / 2.0 && overhead.size() < 50));
  const double passes = static_cast<double>(overhead.size());

  // Backend cores and the exact solver's method choice.
  Tracer core_tracer(true);
  CoreSamples core;
  core_pass(s.points, core_tracer, &core);
  double regret = 0.0;
  std::uint64_t regret_points = 0;
  regret_pass(s.points, &regret, &regret_points);

  for (const auto& [kind, name] :
       std::vector<std::pair<SolverKind, std::string>>{
           {SolverKind::kQbdAnalysis, "qbd"},
           {SolverKind::kExactCtmc, "exact"},
           {SolverKind::kSimulation, "sim"}}) {
    std::vector<double> ms;
    for (const double d : traced.dispatch_s[kind]) ms.push_back(d * 1e3);
    const double pct = tail_percentile(ms.size());
    out.real("dispatch." + name + ".point_ms_p50", percentile(ms, 50.0));
    out.real("dispatch." + name + ".point_ms_ptail", percentile(ms, pct));
    out.real("dispatch." + name + ".ptail_pct", ms.empty() ? 0.0 : pct);
    out.count("dispatch." + name + ".points", ms.size());
  }

  out.real("exact_ctmc.build_s", core.exact_build_s);
  out.real("exact_ctmc.solve_s", core.exact_solve_s);
  out.count("exact_ctmc.states_max", core.states_max);
  for (const char* method : {"gth", "block", "sor"}) {
    out.count(std::string("exact_ctmc.method.") + method + ".solves",
              core.method_solves[method]);
  }
  out.count("exact_ctmc.sor_iterations", core.sor_iterations);
  out.real("exact_ctmc.auto_regret", regret);
  out.count("exact_ctmc.auto_regret_points", regret_points);

  std::vector<double> if_ms;
  std::vector<double> ef_ms;
  for (const double d : core.if_s) if_ms.push_back(d * 1e3);
  for (const double d : core.ef_s) ef_ms.push_back(d * 1e3);
  out.real("qbd.if_ms_p50", percentile(if_ms, 50.0));
  out.real("qbd.ef_ms_p50", percentile(ef_ms, 50.0));
  out.real("qbd.iterations_mean", mean(core.qbd_iterations));

  const double sim_total = sum(core.sim_s);
  out.real("sim.jobs_per_s", sim_total > 0.0 ? core.sim_jobs / sim_total : 0.0);
  out.real("sim.point_s", percentile(core.sim_s, 50.0));

  std::vector<double> miss_us;
  std::vector<double> store_us;
  std::vector<double> hit_us;
  for (const double d : traced.cache_miss_s) miss_us.push_back(d * 1e6);
  for (const double d : traced.cache_store_s) store_us.push_back(d * 1e6);
  for (const double d : traced.cache_hit_s) hit_us.push_back(d * 1e6);
  out.real("cache.miss_us_p50", percentile(miss_us, 50.0));
  out.real("cache.store_us_p50", percentile(store_us, 50.0));
  out.real("cache.hit_us_p50", percentile(hit_us, 50.0));
  out.real("cache.hit_us_ptail",
           percentile(hit_us, tail_percentile(hit_us.size())));
  out.real("cache.hit_ptail_pct",
           hit_us.empty() ? 0.0 : tail_percentile(hit_us.size()));
  // Hits and misses of one replay (cold probe + warm probe); every pass
  // makes the same calls.
  const auto per_pass = [passes](std::uint64_t total) {
    return static_cast<std::uint64_t>(static_cast<double>(total) / passes);
  };
  out.count("cache.hits", per_pass(traced.cache_hits));
  out.count("cache.misses", per_pass(traced.cache_misses));
  // The program's own count: the share of the warm runner pass that a
  // fresh SweepRunner served from the filled cache dir.
  out.real("cache.hit_ratio",
           o.cache && warm.stats.total_points > 0
               ? static_cast<double>(warm.stats.disk_hits) /
                     static_cast<double>(warm.stats.total_points)
               : 0.0);

  out.real("report.write_s", traced.report_write_s / passes);
  out.count("report.bytes", traced.report_bytes);

  std::vector<double> claim_ms;
  std::vector<double> commit_ms;
  for (const double d : traced.claim_s) claim_ms.push_back(d * 1e3);
  for (const double d : traced.commit_s) commit_ms.push_back(d * 1e3);
  out.real("queue.init_s", traced.queue_init_s / passes);
  out.real("queue.claim_ms_p50", percentile(claim_ms, 50.0));
  out.real("queue.commit_ms_p50", percentile(commit_ms, 50.0));
  out.real("queue.collect_s", traced.collect_s / passes);
  out.count("queue.chunks", per_pass(traced.chunks));

  out.real("bench.trace_overhead", median(overhead));
  out.count("bench.replay_passes", overhead.size());
  // Self time per layer: replay layers per pass, backend cores once.
  for (const auto& [layer, seconds] : self_times(tracer)) {
    out.real(layer + ".self_s", seconds / passes);
  }
  for (const auto& [layer, seconds] : self_times(core_tracer)) {
    out.real(layer + ".self_s", seconds);
  }

  out.count("attempted", verdict.attempted);
  out.count("failed", verdict.failed);
  for (std::size_t n = 0; n < verdict.notes.size(); ++n) {
    out.text("note" + std::to_string(n), verdict.notes[n]);
  }
  out.real("probe_peak_rss_mb", peak_rss_mb());
  record_build(&out);
  write_spans(tracer, o.workdir + "/spans-replay.jsonl");
  write_spans(core_tracer, o.workdir + "/spans-core.jsonl");
  std::cout << out.json() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    fs::create_directories(o.workdir);
    if (o.mode == "timed") return run_timed(o);
    if (o.mode == "trace") return run_trace(o);
    throw std::runtime_error("unknown mode " + o.mode);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 2;
  }
}
