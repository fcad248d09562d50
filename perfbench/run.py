#!/usr/bin/env python3
"""esched benchmark: one command, seeded workloads, checked outputs.

    python3 perfbench/run.py --workload qbd-grid --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds the esched library, the
`esched` CLI and perfbench_probe (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's scenario
specs from --seed, runs it and checks its outputs. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it makes the separate
per-layer run (spans around every call into a layer, written to the run
directory) and reports the per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (see BENCHMARK.json for why each exists and PREDICTIONS.md for
which layer metric should move which end-to-end metric):
  qbd-grid      many cheap QBD-analysis points, cold into a fresh cache dir
                at 1 and N threads, then warm from the filled dir
  exact-family  exact-CTMC policy-family sweep plus Erlang-3 points, no cache
  queue-mixed   QBD + small exact + sim points through the work queue:
                `esched queue init`, 2 `esched work` processes, `collect`
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("qbd-grid", "exact-family", "queue-mixed")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
# Largest N the benchmark loads the host with (all from one process tree).
MAX_THREADS = 4
# Points per work unit of queue-mixed: small, so claim/commit cost shows.
QUEUE_CHUNK = 8
# queue-mixed takes 1-thread, warm and set-up samples in process this often.
PROBE_EVERY_S = 3.0
# A single child may not outlive the 180 s budget of a run.
CHILD_TIMEOUT_S = 150


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


# ------------------------------------------------------------------ build


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures (once) and builds the probe and the CLI; returns paths."""
    for needed in ("CMakeLists.txt", "src", "tools/esched_main.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("esched sources not found (%s missing); run from a full "
                 "checkout" % needed, 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(MAX_THREADS, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                      "perfbench_probe", "esched_cli"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    with open(os.path.join(out, "build_info.json")) as f:
        info = json.load(f)
    return (os.path.join(out, "perfbench_probe"),
            os.path.join(out, "esched", "esched"), info)


def refuse_unfit_build(info, probe_record):
    """Timings from assertion, sanitizer or invariant builds are refused."""
    flags = " ".join([info["cxx_flags"], info["compile_options"],
                      info["compile_definitions"]])
    problems = []
    if not probe_record.get("build.ndebug"):
        problems.append("assertions are on (NDEBUG not defined)")
    if probe_record.get("build.sanitizer") or "-fsanitize" in flags:
        problems.append("sanitizer build")
    if probe_record.get("build.debug_invariants") or "ESCHED_DEBUG_INVARIANTS" in flags:
        problems.append("ESCHED_DEBUG_INVARIANTS build")
    if not probe_record.get("build.optimized"):
        problems.append("unoptimized build")
    if problems:
        fail("refusing to report timings: " + ", ".join(problems), 3)


# ------------------------------------------------------------- workloads


def latin(rng, n):
    """n jittered stratified draws in [0, 1): one per cell of width 1/n, in
    random order (a Latin hypercube when used per axis). Every seed then
    covers each axis evenly, which keeps a workload's cost steady across
    seeds while its points change."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def sig4(x):
    return float("%.4g" % x)


def cases(rng, n, k, rho_range, mu_i_range, mu_e_range):
    """n settings at k servers, Latin-hypercube over rho (linear) and the
    size rates (log scale)."""
    rho, mu_i, mu_e = latin(rng, n), latin(rng, n), latin(rng, n)
    scale = lambda u, lo, hi: sig4(lo * (hi / lo) ** u)
    return [{"k": k,
             "rho": round(rho_range[0] + rho[i] * (rho_range[1] - rho_range[0]), 4),
             "mu_i": scale(mu_i[i], *mu_i_range),
             "mu_e": scale(mu_e[i], *mu_e_range)} for i in range(n)]


# Fig. 4's size-rate range, for both classes.
FIG4_MU = (0.25, 3.5)
# Load bands of the QBD strata, and points per band by k: an IF point's
# QBD has k-wide levels and its cost grows steeply with k and rho (about
# 0.1 ms at k=2 vs 17 ms at k=16 near rho=0.95), so k=16 is sampled thinly
# to keep the grid one of cheap points.
QBD_BANDS = ((0.5, 0.65), (0.65, 0.8), (0.8, 0.9), (0.9, 0.95))
QBD_PER_BAND = {2: 32, 4: 32, 8: 16, 16: 4}
FAMILY = ["IF", "EF", "FairShare", "Cap2", "IF+idle1"]


def qbd_cases(rng, scale):
    out = []
    for k, n in QBD_PER_BAND.items():
        for band in QBD_BANDS:
            out += cases(rng, max(1, n // scale), k, band, FIG4_MU, FIG4_MU)
    rng.shuffle(out)
    return out


def generate(workload, seed):
    """The workload's scenario specs (dicts in the esched spec schema)."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "qbd-grid":
        return [{"name": "qbd-grid", "cases": qbd_cases(rng, 1),
                 "axes": {"policy": ["IF", "EF"], "solver": ["qbd"]}}]
    if workload == "exact-family":
        # The policy family at fixed (k, rho) settings: rho sets the
        # truncation depth and so the chain size (225 states at 0.5 up to
        # 7921 at 0.9), k which service transitions exist. mu_I varies with
        # the seed. The rho=0.9 group is the longest job.
        family = []
        for rho, ks in ((0.5, (2, 4, 8, 4)), (0.7, (2, 4, 8)), (0.8, (4, 8)),
                        (0.9, (4,))):
            for k, case in zip(ks, cases(rng, len(ks), 0, (rho, rho),
                                         (0.5, 2.0), (1, 1))):
                family.append(dict(case, k=k))
        # Erlang-3 inelastic sizes at a fixed truncation (5775 states at k=4).
        erlang = cases(rng, 2, 4, (0.5, 0.8), (0.5, 2.0), (1, 1))
        # Erlang-3 IF chains at k=8 whose blocks are too dense for auto's
        # block budget, so auto solves them with SOR (about 30 ms each).
        erlang_sor = cases(rng, 2, 8, (0.5, 0.8), (0.5, 2.0), (1, 1))
        return [
            {"name": "exact-family", "cases": family,
             "axes": {"policy": FAMILY, "solver": ["exact"]},
             "options": {"truncation_epsilon": 1e-4}},
            {"name": "exact-erlang3", "cases": erlang,
             "axes": {"truncation": [20], "policy": ["IF", "EF"],
                      "solver": ["exact"]},
             "options": {"size_dist_i": "erlang:3"}},
            {"name": "exact-erlang3-sor", "cases": erlang_sor,
             "axes": {"truncation": [14], "policy": ["IF"], "solver": ["exact"]},
             "options": {"size_dist_i": "erlang:3"}},
        ]
    if workload == "queue-mixed":
        # Interleaved small specs, so chunks of every backend are spread over
        # the queue rather than run back to back.
        specs = []
        for part in range(6):
            specs.append({"name": "mixed-qbd-%d" % part,
                          "cases": qbd_cases(rng, 4),
                          "axes": {"policy": ["IF", "EF"], "solver": ["qbd"]}})
            exact = cases(rng, 8, 0, (0.5, 0.65), (0.5, 2.0), (1, 1))
            specs.append({"name": "mixed-exact-%d" % part,
                          "cases": [dict(case, k=k)
                                    for case, k in zip(exact, (2, 4) * 4)],
                          "axes": {"policy": FAMILY, "solver": ["exact"]},
                          "options": {"truncation_epsilon": 1e-6}})
            specs.append({"name": "mixed-sim-%d" % part,
                          "cases": cases(rng, 8, 4, (0.5, 0.8), FIG4_MU, FIG4_MU),
                          "axes": {"policy": ["IF", "EF"], "solver": ["sim"]},
                          "options": {"sim_jobs": 20000, "sim_warmup": 2000,
                                      "base_seed": seed}})
        return specs
    raise ValueError(workload)


def points_per_backend(specs):
    counts = {}
    for spec in specs:
        axes = spec["axes"]
        n = len(spec["cases"]) * len(axes["policy"]) * len(axes.get("truncation", [0]))
        for solver in axes["solver"]:
            counts[solver] = counts.get(solver, 0) + n
    return counts


# ------------------------------------------------------------ processes


LIVE = set()  # children not yet reaped, killed if this script is stopped


def stop_children(signum, _frame):
    for child in list(LIVE):
        child.proc.kill()
        child.thread.join()
    sys.exit(128 + signum)


class Child:
    """A child process whose exit and resource use are taken by wait4."""

    def __init__(self, cmd, out_path):
        self.out_path = out_path
        with open(out_path, "w") as out:
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        LIVE.add(self)
        self.started = time.monotonic()
        self.rusage = None
        self.thread = threading.Thread(target=self._reap, daemon=True)
        self.thread.start()

    def _reap(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.rusage = usage
        self.proc.returncode = os.waitstatus_to_exitcode(status)

    def wait(self, timeout=CHILD_TIMEOUT_S):
        """Exit code; a child past the timeout is killed and reaped, -9."""
        self.thread.join(max(0.0, self.started + timeout - time.monotonic()))
        if self.thread.is_alive():
            self.proc.kill()
            self.thread.join()
        LIVE.discard(self)
        return self.proc.returncode

    def output(self):
        with open(self.out_path) as f:
            return f.read()

    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # KiB on Linux


def run_child(cmd, out_path):
    child = Child(cmd, out_path)
    if child.wait() != 0:
        sys.stderr.write(child.output()[-4000:])
        fail("command failed: " + " ".join(cmd))
    return child


def probe_json(child):
    lines = child.output().strip().splitlines()
    return json.loads(lines[-1])


# ------------------------------------------------------------------ runs


def timed_in_process(args, probe, spec_paths, workdir, threads, cache):
    cmd = [probe, "timed", "--workdir", workdir, "--threads", str(threads),
           "--seconds", str(args.seconds), "--cache", "1" if cache else "0"]
    for path in spec_paths:
        cmd += ["--spec", path]
    child = run_child(cmd, os.path.join(workdir, "probe.log"))
    record = probe_json(child)
    metrics = {
        "setup_s": record["setup_s"],
        "points_per_s": record["points_per_s"],
        "points_per_s_1t": record["points_per_s_1t"],
        "scaling_eff": record["points_per_s"] / (threads * record["points_per_s_1t"]),
        "warm_points_per_s": record["warm_points_per_s"],
        "peak_rss_mb": child.peak_rss_mb(),
    }
    return record, metrics


# ------------------------------------------------------- run directories
#
# On ext4 without a journal the inode allocator skips recently freed
# inodes, re-reading each one, so a run that deleted its queue
# directories (about 150 files per drain) slowed every later file creation,
# its own and the next run's, by up to 20x. Nothing is deleted while runs
# go on: every drain gets a queue directory of its own, and when a run ends
# its directories are emptied with their inodes kept (truncated, not
# unlinked). A rerun's old run directory is moved aside the same way.


def hollow(path):
    """Truncates every file under `path` (or `path` itself) to zero bytes."""
    if os.path.isfile(path):
        os.truncate(path, 0)
        return
    for base, _, files in os.walk(path):
        for name in files:
            os.truncate(os.path.join(base, name), 0)


def retire(workdir):
    """Empties an old run directory and moves it out of the way."""
    if not os.path.exists(workdir):
        return
    hollow(workdir)
    retired = os.path.join(build_dir(), "retired")
    os.makedirs(retired, exist_ok=True)
    os.rename(workdir, os.path.join(retired, "%s.%d" % (
        os.path.basename(workdir), time.time_ns())))


def empty_run_dir(workdir):
    """Empties what a finished run leaves, except its specs, record, logs
    and spans."""
    for name in os.listdir(workdir):
        if not name.endswith((".json", ".log", ".jsonl")):
            hollow(os.path.join(workdir, name))


def drain(esched, spec_paths, queue_dir, workdir, workers, threads_each,
          metrics=False):
    """`esched queue init`, `workers` `esched work` processes, `esched
    collect`. Returns (seconds from the workers' spawn to the end of
    collect, the largest worker's peak RSS in MB, the collected CSV, and
    with `metrics` the workers' summed counters)."""
    run_child([esched, "queue", "init", *spec_paths, "--queue-dir", queue_dir,
               "--chunk", str(QUEUE_CHUNK)], os.path.join(workdir, "init.log"))
    start = time.monotonic()
    metric_paths = [os.path.join(queue_dir, "metrics-w%d.json" % n)
                    for n in range(workers)]
    children = [Child([esched, "work", "--queue-dir", queue_dir,
                       "--threads", str(threads_each), "--poll-ms", "5",
                       "--lease-ttl", "600", "--owner", "w%d" % n] +
                      (["--metrics-out", metric_paths[n]] if metrics else []),
                      os.path.join(workdir, "work%d.log" % n))
                for n in range(workers)]
    codes = [child.wait() for child in children]
    for child, code in zip(children, codes):
        if code != 0:
            sys.stderr.write(child.output()[-4000:])
            fail("esched work failed")
    merged = os.path.join(workdir, "collected.csv")
    run_child([esched, "collect", "--queue-dir", queue_dir, "--out", merged],
              os.path.join(workdir, "collect.log"))
    seconds = time.monotonic() - start
    with open(merged, "rb") as f:
        collected = f.read()
    counters = {}
    for path in metric_paths if metrics else []:
        with open(path) as f:
            for name, value in json.load(f)["counters"].items():
                counters[name] = counters.get(name, 0) + value
    return (seconds, max(child.peak_rss_mb() for child in children), collected,
            counters)


def host_ticks():
    """(steal, total) clock ticks of the host's CPUs so far, from
    /proc/stat; None where the kernel does not report steal."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) == 8 else None


def steal_share(before, after):
    """Share of the host's CPU time the hypervisor gave to other guests
    between two host_ticks() readings (0 when unknown)."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def timed_queue(args, probe, esched, spec_paths, workdir, threads):
    """queue-mixed: drains of 2 workers x N/2 threads, one after another
    for --seconds (points_per_s, peak_rss_mb).

    The 2-process drains leave a quarter of the vCPUs idle on waits for
    the critical path, and their wall doubles when the hypervisor steals a
    fifth of the host's CPU time for other guests, in spells of tens of
    seconds. points_per_s is therefore the median over the drains whose
    steal share is at most the run's median share: the quieter half.
    The first drain (after the probe's single-threaded slice) runs about
    2x slower and is not timed.

    Every PROBE_EVERY_S an in-process probe slice (perfbench_probe, one
    rep) adds a cold 1-thread pass through the public API
    (points_per_s_1t), warm (memo) rerun samples and set-up samples (spec
    load + queue init, timed without a process start); the first slice's
    CSV is the reference that every collect must reproduce."""
    cmd = [probe, "timed", "--workdir", workdir, "--threads", "1",
           "--seconds", "0", "--cache", "0", "--no-nthreads", "--single-rep",
           "--queue-chunk", str(QUEUE_CHUNK)]
    for path in spec_paths:
        cmd += ["--spec", path]
    layout = (2, max(1, threads // 2))
    rates, steal, rss, notes = [], [], [], []
    series = {"setup_s": [], "points_per_s_1t": [], "warm_points_per_s": []}
    attempted = failed = 0
    reference = None
    start = time.monotonic()
    last_probe = None
    while len(rss) < 2 or time.monotonic() - start < args.seconds:
        if last_probe is None or time.monotonic() - last_probe >= PROBE_EVERY_S:
            last_probe = time.monotonic()
            record = probe_json(run_child(cmd, os.path.join(workdir, "probe.log")))
            for name in series:
                series[name] += record["series." + name]
            attempted += record["attempted"]
            failed += record["failed"]
            notes += [v for k, v in record.items() if k.startswith("note")]
            if reference is None:
                with open(os.path.join(workdir, "cold1.csv"), "rb") as f:
                    reference = f.read()
            points = record["points"]
        queue_dir = os.path.join(workdir, "queue-%d" % len(rss))
        before = host_ticks()
        seconds, peak, collected, _ = drain(esched, spec_paths, queue_dir,
                                            workdir, *layout)
        if rss:
            rates.append(points / seconds)
            steal.append(steal_share(before, host_ticks()))
        rss.append(peak)
        attempted += points
        if collected != reference:
            rows = sum(1 for a, b in zip(collected.splitlines(),
                                         reference.splitlines()) if a != b)
            failed += min(max(rows, 1), points)
            notes.append("queue collect differs from the in-process run")
    quiet = statistics.median(steal)
    rate = statistics.median([r for r, s in zip(rates, steal) if s <= quiet])
    rate_1t = statistics.median(series["points_per_s_1t"])
    metrics = {
        "setup_s": statistics.median(series["setup_s"]),
        "points_per_s": rate,
        "points_per_s_1t": rate_1t,
        "scaling_eff": rate / (threads * rate_1t),
        "warm_points_per_s": max(series["warm_points_per_s"]),
        "peak_rss_mb": statistics.median(rss),
    }
    # The last probe record carries the build facts; counts cover the run.
    record = {k: v for k, v in record.items() if not k.startswith("note")}
    record.update({"attempted": attempted, "failed": failed,
                   "series.queue_points_per_s": rates,
                   "series.queue_steal_share": steal})
    record.update({"series." + name: values for name, values in series.items()})
    for n, note in enumerate(notes[:8]):
        record["note%d" % n] = note
    return record, metrics


def traced(args, probe, esched, spec_paths, workdir, threads, cache, queue):
    cmd = [probe, "trace", "--workdir", workdir, "--threads", str(threads),
           "--seconds", str(args.seconds), "--cache", "1" if cache else "0"]
    if queue:
        cmd += ["--queue-chunk", str(QUEUE_CHUNK)]
    for path in spec_paths:
        cmd += ["--spec", path]
    record = probe_json(run_child(cmd, os.path.join(workdir, "probe.log")))
    if queue:
        # Claim contention between two live `esched work` processes, from
        # the workers' own dist.lease counters.
        _, _, collected, counters = drain(
            esched, spec_paths, os.path.join(workdir, "queue-metrics"),
            workdir, 2, max(1, threads // 2), metrics=True)
        won = counters["dist.lease.claimed"]
        lost = counters["dist.lease.claim_lost"]
        record["queue.claim_win_ratio"] = won / (won + lost)
        record["attempted"] += record["spec.points"]
        with open(os.path.join(workdir, "runner1.csv"), "rb") as f:
            if collected != f.read():
                record["failed"] += record["spec.points"]
                record["note_drain"] = ("queue collect differs from the "
                                        "in-process run")
    return record


def select(metrics, kind):
    """The BENCHMARK.json metrics of one kind, by name, with their units.
    A layer the workload never calls reads 0."""
    return {entry["name"]: {"value": metrics.get(entry["name"]) or 0,
                            "unit": entry["unit"]}
            for entry in BENCHMARK[kind]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)

    probe, esched, info = build()
    nproc = os.cpu_count() or 1
    threads = max(1, min(MAX_THREADS, nproc))

    workdir = os.path.join(build_dir(), "runs", "%s-seed%d-trace%d" %
                           (args.workload, args.seed, args.trace))
    retire(workdir)
    os.makedirs(workdir)
    specs = generate(args.workload, args.seed)
    spec_paths = []
    for spec in specs:
        path = os.path.join(workdir, spec["name"] + ".json")
        with open(path, "w") as f:
            json.dump(spec, f, indent=1)
        spec_paths.append(path)

    cache = args.workload == "qbd-grid"
    if args.trace:
        record = traced(args, probe, esched, spec_paths, workdir, threads,
                        cache, args.workload == "queue-mixed")
        refuse_unfit_build(info, record)
        metrics = select(record, "per_layer")
    else:
        if args.workload == "queue-mixed":
            record, values = timed_queue(args, probe, esched, spec_paths,
                                         workdir, threads)
        else:
            record, values = timed_in_process(args, probe, spec_paths, workdir,
                                              threads, cache)
        refuse_unfit_build(info, record)
        metrics = select(values, "end_to_end")

    attempted, failed = int(record["attempted"]), int(record["failed"])
    run_record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": nproc, "threads": threads,
        "points_per_backend": points_per_backend(specs),
        "build": info, "probe": record,
    }
    with open(os.path.join(workdir, "record.json"), "w") as f:
        json.dump(run_record, f, indent=1)
    empty_run_dir(workdir)

    print("perfbench %s seed=%d trace=%d nproc=%d N=%d compiler=%s flags=%s" %
          (args.workload, args.seed, args.trace, nproc, threads, info["compiler"],
           (info["cxx_flags"] + " " + info["compile_options"]).strip()))
    print("points per backend: %s" % json.dumps(run_record["points_per_backend"]))
    for name, metric in metrics.items():
        print("  %-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-36s %14.6g (failed %d of %d attempted)" %
          ("fail_ratio", failed / attempted if attempted else 1.0, failed, attempted))
    for key in sorted(k for k in record if k.startswith("note")):
        print("  check: " + record[key])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
