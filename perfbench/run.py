#!/usr/bin/env python3
"""Host-speed benchmark of Redoop's recurring queries.

    python3 perfbench/run.py --workload agg-budget --seed 1 --seconds 45 \
        --trace 0

Builds perfbench_episode from ../src on first use (into .bench_build/), then
runs one workload: a reference process computes every window's expected
output digest with an independent oracle, and timed episodes, each a fresh
process, run the recurring query through RedoopDriver until --seconds have
been spent on them. Their steady windows are pooled, every window's digest
is matched against the reference, and one JSON object is printed as the
last line of stdout.

Every host time is reported at a fixed reference speed of the host (see
PROBE_REF_S). --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced episodes and reports the per-layer metrics. Each episode's raw
output, and each traced episode's span dump, is kept under .bench_out/.
--self-test checks that a corrupted output row is caught.
See perfbench/RATIONALE.md for the workloads and the metric definitions.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EPISODE = os.path.join(BUILD_DIR, "perfbench_episode")

# Windows per episode; the leading windows excluded as warm-up (agg: the
# cold window maps the whole window; join: window 1 also builds every
# in-window pane pair once); and how often each episode times its explain
# stage (join-pairs fits only 3 episodes into a run, agg-budget about 5), so
# that a run times it 9 or about 10 times.
PLANS = {
    "agg-budget": {"windows": 16, "warmup": 1, "explain_repeats": 2},
    "join-pairs": {"windows": 14, "warmup": 2, "explain_repeats": 3},
}
# The tail percentile reported for host window time. It needs at least
# 10 pooled steady windows beyond it, so every run holds enough episodes for
# TAIL_MIN_SAMPLES steady windows, even if that takes longer than --seconds.
TAIL_DECILE = 7
TAIL_NAME = "window_host_s.p70"
TAIL_MIN_SAMPLES = 34
# The host changes speed by up to half over minutes, so perfbench_episode
# times a fixed speed probe between every two timed steps, and each host time
# t is reported as t * PROBE_REF_S / probe_s, with probe_s the mean probe time
# just before and after it: the time the step would have taken on a host on
# which the probe takes PROBE_REF_S. This constant is a typical probe time on
# the host the benchmark was defined on (4-core Xeon KVM guest, where run
# medians ranged 0.026-0.040 s), so the figures read close to wall seconds
# there.
PROBE_REF_S = 0.030
# A run must finish within 180 s: every process is killed once the run has
# spent this long, and the windows it did not report count as failed.
RUN_DEADLINE_S = 165

# Values every episode of one seed must repeat exactly.
SAME_PER_WINDOW = ("digest", "sim_response_s", "sim_shuffle_s",
                   "sim_reduce_s", "jobs", "events", "rows", "pair_path")
SAME_PER_TRACED_WINDOW = ("feed_calls", "map_calls", "reduce_calls",
                          "reduce_units", "combine_calls")
SAME_PER_EPISODE = ("journal_events", "journal_bytes", "pane_hits",
                    "pane_misses", "pair_hits", "pair_misses", "evictions",
                    "evicted_bytes", "peak_bytes", "rebuilds", "map_local",
                    "map_remote", "jobs", "tasks", "task_failures",
                    "dfs_read_bytes", "windows_completed", "trace_spans")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_episode",
              "-j", jobs]]
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed (%s)" % " ".join(cmd))
                return False
    return os.path.exists(EPISODE)


class Episode:
    """One perfbench_episode process: its parsed output lines, exit code and
    peak RSS (measured from outside, by wait4)."""

    def __init__(self, workload, seed, windows, stem, deadline, traced=False,
                 reference=False, corrupt_window=-1):
        cmd = [EPISODE, "--workload=" + workload, "--seed=%d" % seed,
               "--windows=%d" % windows,
               "--explain-repeats=%d" % PLANS[workload]["explain_repeats"]]
        if reference:
            cmd.append("--reference")
        if traced:
            cmd.append("--traced")
            cmd.append("--spans-out=" + stem + ".spans.jsonl")
        if corrupt_window >= 0:
            cmd.append("--corrupt-window=%d" % corrupt_window)
        os.makedirs(OUT_DIR, exist_ok=True)
        env = dict(os.environ, REDOOP_LOG_LEVEL="error")
        with open(stem + ".stderr", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=env)
            timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                text = proc.stdout.read().decode("utf-8", "replace")
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                proc.stdout.close()
        with open(stem + ".jsonl", "w") as f:
            f.write(text)
        lines = []
        for raw in text.splitlines():
            try:
                lines.append(json.loads(raw))
            except ValueError:
                pass
        of = lambda t: [l for l in lines if l.get("type") == t]
        self.code = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.planned = windows
        self.traced = traced
        self.setups = of("setup")
        self.setup = (self.setups or [None])[0]
        self.summary = (of("summary") or [None])[0]
        self.explains = of("explain")
        self.windows = of("reference" if reference else "window")
        self.complete = (self.code == 0 and self.setup is not None and
                         len(self.windows) == windows and
                         (reference or self.summary is not None))
        if not self.complete:
            log("perfbench: %s ended early (exit %d, %d/%d windows)" %
                (os.path.basename(stem), self.code, len(self.windows),
                 windows))


def at_ref(line, key, probe_key="probe_s"):
    """line[key], a host time in seconds, at the reference host speed."""
    return line[key] * PROBE_REF_S / line[probe_key]


# The explain stages, each timed and probed on its own by perfbench_episode.
EXPLAIN_STAGES = ("serialize", "parse", "analysis", "trace_build", "slo")


def explain_at_ref(line, stage=None):
    """One explain stage's time, or with no stage the whole pass's, at the
    reference host speed."""
    return sum(at_ref(line, s + "_s", s + "_probe_s")
               for s in ([stage] if stage else EXPLAIN_STAGES))


def decile(values, k):
    """The k-th decile, linearly interpolated between samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def ratio(num, den):
    return num / den if den else 0.0


def run_workload(args):
    plan = PLANS[args.workload]
    windows = plan["windows"]
    min_episodes = max(2, math.ceil(TAIL_MIN_SAMPLES /
                                    (windows - plan["warmup"])))
    stem = os.path.join(OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
    deadline = time.monotonic() + RUN_DEADLINE_S
    ref = Episode(args.workload, args.seed, windows, stem + "-reference",
                  deadline, reference=True)
    # Episodes follow one another until --seconds have been spent on them:
    # another starts only if one of median length still ends in time. One
    # that ends early ends the run, since every episode repeats the same
    # inputs. A traced run alternates untraced and traced episodes.
    eps, lengths = [], []
    start = time.monotonic()
    while (len(eps) < min_episodes or
           time.monotonic() - start + statistics.median(lengths) <=
           args.seconds):
        i = len(eps)
        began = time.monotonic()
        eps.append(Episode(args.workload, args.seed, windows,
                           stem + "-ep%d" % i, deadline,
                           traced=bool(args.trace) and i % 2 == 1))
        lengths.append(time.monotonic() - began)
        if not eps[-1].complete:
            break
    log("perfbench: %d episodes in %.1f s" % (len(eps),
                                             time.monotonic() - start))
    return evaluate(args.trace, ref, eps, plan["warmup"])


def evaluate(trace, ref, eps, warmup):
    problems = []
    expected = [w["digest"] for w in ref.windows] if ref.complete else []
    if not ref.complete:
        problems.append("the reference process failed")
    elif not all(w["digest_sound"] for w in ref.windows):
        problems.append("the digest missed an altered row")
    attempted = sum(e.planned for e in eps)
    ok = sum(1 for e in eps for w in e.windows
             if w["window"] < len(expected) and
             w["digest"] == expected[w["window"]])
    if ok < attempted:
        problems.append("%d of %d windows failed" % (attempted - ok,
                                                     attempted))

    complete = [e for e in eps if e.complete]
    if len(complete) < len(eps):
        problems.append("%d episodes ended early" % (len(eps) - len(complete)))
    first = complete[0] if complete else None
    for e in complete[1:]:
        for a, b in zip(first.windows, e.windows):
            problems += ["window %d: %s differs between episodes" %
                         (a["window"], k)
                         for k in SAME_PER_WINDOW if a[k] != b[k]]
        problems += ["%s differs between episodes" % k
                     for k in SAME_PER_EPISODE
                     if first.summary[k] != e.summary[k]]
    traced = [e for e in complete if e.traced]
    for e in traced[1:]:
        for a, b in zip(traced[0].windows, e.windows):
            problems += ["traced %s differs between episodes" % k
                         for k in SAME_PER_TRACED_WINDOW if a[k] != b[k]]
    for e in complete:
        if ref.complete and e.setup["records"] != ref.setup["records"]:
            problems.append("generated inputs differ between processes")
        if not all(x["explained"] for x in e.explains):
            problems.append("the journal could not explain the run")
        if e.traced and not all(w["spans_contained"] for w in e.windows):
            problems.append("a child span lies outside its window span")

    # Every set-up of the run: each episode's and the reference's several.
    setups = [s for p in complete + [ref] if p.complete for s in p.setups]
    metrics = {}
    if trace and traced and len(traced) < len(complete):
        metrics = layer_metrics(complete, warmup, setups)
    elif not trace and complete:
        metrics = end_to_end_metrics(complete, warmup, ok / attempted,
                                     statistics.median(at_ref(s, "setup_s")
                                                       for s in setups))
    for p in sorted(set(problems)):
        log("perfbench: " + p)
    return {"correct": not problems, "attempted": attempted,
            "failed": attempted - ok, "metrics": metrics}


def steady_windows(eps, warmup):
    return [w for e in eps for w in e.windows if w["window"] >= warmup]


def end_to_end_metrics(eps, warmup, ok_frac, setup_s):
    steady = steady_windows(eps, warmup)
    host = [at_ref(w, "host_s") for w in steady]
    # Simulated times repeat exactly in every episode; take the first's.
    sim = [w["sim_response_s"] for w in steady_windows(eps[:1], warmup)]
    log("perfbench: %d steady windows from %d episodes" % (len(host),
                                                          len(eps)))
    m = {
        "window_host_s.p50": (statistics.median(host), "s"),
        TAIL_NAME: (decile(host, TAIL_DECILE), "s"),
        "records_per_host_s": (sum(w["fresh_records"] for w in steady) /
                               sum(host), "1/s"),
        "sim_response_s.p50": (statistics.median(sim), "s"),
        "sim_response_s.p90": (decile(sim, 9), "s"),
        # A mean, not a median: a pass's time falls into two modes (its
        # parse stage runs either fast or about a third slower), and a
        # median over a run's 9 or 10 passes jumps between them.
        "explain_s": (statistics.mean(explain_at_ref(x) for e in eps
                                      for x in e.explains), "s"),
        "peak_rss_mb": (statistics.median(e.rss_mb for e in eps), "MB"),
        "setup_s": (setup_s, "s"),
        "windows_ok_frac": (ok_frac, "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def layer_metrics(eps, warmup, setups):
    plain = [e for e in eps if not e.traced]
    traced = [e for e in eps if e.traced]
    tw = steady_windows(traced, warmup)
    # Counts repeat exactly in every episode; take them from the first
    # traced one, as per-steady-window means or episode totals.
    fw = steady_windows(traced[:1], warmup)
    s = traced[0].summary
    per_window = lambda key: sum(w[key] for w in fw) / len(fw)
    med = lambda values: statistics.median(list(values))
    explain = lambda stage: med(explain_at_ref(x, stage) for e in eps
                                for x in e.explains)
    window = lambda key: med(at_ref(w, key) for w in tw)
    m = {
        "workload.gen_s": (med(at_ref(x, "gen_s") for x in setups), "s"),
        "workload.records": (traced[0].setup["records"], "count"),
        "workload.feed_s": (window("feed_s"), "s"),
        "queries.map.calls": (per_window("map_calls"), "count"),
        "queries.map_s": (window("map_s"), "s"),
        "queries.reduce.groups": (per_window("reduce_calls"), "count"),
        "queries.reduce.values": (per_window("reduce_units"), "count"),
        "queries.reduce_s": (window("reduce_s"), "s"),
        "core.window.self_s.p50": (window("self_s"), "s"),
        "core.window.cold_s": (med(at_ref(e.windows[0], "host_s")
                                   for e in traced), "s"),
        "core.cache.pane_hit_rate": (
            ratio(s["pane_hits"], s["pane_hits"] + s["pane_misses"]),
            "fraction"),
        "core.cache.evictions": (s["evictions"], "count"),
        "core.cache.evicted_gb": (s["evicted_bytes"] / 1e9, "GB"),
        "core.cache.rebuilds": (s["rebuilds"], "count"),
        "core.cache.peak_gb": (s["peak_bytes"] / 1e9, "GB"),
        "core.cache.pair_hit_rate": (
            ratio(s["pair_hits"], s["pair_hits"] + s["pair_misses"]),
            "fraction"),
        "core.join.pair_windows_frac": (per_window("pair_path"), "fraction"),
        "core.sched.map_local_frac": (
            ratio(s["map_local"], s["map_local"] + s["map_remote"]),
            "fraction"),
        "exec.offload_frac": (ratio(sum(w["offload_s"] for w in tw),
                                    sum(w["payload_s"] for w in tw)),
                              "fraction"),
        "mapreduce.jobs": (s["jobs"], "count"),
        "mapreduce.tasks": (s["tasks"], "count"),
        "mapreduce.task_failures": (s["task_failures"], "count"),
        "mapreduce.sim_shuffle_s": (per_window("sim_shuffle_s"), "s"),
        "mapreduce.sim_reduce_s": (per_window("sim_reduce_s"), "s"),
        "dfs.read_gb": (s["dfs_read_bytes"] / 1e9, "GB"),
        "obs.journal.events": (s["journal_events"], "count"),
        "obs.journal.mb": (s["journal_bytes"] / 1e6, "MB"),
        "obs.journal.serialize_s": (explain("serialize"), "s"),
        "obs.journal.parse_s": (explain("parse"), "s"),
        "obs.analysis_s": (explain("analysis"), "s"),
        "obs.trace_build_s": (explain("trace_build"), "s"),
        "obs.slo_s": (explain("slo"), "s"),
        "trace.overhead_frac": (
            window("host_s") /
            med(at_ref(w, "host_s") for w in steady_windows(plain, warmup)) -
            1.0, "fraction"),
        # The host's own speed, and the untraced window time as measured.
        "bench.probe_s": (med(w["probe_s"] for e in eps for w in e.windows),
                          "s"),
        "bench.window_wall_s.p50": (
            med(w["host_s"] for w in steady_windows(plain, warmup)), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def self_test(seed):
    """A corrupted row in one window must lower windows_ok_frac."""
    windows, warmup = 4, 1
    stem = os.path.join(OUT_DIR, "self-test-seed%d" % seed)
    deadline = time.monotonic() + RUN_DEADLINE_S
    ref = Episode("agg-budget", seed, windows, stem + "-reference", deadline,
                  reference=True)
    clean = Episode("agg-budget", seed, windows, stem + "-clean", deadline)
    bad = Episode("agg-budget", seed, windows, stem + "-corrupt", deadline,
                  corrupt_window=2)
    before = evaluate(0, ref, [clean], warmup)
    after = evaluate(0, ref, [clean, bad], warmup)
    frac = lambda r: r["metrics"]["windows_ok_frac"]["value"]
    passed = (before["correct"] and frac(before) == 1.0 and
              not after["correct"] and after["failed"] == 1 and
              frac(after) < 1.0)
    print("self-test: windows_ok_frac %.4f clean, %.4f with one corrupted "
          "row -> %s" % (frac(before), frac(after),
                         "PASS" if passed else "FAIL"))
    return 0 if passed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test(args.seed)
    result = run_workload(args)
    if not result["metrics"]:
        log("perfbench: no complete episode, so no metrics")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
