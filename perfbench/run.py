#!/usr/bin/env python3
"""The repository benchmark: one private 1M-row release and two closed-loop
`boltondp serve` mixes, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload train_1m --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the library, the
`boltondp` CLI and the `perfbench` binary from source into .bench_build/.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones. Lines before it print every metric with its
unit and sample count, plus a run stamp.

Workloads (why each exists):
  train_1m     an offline private release in process: two-Gaussians m = 1e6,
               d = 50, b = 1, k = 2, shards = 4. The analyst's batch path on a
               ~400 MB working set; optim, random and data do all the work.
  serve_train  the daemon's write path with a small budget state: 16 tenants,
               every request a private bolt-on train on protein@0.05.
  serve_mix    reads beside writes over a 256-tenant budget state: 50% predict,
               10% budget read, 25% private aggregate, 15% private train.

End-to-end metrics (every workload reports all eight; units and bounds are
in BENCHMARK.json):
  rows_per_s     rows behind the completed operations per second: m per
                 release; the dataset rows of each successful train or
                 aggregate when serving.
  req_per_s      completed operations per second: releases, or successful
                 requests.
  write_p50_ms   median latency of the operations that charge budget: a
                 release; a train or aggregate, from connect to last byte.
  read_p50_ms    median latency of budget-free operations: scoring the
                 held-out rows with a released model; predicts and budget
                 reads on serve_mix; on serve_train, which sends no reads,
                 the per-tenant budget reads that follow the load.
  cpu_ms_per_op  user + system CPU per completed operation of the process
                 under test: perfbench for train_1m, the daemon when serving.
  setup_s        median set-up time: data generation, held-out split and
                 pool warm-up; or daemon spawn to listening plus one warm-up
                 train per tenant (every dataset synthesized).
  peak_rss_mb    VmHWM of the process under test.
  ok_share       operations that succeeded and passed their checks, over
                 the operations attempted.

Serve runs use the real daemon over loopback, driven by a compiled closed
loop of 4 callers that own disjoint tenants. Every set-up is a fresh daemon
on an empty state dir, and each measured daemon serves a fixed request count
(scaled by --seconds), because the daemon retains telemetry per request and
slows as it grows. The state dir is a private tmpfs mounted inside the
checkout (a mount namespace per daemon), so budget fsyncs run their full path
without the shared disk's latency; where mount namespaces are unavailable it
falls back to a plain directory, and the stamp names the filesystem.

Other modes: --repeat N runs the workload N times with seeds seed..seed+N-1
and prints each metric's median, quartiles and min-max; --smoke runs a tiny
configuration (see test_smoke.py); --corrupt-every N corrupts every Nth
response or model before it is checked, to show that the checks fire.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("train_1m", "serve_train", "serve_mix")

# Fixed work per run, scaled by --seconds so a run measures about that long
# at the seed commit but never depends on how fast the code under test is.
RELEASES_PER_S = 1.2
REQUESTS_PER_S = {"serve_train": 1000, "serve_mix": 500}
RELEASE_SETUPS = 3
# Fresh daemons per serve run: each is set up (setup_s is the median over
# all of them) and the last MEASURED serve the measured window; every other
# metric is the median over those.
SETUPS, MEASURED = 9, 2
READ_ROUNDS = {"serve_train": 16, "serve_mix": 0}
# Per-tenant budget large enough that no tenant of any workload runs out
# (kBudgetEpsilon / kBudgetDelta in bench.h).
SERVE_FLAGS = ["--budget-epsilon", "1e6", "--budget-delta", "0.5"]
SPAWN_TIMEOUT_S = 60


def metric_units(kind):
    """{name: unit} of BENCHMARK.json's "end_to_end" or "per_layer" list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return {m["name"]: m["unit"] for m in json.load(spec)[kind]}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "boltondp.cc"))):
        print("perfbench: no library sources next to perfbench/ "
              "(run from the root of a full checkout)", file=sys.stderr)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 1), "--target", "perfbench",
                      "boltondp"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                fail("build failed; see " + log.name)


def binary(name):
    return os.path.join(BUILD, name)


def last_json(text, what):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    fail(what + " printed no result")


class Scratch:
    """A per-run directory under .bench_build, removed at exit."""

    def __init__(self, tag):
        self.path = os.path.join(ROOT, ".bench_build", "runs",
                                 "%s-%d" % (tag, os.getpid()))
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self.count = 0

    def fresh(self, name):
        self.count += 1
        path = os.path.join(self.path, "%s-%d" % (name, self.count))
        os.makedirs(path)
        return path

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


def tmpfs_available(scratch):
    probe = scratch.fresh("probe")
    try:
        out = subprocess.run(
            ["unshare", "-m", "--propagation", "private", "sh", "-c",
             'mount -t tmpfs -o size=1m tmpfs "$0" && stat -f -c %T "$0"',
             probe], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return out.returncode == 0 and out.stdout.strip() == "tmpfs"


def on_tmpfs(cmd, state_dir, use_tmpfs):
    """Runs cmd with state_dir as a private tmpfs, when the host allows it."""
    if not use_tmpfs:
        return cmd
    return ["unshare", "-m", "--propagation", "private", "sh", "-c",
            'mount -t tmpfs -o size=256m tmpfs "$0" && exec "$@"',
            state_dir] + cmd


def filesystem_of(path):
    best, fstype = "", "unknown"
    with open("/proc/self/mountinfo") as mounts:
        for line in mounts:
            fields = line.split()
            mount_point = fields[4]
            kind = fields[fields.index("-") + 1]
            if (path == mount_point or path.startswith(
                    mount_point.rstrip("/") + "/")) and len(mount_point) > len(
                        best):
                best, fstype = mount_point, kind
    return fstype


def cpu_times():
    with open("/proc/stat") as stat:
        values = [float(v) for v in stat.readline().split()[1:9]]
    return values[7], sum(values)


def steal_between(before, after):
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


class Daemon:
    """A fresh `boltondp serve` on an empty state dir."""

    def __init__(self, scratch, use_tmpfs):
        self.state_dir = scratch.fresh("state")
        self.log = open(os.path.join(scratch.path, "daemon.log"), "a")
        cmd = on_tmpfs([binary("boltondp"), "serve", "--port", "0",
                        "--state-dir", self.state_dir] + SERVE_FLAGS,
                       self.state_dir, use_tmpfs)
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    SPAWN_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        self.listen_s = time.perf_counter() - start
        if "listening on 127.0.0.1:" not in line:
            self.stop()
            fail("daemon did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self):
        """SIGTERM drain; True when the daemon drained and exited 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=SPAWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.log.close()
        return self.proc.returncode == 0 and "serve drained" in out


def run_tool(cmd, what):
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        fail("%s exited %d" % (what, out.returncode))
    return last_json(out.stdout, what)


def version_stamp():
    line = subprocess.run([binary("boltondp"), "version"],
                          capture_output=True, text=True).stdout.strip()
    inner = line[line.find("(") + 1:line.rfind(")")].split(", ")
    stamp = {"build": line}
    if len(inner) == 5:
        stamp.update(git_sha=inner[0], simd=inner[3],
                     perf_tier=inner[4].replace("perf:", ""))
    return stamp


def train_1m(args, scratch, use_tmpfs):
    releases = max(2, round(RELEASES_PER_S * args.seconds))
    cmd = [binary("perfbench"), "train", "--seed", str(args.seed),
           "--releases", str(releases), "--setups", str(RELEASE_SETUPS),
           "--trace", str(args.trace),
           "--corrupt-every", str(args.corrupt_every)]
    if args.smoke:
        # At smoke size the calibrated noise dominates the model by design,
        # so only finiteness and dimension are checked.
        cmd += ["--m", "20000", "--heldout", "2000", "--setups", "1",
                "--traced-releases", "2", "--accuracy-floor", "0"]
    stamp = {"releases": releases}
    if args.trace:
        state = scratch.fresh("state")
        cmd += ["--state-dir", state, "--disk-dir", scratch.fresh("disk"),
                "--spans-out", os.path.join(scratch.path, "spans.jsonl")]
        cmd = on_tmpfs(cmd, state, use_tmpfs)
    before = cpu_times()
    res = run_tool(cmd, "perfbench train")
    stamp["steal_share"] = steal_between(before, cpu_times())
    stamp["min_accuracy"] = res["min_accuracy"]
    stamp["warmup_release_s"] = res["warmup_release_s"]
    samples = {"rows_per_s": res["attempted"], "req_per_s": res["attempted"],
               "write_p50_ms": res["attempted"],
               "read_p50_ms": res["read_n"], "cpu_ms_per_op": res["attempted"],
               "setup_s": 1 if args.smoke else RELEASE_SETUPS}
    checks = {"models": res["failed"] == 0}
    if args.trace:
        checks["replay_faithful"] = res["replay_faithful"] == 1
        stamp["spans"] = keep_spans(scratch, args)
        samples.update({"tail.write_p99_ms": res["tail.write_n"],
                        "tail.read_p99_ms": res["tail.read_n"]})
    e2e = {k: res[k] for k in ("rows_per_s", "req_per_s", "write_p50_ms",
                               "read_p50_ms", "cpu_ms_per_op", "setup_s",
                               "peak_rss_mb")}
    return dict(attempted=res["attempted"], failed=res["failed"], e2e=e2e,
                samples=samples, layers=res, checks=checks, stamp=stamp,
                attribution=[])


def keep_spans(scratch, args):
    kept = os.path.join(ROOT, ".bench_build", "traces",
                        "%s-seed%d.spans.jsonl" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(kept), exist_ok=True)
    shutil.copyfile(os.path.join(scratch.path, "spans.jsonl"), kept)
    return os.path.relpath(kept, ROOT)


def serve(args, scratch, use_tmpfs):
    w = args.workload
    requests = (200 if w == "serve_train" else 300) if args.smoke else int(
        REQUESTS_PER_S[w] * args.seconds)
    setups, measured = (1, 1) if (args.smoke or args.trace) else (SETUPS,
                                                                 MEASURED)
    load = [binary("perfbench"), "load", "--workload", w, "--seed",
            str(args.seed), "--read-rounds",
            str(READ_ROUNDS[w]), "--corrupt-every", str(args.corrupt_every)]
    if args.smoke:
        load.append("--smoke")
    setup_s, runs, drained, warm_ok = [], [], True, True
    for i in range(setups):
        daemon = Daemon(scratch, use_tmpfs)
        window = i >= setups - measured
        try:
            res = run_tool(load + ["--port", str(daemon.port), "--daemon-pid",
                                   str(daemon.proc.pid), "--requests",
                                   str(requests if window else 0)],
                           "perfbench load")
        finally:
            drained = daemon.stop() and drained
        setup_s.append(daemon.listen_s + res["warmup_s"])
        warm_ok = warm_ok and res["warmup_ok"] == 1 and res[
            "reconcile_mismatches"] == 0
        if window:
            runs.append(res)

    def median(key):
        return statistics.median(run[key] for run in runs)

    def total(key):
        return int(sum(run[key] for run in runs))

    # serve_train sends no reads; its reads are the budget reads that
    # follow the load.
    reads = "read" if w == "serve_mix" else "reconcile"
    e2e = {name: median(name) for name in
           ("rows_per_s", "req_per_s", "write_p50_ms", "cpu_ms_per_op",
            "peak_rss_mb")}
    e2e["read_p50_ms"] = median(reads + "_p50_ms")
    e2e["setup_s"] = statistics.median(setup_s)
    ok = total("ok")
    samples = {"rows_per_s": ok, "req_per_s": ok,
               "write_p50_ms": total("write_n"),
               "read_p50_ms": total(reads + "_n"), "cpu_ms_per_op": ok,
               "setup_s": setups}
    checks = {"warmup": warm_ok,
              "responses": total("failed") == 0,
              "budget_reconciliation": total("reconcile_mismatches") == 0,
              "sigterm_drain": drained}
    stamp = {"requests": requests, "daemons": setups, "measured": measured,
             "tenants": runs[0]["tenants"], "callers": runs[0]["callers"],
             "steal_share": median("steal_share")}
    layers, attribution = {}, []
    if args.trace:
        res = runs[0]
        layers = {
            "obs.retained_kb_per_req": res["retained_kb_per_req"],
            "tail.write_p99_ms": res["write_p99_ms"],
            "tail.read_p99_ms": res[reads + "_p99_ms"],
            "serve.reserves": res["serve_budget_reserves"],
            "serve.commits": res["serve_budget_commits"],
            "serve.refusals": res["serve_budget_refusals"],
            "serve.persist_retries": res["serve_persist_retries"],
            "serve.persist_errors": res["serve_persist_errors"],
        }
        samples.update({"tail.write_p99_ms": res["write_n"],
                        "tail.read_p99_ms": res[reads + "_n"]})
        state = scratch.fresh("state")
        cmd = [binary("perfbench"), "layers", "--workload", w, "--seed",
               str(args.seed), "--requests", str(100 if args.smoke else 2000),
               "--state-dir", state, "--disk-dir", scratch.fresh("disk"),
               "--spans-out", os.path.join(scratch.path, "spans.jsonl")]
        if args.smoke:
            cmd.append("--smoke")
        replay = run_tool(on_tmpfs(cmd, state, use_tmpfs), "perfbench layers")
        checks["replay_faithful"] = replay["replay_faithful"] == 1
        layers.update(replay)
        stamp["spans"] = keep_spans(scratch, args)
        http_ms = replay["obs.http_roundtrip_us"] / 1e3
        for kind in ("write", "read"):
            p50 = e2e[kind + "_p50_ms"]
            stages = replay.get("replay.%s_stage_sum_ms" % kind)
            if stages is None:
                attribution.append(
                    "%s: end-to-end p50 %.3f ms = http round trip %.3f ms + "
                    "unattributed %.3f ms (account lookup, rendering and "
                    "handler wake-up; this mix replays no %ss)" %
                    (kind, p50, http_ms, p50 - http_ms, kind))
                continue
            attribution.append(
                "%s: end-to-end p50 %.3f ms = replayed stages %.3f ms + http "
                "round trip %.3f ms + unattributed %.3f ms (waiting for a "
                "handler thread and for the budget mutex under %d callers, "
                "response rendering, request bookkeeping)" %
                (kind, p50, stages, http_ms, p50 - stages - http_ms,
                 res["callers"]))
    return dict(attempted=total("attempted"), failed=total("failed"),
                e2e=e2e, samples=samples, layers=layers, checks=checks,
                stamp=stamp, attribution=attribution)


def run_once(args):
    build()
    scratch = Scratch(args.workload)
    try:
        use_tmpfs = args.workload != "train_1m" or args.trace
        use_tmpfs = use_tmpfs and tmpfs_available(scratch)
        run = (train_1m if args.workload == "train_1m" else serve)(
            args, scratch, use_tmpfs)
    finally:
        scratch.close()
    attempted, failed = int(run["attempted"]), int(run["failed"])
    run["e2e"]["ok_share"] = (attempted - failed) / attempted
    run["samples"]["ok_share"] = attempted

    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "nproc": os.cpu_count(),
             "state_fs": "tmpfs (private mount)" if use_tmpfs else
             filesystem_of(os.path.join(ROOT, ".bench_build"))}
    stamp.update(version_stamp())
    stamp.update(run["stamp"])
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, ok in sorted(run["checks"].items()):
        print("check %-22s %s" % (name, "pass" if ok else "FAIL"))
    for line in run["attribution"]:
        print("attribution " + line)

    names = metric_units("per_layer" if args.trace else "end_to_end")
    values = run["layers"] if args.trace else run["e2e"]
    missing = sorted(set(names) - set(values))
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    metrics = {}
    for name, unit in names.items():
        n = run["samples"].get(name)
        print("metric %-30s %16.6g %-6s%s" % (
            name, values[name], unit, "" if n is None else "  (n=%d)" % n))
        metrics[name] = {"value": values[name], "unit": unit}
    correct = all(run["checks"].values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def repeat(args):
    """Runs the workload args.repeat times and summarizes each metric."""
    values = {}
    for i in range(args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed + i), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr[-4000:])
            fail("run %d exited %d" % (i, out.returncode))
        result = last_json(out.stdout, "run %d" % i)
        if not result["correct"]:
            fail("run %d (seed %d) failed its checks" % (i, args.seed + i))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    print("%-30s %12s %12s %12s %12s %12s %8s" % (
        "metric", "median", "q1", "q3", "min", "max", "iqr/med"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(vals),
                         "max": max(vals), "iqr_share": spread, "n": len(vals)}
        print("%-30s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f" % (
            name, statistics.median(vals), q1, q3, min(vals), max(vals),
            spread))
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "summary": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-every", type=int, default=0)
    args = parser.parse_args()
    if args.repeat > 1:
        build()
        repeat(args)
    else:
        run_once(args)


if __name__ == "__main__":
    main()
