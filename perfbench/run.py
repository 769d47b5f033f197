#!/usr/bin/env python3
"""The cadapt benchmark: build, run one workload, check outputs, print metrics.

Run from the root of a cadapt checkout:

    python3 perfbench/run.py --workload ratio --seed 1 --seconds 30 --trace 0

--trace 0 runs the `cadapt` program as users run it and prints the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the traced harness
(perfbench/trace.cpp) and prints the per-layer metrics. The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
Workloads, metric definitions and findings are in perfbench/NOTES.md.

Exit codes: 0 all outputs correct, 1 an output check failed (the result is
still printed), 2 the build or a set-up step failed (no result printed).
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
CLI = os.path.join(BUILD, "cadapt", "tools", "cadapt")
HARNESS = os.path.join(BUILD, "perfbench_trace")

# Manifests each workload runs (paths relative to the checkout root). The
# e4 copy is the benchmark's own trimmed grid; NOTES.md says why. Serving
# is interactive tenants on the first manifest, one batch tenant on the
# second. `serve` is not in BENCHMARK.json (its figures follow the host's
# disk, NOTES.md); the report workload's traced run serves the same mix so
# the serve layer is still measured.
SERVED = ["bench/manifests/chaos_gate.manifest",
          "bench/manifests/policy_gate.manifest"]
WORKLOADS = {
    "ratio": ["bench/manifests/e2_log_gap.manifest",
              "perfbench/manifests/e4_stopping_time_trimmed.manifest"],
    "sort": ["bench/manifests/e16_adaptive_vs_oblivious.manifest",
             "bench/manifests/policy_gate.manifest"],
    "serve": SERVED,
    "report": SERVED,
}
SMOKE_MANIFESTS = {**WORKLOADS,
                   "ratio": ["bench/manifests/chaos_gate.manifest"],
                   "sort": ["bench/manifests/policy_gate.manifest"]}
TRACED_SERVE_SECONDS = 5.0
REPORT_CELLS = 200_000
SMOKE_REPORT_CELLS = 2_000
# Set-ups per run; setup_s is their median.
SWEEP_SETUPS, SERVE_SETUPS, REPORT_SETUPS = 31, 15, 3
EMPTY_SHARDS = 1 << 20  # more shards than any grid has cells
J1_SHARDS = 4


class BenchError(Exception):
    """A build or set-up failure: no valid sample, no result printed."""


class SanitizerBuildError(BenchError):
    """The measured program was built with a sanitizer."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---- build and stamp ------------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    with open(log_path, "ab") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                raise BenchError("cmake configure failed (is this a cadapt "
                                 "checkout?)")
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "--target", "cadapt_cli",
             "perfbench_trace", "-j", jobs],
            stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log_path, errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        raise BenchError(f"build failed; see {log_path}")


def cache_sizes():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            def read(name):
                with open(os.path.join(base, entry, name)) as f:
                    return f.read().strip()
            kind = read("type")
            if kind == "Instruction":
                continue
            caches[f"L{read('level')}"] = read("size")
        except OSError:
            continue
    return caches


def check_stamp(version):
    """Refuse to record numbers from a sanitizer build."""
    flags = version.get("cxx_flags", "")
    if "-fsanitize" in flags:
        raise SanitizerBuildError(
            f"refusing to record numbers from a sanitizer build "
            f"(cxx_flags: {flags})")


def host_stamp():
    out = subprocess.run([CLI, "version", "--json"], capture_output=True,
                         text=True, check=True).stdout
    version = json.loads(out.strip().splitlines()[-1])
    check_stamp(version)
    return {"type": "perfbench_stamp", "nproc": os.cpu_count(),
            "caches": cache_sizes(), "loadavg_1m": os.getloadavg()[0],
            "cadapt": version}


# ---- process helpers ------------------------------------------------------

class Run:
    def __init__(self, wall, rc, rss_mb):
        self.wall, self.rc, self.rss_mb = wall, rc, rss_mb


def run_measured(cmd, stderr_log):
    """Run `cmd` to completion; wall time from spawn to exit, peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=stderr_log)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def run_harness(args, timeout=170):
    """Run perfbench_trace and parse its JSON metrics line."""
    proc = subprocess.run([HARNESS] + args, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench_trace {args[0]} printed nothing "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1]), proc.returncode


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def quantile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---- inputs ---------------------------------------------------------------

def seeded_manifest(src, dst, seed):
    """Copy a manifest with its seed offset by the workload seed."""
    out = []
    with open(os.path.join(ROOT, src)) as f:
        for line in f:
            key, sep, value = line.partition("=")
            if sep and key.strip() == "seed":
                line = f"seed = {int(value.split('#')[0]) + seed}\n"
            out.append(line)
    with open(dst, "w") as f:
        f.writelines(out)
    return dst


def report_trials(path):
    completed = failed = 0
    with open(path) as f:
        for line in f:
            event = json.loads(line)
            if event.get("type") == "sweep_cell":
                completed += event["completed"]
                failed += event["failed"]
    return completed, failed


# ---- workloads, untraced --------------------------------------------------

def sweep_workload(manifests, seconds, work, err):
    """ratio/sort: `cadapt sweep` at --jobs 4 and --jobs 1, repeated."""
    def sweep(manifest, jobs, out, extra=()):
        return run_measured([CLI, "sweep", manifest, "--jobs", str(jobs),
                             "--no-timing", "--out", out, *extra], err)

    setups = []
    for _ in range(SWEEP_SETUPS):
        total = 0.0
        for m in manifests:
            r = sweep(m, 1, os.path.join(work, "empty.jsonl"),
                      ("--shards", str(EMPTY_SHARDS), "--shard-index",
                       str(EMPTY_SHARDS - 1)))
            if r.rc != 0:
                raise BenchError(f"empty-shard sweep of {m} exited {r.rc}")
            total += r.wall
        setups.append(total)

    # The --jobs 1 reference of each manifest (also the warm-up). Host
    # noise comes in bursts of a second or two, so the --jobs 1 runs are
    # split into J1_SHARDS shards: more, shorter samples per run. The
    # shard reports are merged and compared with the reference each round.
    refs = []
    rss = 0.0
    for i, m in enumerate(manifests):
        refs.append(os.path.join(work, f"ref{i}.jsonl"))
        r = sweep(m, 1, refs[-1])
        if r.rc != 0:
            raise BenchError(f"reference sweep of {m} exited {r.rc}")
        rss = max(rss, r.rss_mb)
    counts = [report_trials(ref) for ref in refs]
    trials = sum(c for c, _ in counts)
    failed_trials = sum(f for _, f in counts)

    def check(out, ref, what):
        if read_bytes(out) != read_bytes(ref):
            log(f"{what} differs from the --jobs 1 reference")
            return 1
        return 0

    j4 = [[] for _ in manifests]  # per manifest: whole-sweep walls
    j1 = [[[] for _ in range(J1_SHARDS)] for _ in manifests]
    failed = attempted = rounds = 0
    t_end = time.perf_counter() + seconds
    while rounds < 3 or time.perf_counter() < t_end:
        for i, m in enumerate(manifests):
            # --jobs 4 walls spread more than --jobs 1 (the critical path
            # needs every core), so they get two samples per round.
            for _ in range(2):
                out = os.path.join(work, "out.jsonl")
                r = sweep(m, 4, out)
                j4[i].append(r.wall)
                rss = max(rss, r.rss_mb)
                failed += 1 if r.rc != 0 else check(out, refs[i],
                                                    f"{m} --jobs 4")
            parts = []
            for s in range(J1_SHARDS):
                parts.append(os.path.join(work, f"shard{s}.jsonl"))
                r = sweep(m, 1, parts[-1], ("--shards", str(J1_SHARDS),
                                            "--shard-index", str(s)))
                j1[i][s].append(r.wall)
                rss = max(rss, r.rss_mb)
                failed += r.rc != 0
            merged = os.path.join(work, "merged.jsonl")
            rc = subprocess.call([CLI, "sweep", "--merge", *parts, "--out",
                                  merged], stdout=subprocess.DEVNULL,
                                 stderr=err)
            failed += 1 if rc != 0 else check(merged, refs[i],
                                              f"{m} --jobs 1 shards")
        attempted += trials
        failed += failed_trials
        rounds += 1
    log(f"{rounds} rounds of {trials} trials")
    wall_j4 = sum(statistics.median(w) for w in j4)
    wall_j1 = sum(statistics.median(w) for per in j1 for w in per)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": trials / wall_j4,
        "baseline_throughput_per_s": trials / wall_j1,
        "latency_p50_s": wall_j4,
        "latency_p90_s": sum(quantile(w, 0.9) for w in j4),
        "peak_rss_mb": rss,
    }
    return metrics, attempted, failed


def hello(sock_path):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(5)
        s.connect(sock_path)
        s.sendall(b'{"type":"hello"}\n')
        line = s.makefile("rb").readline()
    return json.loads(line).get("type") == "serve_hello"


class Daemon:
    """A `cadapt serve --jobs 4` process on a fresh spool."""

    def __init__(self, work, tag, err):
        self.dir = os.path.join(work, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        # Relative to the checkout root: Unix socket paths are short.
        self.socket = os.path.relpath(os.path.join(self.dir, "d.sock"), ROOT)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--spool", os.path.join(self.dir, "spool"),
             "--socket", self.socket, "--jobs", "4", "--no-timing"],
            stdout=subprocess.DEVNULL, stderr=err)
        deadline = t0 + 60
        while True:
            try:
                if hello(self.socket):
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("cadapt serve never answered hello")
            time.sleep(0.001)
        self.setup_s = time.perf_counter() - t0

    def stop(self):
        """SIGTERM (SIGKILL after 30 s) and reap; returns (exit code, peak
        RSS in MB)."""
        if self.proc.returncode is not None:
            return self.proc.returncode, 0.0
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, usage.ru_maxrss / 1024.0


def serve_refs(manifests, work, err):
    """One-shot `cadapt sweep` of each served manifest: the references."""
    refs = []
    for i, m in enumerate(manifests):
        ref = os.path.join(work, f"serve_ref{i}.jsonl")
        r = run_measured([CLI, "sweep", m, "--jobs", "1", "--no-timing",
                          "--out", ref], err)
        if r.rc != 0:
            raise BenchError(f"one-shot sweep of {m} exited {r.rc}")
        refs.append(ref)
    return refs


def serve_session(manifests, refs, seconds, work, err, tag):
    """Closed-loop clients (perfbench_trace serve) against a daemon."""
    daemon = Daemon(work, tag, err)
    try:
        result, rc = run_harness(
            ["serve", "--interactive", manifests[0], "--interactive-ref",
             refs[0], "--batch", manifests[1], "--batch-ref", refs[1],
             "--seconds", str(seconds), "--dir", daemon.dir,
             "--socket", daemon.socket])
    finally:
        drc, rss = daemon.stop()
    return result, rc, drc, rss, daemon.setup_s


def serve_workload(manifests, seconds, work, err):
    refs = serve_refs(manifests, work, err)
    setups = []
    for i in range(SERVE_SETUPS):
        d = Daemon(work, f"setup{i}", err)
        setups.append(d.setup_s)
        d.stop()
    # No-daemon baseline: one process per job, like a user without serve.
    oneshot, failed = [], 0
    out = os.path.join(work, "oneshot.jsonl")
    t_end = time.perf_counter() + seconds / 6
    while len(oneshot) < 20 or time.perf_counter() < t_end:
        r = run_measured([CLI, "sweep", manifests[0], "--jobs", "1",
                          "--no-timing", "--out", out], err)
        oneshot.append(r.wall)
        if r.rc != 0 or read_bytes(out) != read_bytes(refs[0]):
            failed += 1
    result, rc, drc, rss, _ = serve_session(manifests, refs, seconds, work,
                                            err, "session")
    samples = int(result["rtt_samples"])
    if samples < 100:
        log(f"only {samples} interactive round trips: fewer than 10 beyond "
            f"p90")
    failed += int(result["failed"]) + (rc != 0) + (drc != 0)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": result["jobs_per_s"],
        "baseline_throughput_per_s": 1.0 / statistics.median(oneshot),
        "latency_p50_s": result["rtt_p50_s"],
        "latency_p90_s": result["rtt_p90_s"],
        "peak_rss_mb": rss,
    }
    return metrics, int(result["jobs"]) + len(oneshot), failed


def report_workload(cells, seed, seconds, work, err):
    """Merge a seeded 2-shard campaign: binary via `cadapt report merge`,
    JSONL via `cadapt sweep --merge`."""
    setups = []
    for _ in range(REPORT_SETUPS):
        t0 = time.perf_counter()
        _, rc = run_harness(["report", "--cells", str(cells), "--seed",
                             str(seed), "--dir", work, "--synth-only"])
        setups.append(time.perf_counter() - t0)
        if rc != 0:
            raise BenchError("report synthesis failed")
    shard = lambda ext: [os.path.join(work, f"shard{i}.{ext}") for i in (0, 1)]
    merged_bin = os.path.join(work, "merged.bin")
    merged_jsonl = os.path.join(work, "merged.jsonl")
    first = {}
    binary, jsonl, rss, failed = [], [], 0.0, 0

    def merge(kind):
        nonlocal rss, failed
        if kind == "bin":
            cmd = [CLI, "report", "merge", *shard("bin"), "--out", merged_bin,
                   "--format", "binary"]
            out, walls = merged_bin, binary
        else:
            cmd = [CLI, "sweep", "--merge", *shard("jsonl"), "--out",
                   merged_jsonl]
            out, walls = merged_jsonl, jsonl
        r = run_measured(cmd, err)
        walls.append(r.wall)
        rss = max(rss, r.rss_mb)
        if r.rc != 0:
            failed += 1
            return
        data = read_bytes(out)
        if first.setdefault(kind, data) != data:
            log(f"{kind} merge output changed between runs")
            failed += 1

    t_end = time.perf_counter() + seconds
    while len(jsonl) < 2 or time.perf_counter() < t_end:
        for _ in range(4):
            merge("bin")
        merge("jsonl")
    exported = os.path.join(work, "exported.jsonl")
    r = run_measured([CLI, "report", "export", merged_bin, "--out", exported],
                     err)
    if r.rc != 0 or read_bytes(exported) != read_bytes(merged_jsonl):
        log("export of the binary merge differs from the JSONL merge")
        failed += 1
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": cells / statistics.median(binary),
        "baseline_throughput_per_s": cells / statistics.median(jsonl),
        "latency_p50_s": statistics.median(binary),
        "latency_p90_s": quantile(binary, 0.9),
        "peak_rss_mb": rss,
    }
    return metrics, len(binary) + len(jsonl) + 1, failed


# ---- workloads, traced ----------------------------------------------------

def traced_serve(manifests, seconds, work, err):
    """A closed-loop session against an in-process daemon whose durable
    I/O goes through TimingIo."""
    refs = serve_refs(manifests, work, err)
    return run_harness(
        ["serve", "--interactive", manifests[0], "--interactive-ref", refs[0],
         "--batch", manifests[1], "--batch-ref", refs[1], "--seconds",
         str(seconds), "--dir", work])


def traced(workload, manifests, cells, seed, seconds, work, err):
    """Per-layer metrics from perfbench_trace; returns (metrics, attempted,
    failed, findings)."""
    serve_s = min(TRACED_SERVE_SECONDS, max(seconds / 2, 0.5))
    if workload in ("ratio", "sort"):
        result, rc = run_harness(["sweep", "--out-dir", work, *manifests])
        attempted = len(manifests)
    elif workload == "report":
        result, rc = run_harness(["report", "--cells", str(cells), "--seed",
                                  str(seed), "--dir", work])
        served, src = traced_serve(manifests, serve_s, work, err)
        for name, value in served.items():
            if name.startswith("robust."):
                result[name] += value
            elif name.startswith("serve.") or name in ("campaign.plan_s",
                                                        "failed"):
                result[name] = value
        rc = rc or src
        attempted = 1 + int(served["jobs"])
    else:
        refs = serve_refs(manifests, work, err)
        plain, prc, drc, _, _ = serve_session(manifests, refs, serve_s, work,
                                              err, "untraced")
        result, rc = traced_serve(manifests, serve_s, work, err)
        result["trace.overhead_frac"] = (
            plain["jobs_per_s"] / result["jobs_per_s"] - 1.0)
        rc = rc or prc or drc
        attempted = int(result["jobs"] + plain["jobs"])
    failed = int(result.get("mismatches", 0) + result.get("failed", 0)
                 + (rc != 0))
    return result, attempted, failed, result.get("findings", [])


# ---- main -----------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to every manifest seed; the report "
                        "synthesizer's seed (default 0: committed seeds)")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: checks the benchmark runs, measures "
                        "nothing")
    args = p.parse_args(argv)

    try:
        spec = load_spec()
        build()
        stamp = host_stamp()
    except (BenchError, OSError, subprocess.CalledProcessError,
            json.JSONDecodeError) as e:
        log(f"error: {type(e).__name__}: {e}")
        return 2
    print(json.dumps(stamp), flush=True)

    work = os.path.join(WORK, f"{args.workload}-t{args.trace}-s{args.seed}-"
                              f"p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sources = (SMOKE_MANIFESTS if args.smoke else WORKLOADS)[args.workload]
    manifests = [seeded_manifest(m, os.path.join(work, os.path.basename(m)),
                                 args.seed) for m in sources]
    cells = SMOKE_REPORT_CELLS if args.smoke else REPORT_CELLS
    findings = []
    try:
        with open(os.path.join(work, "stderr.log"), "ab") as err:
            if args.trace:
                measured, attempted, failed, findings = traced(
                    args.workload, manifests, cells, args.seed, args.seconds,
                    work, err)
                wanted = spec["per_layer"]
            elif args.workload == "report":
                measured, attempted, failed = report_workload(
                    cells, args.seed, args.seconds, work, err)
                wanted = spec["end_to_end"]
            elif args.workload == "serve":
                measured, attempted, failed = serve_workload(
                    manifests, args.seconds, work, err)
                wanted = spec["end_to_end"]
            else:
                measured, attempted, failed = sweep_workload(
                    manifests, args.seconds, work, err)
                wanted = spec["end_to_end"]
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        log(f"error: {type(e).__name__}: {e}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Layers a workload does not exercise read 0 (NOTES.md, per-layer table).
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    for finding in findings:
        print(f"finding: {finding}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
