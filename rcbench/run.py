#!/usr/bin/env python3
"""Benchmark driver for the reactive-circuits simulator.

    python3 rcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds rcbench/runner.cpp and the simulator sources into .bench_build/ (first
run only), then runs the named workload again and again, one fresh child
process at a time, for S seconds after one untimed warm-up child. Every
child builds its inputs from --seed, so all children of one run must report
the same result digest.

--trace 0 prints the end-to-end metrics (medians over blocks of children, measured
with tracing off). --trace 1 runs the same untraced children, then one traced
child (spans around every phase and each of many measure windows), one
re-run at the other shard count and one re-run with RC_CHECK toggled, and
prints the per-layer metrics; its spans go to a Chrome trace-event file in
.bench_build/traces/.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit codes: 0 = ran and every output check passed, 1 = build failure or a
failed run (the JSON is still printed after a failed run), 2 = bad usage.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "rcbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD_DIR, "rcbench-run")

# A run must finish well inside the 180 s a benchmark run is allowed.
RUN_DEADLINE_S = 170.0
# Measure windows of the traced child: enough that the tail percentile
# (the highest one with >= 10 windows beyond it) is p95.
TRACE_WINDOWS = 200
# A shared host's speed flips between two levels every second or so (the
# 1 ms SyntheticTraffic constructor reads ~1.1 or ~1.6 ms), so a median over
# single children jumps between the levels from run to run. Each reported
# end-to-end value is the median over BLOCKS consecutive groups of children
# of the group's total work / total time; every group spans many flips.
BLOCKS = 5


@dataclass(frozen=True)
class Workload:
    kind: str  # "system" (full CMP) or "synthetic" (raw NoC traffic)
    side: int  # mesh side; side * side tiles
    shards: int
    warmup: int  # simulated cycles
    measure: int  # simulated cycles
    rate: float = 0.0
    service: int = 0
    partition_side: int = 0
    setup_reps: int = 1  # setups per child, all counted in setup_s
    env: dict = field(default_factory=dict)


# Why each was chosen is in BENCHMARK.json and rcbench/RECORD.json.
WORKLOADS = {
    "fft_8x8": Workload("system", 8, 1, 10_000, 40_000),
    "loaded_noc_16x16": Workload("synthetic", 16, 2, 2_000, 6_000,
                                 rate=0.04, service=7, setup_reps=15),
    "fft_8x8_checked": Workload("system", 8, 1, 10_000, 40_000,
                                env={"RC_CHECK": "1"}),
}

# (name, unit): must match BENCHMARK.json (rcbench/selftest.py checks).
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("sim.construct_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.measure_s", "s"),
    ("sim.report_s", "s"),
    ("sim.window_ms_p50", "ms"),
    ("sim.window_ms_tail", "ms"),
    ("sim.check_slowdown", "ratio"),
    ("sim.trace_overhead_pct", "%"),
    ("coherence.prewarm_s", "s"),
    ("coherence.l1_miss_ratio", "ratio"),
    ("coherence.l2_hits", "count"),
    ("coherence.l2_req_blocked", "count"),
    ("coherence.invs_sent", "count"),
    ("coherence.replies_eliminated", "count"),
    ("noc.construct_s", "s"),
    ("noc.host_ns_per_link_flit", "ns"),
    ("noc.link_flits", "count"),
    ("noc.flits_injected", "count"),
    ("noc.va_ops", "count"),
    ("noc.sa_ops", "count"),
    ("noc.buf_writes", "count"),
    ("noc.req_latency_cycles", "cycles"),
    ("noc.reply_latency_cycles", "cycles"),
    ("circuits.reservations", "count"),
    ("circuits.conflict_fails", "count"),
    ("circuits.entries_undone", "count"),
    ("circuits.fwd_flits", "count"),
    ("circuits.use_ratio", "ratio"),
    ("cpu.retired_instr", "count"),
    ("cpu.mem_ops", "count"),
    ("cpu.stall_cycles", "count"),
    ("cpu.ipc", "instr/cycle"),
    ("cpu.sim_kips", "kinstr/s"),
    ("memory.reads", "count"),
    ("memory.writebacks", "count"),
    ("common.shard_speedup", "ratio"),
]

# Variables that change what a child simulates or attaches; every child
# starts without any RC_* variable except what its workload sets.
SCRUBBED_PREFIX = "RC_"


class UsageError(Exception):
    pass


class ArgParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_args(argv):
    p = ArgParser(prog="rcbench/run.py", add_help=False)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args(argv)
    if not a.seed.isdigit() or int(a.seed) >= 2**62:
        raise UsageError(f"--seed must be a non-negative integer, got {a.seed!r}")
    if not a.seconds.isdigit() or not 1 <= int(a.seconds) <= 120:
        raise UsageError(f"--seconds must be an integer in 1..120, got {a.seconds!r}")
    a.seed = int(a.seed)
    a.seconds = int(a.seconds)
    a.trace = a.trace == "1"
    return a


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build -----------------------------------------------------------------

def build():
    """Configure (once) and build the runner; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log(f"rcbench: build step failed ({r.returncode}): {' '.join(cmd)}")
            return False
    return os.path.exists(RUNNER)


# ---- one child run ---------------------------------------------------------

@dataclass
class Sample:
    label: str
    spawn_ns: int
    exit_ns: int = 0
    result: dict = None
    rss_kb: int = 0
    error: str = ""

    @property
    def ok(self):
        return not self.error

    @property
    def wall_s(self):
        """Child process start -> statistics extracted."""
        return (self.result["t_extracted"] - self.spawn_ns) * 1e-9

    def phase(self, name):
        return self.result["phases"].get(name, 0.0)


def child_argv(w, seed, windows=0):
    argv = [RUNNER, "--kind", w.kind, "--side", str(w.side),
            "--seed", str(seed), "--shards", str(w.shards),
            "--warmup", str(w.warmup), "--measure", str(w.measure),
            "--setup-reps", str(w.setup_reps)]
    if w.kind == "synthetic":
        argv += ["--rate", repr(w.rate), "--service", str(w.service)]
    if w.partition_side:
        argv += ["--partition-side", str(w.partition_side)]
    if windows:
        argv += ["--windows", str(windows)]
    return argv


def child_env(w):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(SCRUBBED_PREFIX)}
    env.update(w.env)
    return env


def run_child(w, seed, label, deadline, windows=0):
    """Run one workload child; never raises for a failing child."""
    log_dir = os.path.join(BUILD_DIR, "logs")
    os.makedirs(log_dir, exist_ok=True)
    err_path = os.path.join(log_dir, f"{label}.stderr")
    s = Sample(label, time.monotonic_ns())
    with open(err_path, "wb") as err:
        p = subprocess.Popen(child_argv(w, seed, windows), env=child_env(w),
                             stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:  # e.g. SystemExit from SIGTERM: reap the child
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
            p.stdout.close()
        p.returncode = os.waitstatus_to_exitcode(status)
    s.exit_ns = time.monotonic_ns()
    s.rss_kb = ru.ru_maxrss
    try:
        s.result = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        s.result = None
    s.error = classify(w, s, p.returncode, err_path)
    return s


def classify(w, s, code, err_path):
    """Failure reason of a finished child ('' when it succeeded)."""
    r = s.result
    if r is not None and not r.get("ok", False):
        return f"run failed: {r.get('error', '?')}"
    if code != 0:
        tail = ""
        try:
            with open(err_path, errors="replace") as f:
                tail = f.read().strip().splitlines()[-1:]
        except OSError:
            pass
        how = f"signal {-code}" if code < 0 else f"exit {code}"
        return f"child {how}" + (f": {tail[0]}" if tail else "")
    if r is None:
        return "child printed no result"
    if w.kind == "system" and r["retired"] == 0:
        return "zero retired instructions"
    if w.kind == "synthetic" and r["requests"] == 0:
        return "zero requests"
    if r["tick_mode"] != "Activity":
        return f"tick mode {r['tick_mode']} (environment not scrubbed?)"
    if r["shards"] != w.shards:
        return f"ran {r['shards']} shards, workload asks {w.shards}"
    if r["checked"] != ("RC_CHECK" in w.env):
        return "RC_CHECK state differs from the workload's"
    return ""


# ---- statistics ------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_value(values, beyond=10):
    """Highest percentile with at least `beyond` samples above it."""
    v = sorted(values)
    if len(v) <= beyond:
        return v[-1], 1.0
    return v[len(v) - beyond - 1], (len(v) - beyond) / len(v)


# ---- the run ---------------------------------------------------------------

class Run:
    def __init__(self, name, seed, seconds):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.t0_ns = time.monotonic_ns()  # origin of the trace's timestamps
        self.deadline = self.start + RUN_DEADLINE_S
        self.samples = []  # every child started, in order
        self.failures = []

    def child(self, label, w=None, windows=0):
        s = run_child(w or self.w, self.seed, label, self.deadline, windows)
        self.samples.append(s)
        if s.ok:
            ref = self.reference_digest()
            if s.result["digest"] != ref:
                s.error = (f"digest {s.result['digest']} differs from "
                           f"{ref} of the first run")
        if not s.ok:
            self.failures.append(f"{s.label}: {s.error}")
            log(f"rcbench: FAILED {s.label}: {s.error}")
        return s

    def reference_digest(self):
        for s in self.samples:
            if s.ok and s.result is not None:
                return s.result["digest"]
        return None

    def untraced(self):
        """Children with tracing off, back to back, for --seconds, after one
        untimed child that warms the host (page cache, CPU caches, clock)."""
        if not self.child("warmup").ok:
            return []
        start = time.monotonic()
        out = []
        while True:
            s = self.child(f"u{len(out)}")
            if not s.ok:
                break
            out.append(s)
            elapsed = time.monotonic() - start
            per = elapsed / len(out)
            if elapsed + per > self.seconds:
                break
        return out


def end_to_end(w, good):
    """(work, time) of every child, per end-to-end metric."""
    return {
        "wall_s": [(s.wall_s, 1) for s in good],
        "setup_s": [(sum(s.result["setup_reps_s"]),
                     len(s.result["setup_reps_s"])) for s in good],
        "sim_cycles_per_s": [(w.measure, s.phase("measure")) for s in good],
        "peak_rss_mb": [(s.rss_kb / 1024.0, 1) for s in good],
    }


def block_median(pairs):
    """Median over BLOCKS consecutive groups of sum(work) / sum(time)."""
    k = min(BLOCKS, len(pairs))
    groups = [pairs[i * len(pairs) // k:(i + 1) * len(pairs) // k]
              for i in range(k)]
    return statistics.median(sum(n for n, _ in g) / sum(d for _, d in g)
                             for g in groups)


def print_end_to_end(name, series, good):
    print(f"rcbench {name}: {len(good)} untraced runs in "
          f"{min(BLOCKS, len(good))} blocks (shards "
          f"{good[0].result['shards']}, tick mode "
          f"{good[0].result['tick_mode']}, RC_CHECK "
          f"{'on' if good[0].result['checked'] else 'off'}, "
          f"digest {good[0].result['digest']})")
    print(f"  {'metric':<18} {'unit':<9} {'value':>12}   per run: "
          f"{'median':>12} {'q1':>12} {'q3':>12}  n")
    for metric, unit in END_TO_END:
        q1, q2, q3 = quartiles([n / d for n, d in series[metric]])
        print(f"  {metric:<18} {unit:<9} {block_median(series[metric]):>12.6g}"
              f"            {q2:>12.6g} {q1:>12.6g} {q3:>12.6g}"
              f"  {len(series[metric])}")


def traced(run, good):
    """Traced child plus the shard and RC_CHECK flips; per-layer metrics."""
    w = run.w
    t = run.child("sim.traced_run", windows=TRACE_WINDOWS)
    flip_shards = 1 if w.shards != 1 else 2
    sf = run.child(f"common.shards{flip_shards}",
                   replace(w, shards=flip_shards))
    checked = "RC_CHECK" in w.env
    flipped_env = {k: v for k, v in w.env.items() if k != "RC_CHECK"}
    if not checked:
        flipped_env["RC_CHECK"] = "1"
    cf = run.child("sim.unchecked_rerun" if checked else "sim.checked_rerun",
                   replace(w, env=flipped_env))
    if not (t.ok and sf.ok and cf.ok):
        return None, None

    r = t.result
    net = r["net"]["counters"]
    sysc = r["sys"]["counters"]
    acc = r["net"]["acc"]

    def c(d, k):
        return float(d.get(k, 0))

    def mean_of(*names):
        n = sum(acc[k][0] for k in names if k in acc)
        return sum(acc[k][1] for k in names if k in acc) / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    measure_u = statistics.median(s.phase("measure") for s in good)
    wall_u = statistics.median(s.wall_s for s in good)
    measure_t = t.phase("measure")
    windows_ms = [x * 1e3 for x in r["windows_s"]]
    tail, tail_pct = tail_value(windows_ms)
    m_chk, m_unchk = ((measure_u, cf.phase("measure")) if checked
                      else (cf.phase("measure"), measure_u))
    m_s1, m_s2 = ((measure_u, sf.phase("measure")) if w.shards == 1
                  else (sf.phase("measure"), measure_u))
    l1_miss = c(sysc, "l1_read_miss") + c(sysc, "l1_write_miss")
    l1_all = l1_miss + c(sysc, "l1_read_hit") + c(sysc, "l1_write_hit")
    eligible = sum(c(net, k) for k in (
        "reply_used", "reply_partial", "reply_failed", "reply_undone",
        "reply_scrounged", "reply_eligible_nocirc"))
    link_flits = c(net, "link_flit")
    retired = float(r["retired"])

    # value, and the base it was derived from (printed beside ratios).
    m = {
        "sim.construct_s": (t.phase("construct"), ""),
        "sim.warmup_s": (t.phase("warmup"), ""),
        "sim.measure_s": (measure_t, f"{len(windows_ms)} windows"),
        "sim.report_s": (t.phase("report"), ""),
        "sim.window_ms_p50": (statistics.median(windows_ms),
                              f"{w.measure // TRACE_WINDOWS} cycles/window"),
        "sim.window_ms_tail": (tail, f"p{tail_pct * 100:.0f} of "
                                     f"{len(windows_ms)} windows"),
        "sim.check_slowdown": (ratio(m_chk, m_unchk),
                               f"{m_chk:.4g} s checked / {m_unchk:.4g} s unchecked"),
        "sim.trace_overhead_pct": (100.0 * ratio(t.wall_s - wall_u, wall_u),
                                   f"{t.wall_s:.4g} s traced vs {wall_u:.4g} s "
                                   f"untraced median"),
        "coherence.prewarm_s": (t.phase("prewarm"), ""),
        "coherence.l1_miss_ratio": (ratio(l1_miss, l1_all),
                                    f"{l1_miss:.0f} misses / {l1_all:.0f} accesses"),
        "coherence.l2_hits": (c(sysc, "l2_hits"), ""),
        "coherence.l2_req_blocked": (c(sysc, "l2_req_blocked"), ""),
        "coherence.invs_sent": (c(sysc, "l2_invs_sent"), ""),
        "coherence.replies_eliminated": (c(sysc, "replies_eliminated"), ""),
        "noc.construct_s": (t.phase("noc_construct"), ""),
        "noc.host_ns_per_link_flit": (1e9 * ratio(measure_t, link_flits),
                                      f"{measure_t:.4g} s / {link_flits:.0f} link flits"),
        "noc.link_flits": (link_flits, ""),
        "noc.flits_injected": (c(net, "ni_inject_flit"), ""),
        "noc.va_ops": (c(net, "va_ops"), ""),
        "noc.sa_ops": (c(net, "sa_ops"), ""),
        "noc.buf_writes": (c(net, "buf_write"), ""),
        "noc.req_latency_cycles": (mean_of("lat_net_req"), "mean"),
        "noc.reply_latency_cycles": (mean_of("lat_net_rep_circ",
                                             "lat_net_rep_nocirc"), "mean"),
        "circuits.reservations": (c(net, "circ_reservations"), ""),
        "circuits.conflict_fails": (c(net, "circ_fail_conflict"), ""),
        "circuits.entries_undone": (c(net, "circ_entries_undone"), ""),
        "circuits.fwd_flits": (c(net, "circ_fwd"), ""),
        "circuits.use_ratio": (ratio(c(net, "reply_used"), eligible),
                               f"{c(net, 'reply_used'):.0f} used / "
                               f"{eligible:.0f} eligible replies"),
        "cpu.retired_instr": (retired, ""),
        "cpu.mem_ops": (c(sysc, "core_mem_ops"), ""),
        "cpu.stall_cycles": (c(sysc, "core_stall_cycles"), ""),
        "cpu.ipc": (r["ipc"], ""),
        "cpu.sim_kips": (ratio(retired / 1e3, measure_u),
                         f"{retired:.0f} instr / {measure_u:.4g} s untraced "
                         f"measure median"),
        "memory.reads": (c(sysc, "mem_reads"), ""),
        "memory.writebacks": (c(sysc, "mem_writebacks"), ""),
        "common.shard_speedup": (ratio(m_s1, m_s2),
                                 f"{m_s1:.4g} s at 1 shard / {m_s2:.4g} s at 2"),
    }
    trace_path = write_trace(run, [t, sf, cf])
    return m, trace_path


def write_trace(run, children):
    """Chrome trace-event JSON (the format `rc-sim --trace` writes): one pid
    per child process, the driver's span for the child as its root."""
    events = []
    next_id = 0
    for pid, s in enumerate(children, start=1):
        run_id = f"{run.name}.{s.label}"
        root_id = next_id
        next_id += 1
        events.append(_event(s.label, s.spawn_ns, s.exit_ns, pid, root_id,
                             None, run_id, run.t0_ns))
        ids = []
        for sp in s.result["spans"]:
            ids.append(next_id)
            parent = root_id if sp["parent"] < 0 else ids[sp["parent"]]
            events.append(_event(sp["name"], sp["start"], sp["end"], pid,
                                 next_id, parent, run_id, run.t0_ns))
            next_id += 1
    d = os.path.join(BUILD_DIR, "traces")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{run.name}-seed{run.seed}.json")
    with open(path, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(e) for e in events) + "\n]\n")
    return path


def _event(name, start_ns, end_ns, pid, span_id, parent, run_id, t0_ns):
    return {"name": name, "ph": "X", "ts": (start_ns - t0_ns) / 1e3,
            "dur": max(end_ns - start_ns, 0) / 1e3, "pid": pid, "tid": 0,
            "args": {"id": span_id, "parent": parent, "run": run_id}}


def print_per_layer(name, m, trace_path):
    print(f"rcbench {name}: per-layer metrics (traced run; trace {trace_path})")
    units = dict(PER_LAYER)
    for metric, _ in PER_LAYER:
        v, base = m[metric]
        print(f"  {metric:<30} {v:>14.6g} {units[metric]:<12} {base}")


def main(argv):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        a = parse_args(argv)
    except UsageError as e:
        print(f"rcbench/run.py: {e}\nusage: python3 rcbench/run.py --workload "
              f"{{{','.join(sorted(WORKLOADS))}}} --seed N --seconds S "
              f"--trace 0|1", file=sys.stderr)
        return 2
    if not build():
        return 1

    run = Run(a.workload, a.seed, a.seconds)
    good = run.untraced()
    metrics = {}
    if good:
        series = end_to_end(run.w, good)
        print_end_to_end(a.workload, series, good)
        if not a.trace:
            units = dict(END_TO_END)
            metrics = {k: {"value": block_median(v), "unit": units[k]}
                       for k, v in series.items()}
        elif not run.failures:
            layers, trace_path = traced(run, good)
            if layers is not None:
                print_per_layer(a.workload, layers, trace_path)
                metrics = {k: {"value": layers[k][0], "unit": u}
                           for k, u in PER_LAYER}

    failed = sum(1 for s in run.samples if not s.ok)
    for f in run.failures:
        print(f"rcbench FAILED {f}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(run.samples),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
