"""extalg benchmark: one workload, closed loop of fresh CLI processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each sample is one fresh single-threaded Python process (`child.py`) running
`extalg.cli.main(argv)` on input files generated from the seed.  Samples run
one at a time until `--seconds` have passed, so this process and one child
are all that run.  Every sample goes through the correctness gate (exit code,
output hash, closed-form facts).

Around every sample, a fixed calibration loop measures how fast the machine
runs at that moment, on each CPU a child may use.  Times are reported in
reference seconds: measured seconds scaled by REF_CAL_S over the calibration
time around the sample.  On a shared machine the CPU speed swings by tens of
percent from minute to minute, and the scaling removes most of that swing.

With `--trace 0` the last line reports the end-to-end metrics (medians over
the samples).  With `--trace 1` untraced and traced samples alternate, and
the last line reports the per-layer metrics of the traced samples plus the
tracing overhead.  A JSON record of the run, with provenance and every raw
sample, is written under `.perfbench-out/results/`.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

from tracer import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

OUT = os.path.join(ROOT, ".perfbench-out")
SAMPLE_TIMEOUT_S = 60.0
CAL_ROUNDS = 4
CAL_ROUND_ITERATIONS = 40000
# Seconds one calibration round took on a 2-vCPU shared x86-64 machine under
# CPython 3.11: the speed that reference seconds refer to.
REF_CAL_S = 0.14


def _cal_work(n):
    # dict, tuple and Fraction work, like extalg's sparse arithmetic
    acc = {}
    third = Fraction(1, 3)
    for i in range(n):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + third * (i % 7)
    return acc


def calibrate():
    """Seconds per calibration round now.

    Each round splits its iterations evenly over the CPUs a child may run on,
    pinned to one CPU at a time, because each CPU's speed swings on its own.
    """
    pin = hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pin else [None]
    n = CAL_ROUND_ITERATIONS // len(cpus)
    total = 0.0
    try:
        for _ in range(CAL_ROUNDS):
            for cpu in cpus:
                if pin:
                    os.sched_setaffinity(0, {cpu})
                t0 = time.perf_counter()
                _cal_work(n)
                total += time.perf_counter() - t0
    finally:
        if pin:
            os.sched_setaffinity(0, cpus)
    return total * CAL_ROUND_ITERATIONS / (n * len(cpus) * CAL_ROUNDS)


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac", "per_reduction")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def source_digest():
    """sha256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "extalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def git_commit():
    """HEAD of the repository at ROOT, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_sample(workload, argv, workdir, index, reference, traced):
    """Launch one child, wait for it, and gate its output."""
    stdout_path = os.path.join(workdir, "out-%d.json" % index)
    stamp_path = os.path.join(workdir, "stamp-%d.json" % index)
    stderr_path = os.path.join(workdir, "err-%d.txt" % index)
    trace_path = os.path.join(workdir, "trace-%d.json" % index) if traced else "-"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), stamp_path, trace_path, "--"] + argv
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode < 0
    with open(stdout_path, "rb") as fh:
        output = fh.read()
    sample = {
        "traced": traced,
        "wall_s": ended - launched,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "output_bytes": len(output),
        "sha256": hashlib.sha256(output).hexdigest(),
        "setup_s": None,
        "problems": [],
    }
    problems = sample["problems"]
    if timed_out:
        problems.append("killed (signal %d) after %.1fs" % (-proc.returncode, sample["wall_s"]))
    elif proc.returncode != 0:
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        problems.append("exit code %d %s" % (proc.returncode, " ".join(tail)))
    try:
        with open(stamp_path, encoding="utf-8") as fh:
            stamp = json.load(fh)
        sample["setup_s"] = stamp["entered"] - launched
        sample["main_s"] = stamp["left"] - stamp["entered"]
        expected_pkg = os.path.join(ROOT, "src", "extalg")
        if os.path.dirname(os.path.abspath(stamp["extalg_file"])) != expected_pkg:
            problems.append("extalg imported from %s" % stamp["extalg_file"])
    except (OSError, ValueError, KeyError):
        problems.append("no timing stamp")
    try:
        payload = json.loads(output)
    except ValueError:
        problems.append("stdout is not JSON")
    else:
        problems.extend(workload.check(payload))
    if reference is not None and sample["sha256"] != reference:
        problems.append("output hash differs from the recorded reference")
    if traced and not problems:
        try:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
        except (OSError, ValueError):
            problems.append("no trace written")
        else:
            sample["layers"], trace_problems = layer_metrics(trace, sample["wall_s"], len(output))
            problems.extend(trace_problems)
            sample["trace_file"] = os.path.relpath(trace_path, ROOT)
    return sample


def warm_up():
    """Import the package once so that bytecode caches exist before timing."""
    code = "import sys; sys.path.insert(0, %r); import extalg.cli" % os.path.join(ROOT, "src")
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                   timeout=SAMPLE_TIMEOUT_S)


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops and reaps its child (see run_sample)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "extalg", "cli.py")):
        print("error: no extalg sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    reference = None
    if args.seed == references["seed"]:
        reference = references["sha256"].get(workload.name)

    workdir = os.path.join(OUT, "%s-seed%d" % (workload.name, args.seed))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cli_argv = workload.write_inputs(args.seed, workdir)
    warm_up()

    samples = []
    deadline = time.monotonic() + args.seconds
    cal_before = calibrate()
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        sample = run_sample(workload, cli_argv, workdir, len(samples), reference, traced)
        cal_after = calibrate()
        sample["cal_s"] = (cal_before + cal_after) / 2
        sample["scale"] = REF_CAL_S / sample["cal_s"]
        cal_before = cal_after
        for name, value in sample.get("layers", {}).items():
            if unit_of(name) == "s":
                sample["layers"][name] = value * sample["scale"]
        samples.append(sample)
        enough = not args.trace or len(samples) % 2 == 0
        if time.monotonic() >= deadline and enough:
            break

    failed = [s for s in samples if s["problems"]]
    hashes = {s["sha256"] for s in samples}
    consistent = len(hashes) == 1
    plain = [s for s in samples if not s["traced"]]
    traced_samples = [s for s in samples if s["traced"]]

    def ref_median(group, key):
        return median([s[key] * s["scale"] for s in group if s[key] is not None])

    if args.trace:
        with_layers = [s["layers"] for s in traced_samples if "layers" in s]
        names = list(with_layers[0]) if with_layers else []
        # median_low keeps counts whole: it returns one of the values
        metrics = {name: statistics.median_low([layers[name] for layers in with_layers])
                   for name in names}
        # each traced sample against the untraced one just before it
        pairs = zip(samples[0::2], samples[1::2])
        metrics["trace.overhead_frac"] = median(
            [(t["wall_s"] * t["scale"]) / (u["wall_s"] * u["scale"]) for u, t in pairs]) - 1
    else:
        metrics = {
            "wall_s": ref_median(plain, "wall_s"),
            "cpu_s": ref_median(plain, "cpu_s"),
            "setup_s": ref_median(plain, "setup_s"),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
        }
    raw = {key: median([s[key] for s in plain if s[key] is not None])
           for key in ("wall_s", "cpu_s", "setup_s")}

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [os.path.relpath(a, ROOT) if os.path.isabs(a) else a for a in cli_argv],
        "window": list(workload.window),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "reference_sha256": reference,
        "output_sha256": sorted(hashes),
        "fail_frac": len(failed) / len(samples),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "raw_medians": raw,
        "ref_cal_s": REF_CAL_S,
        "samples": samples,
    }
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    record_path = os.path.join(results, "%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s  seed %d  argv: extalg %s" % (workload.name, args.seed, " ".join(record["argv"])))
    print("samples %d (%d untraced, %d traced)  failed %d  fail_frac %.3f  output hashes %d"
          % (len(samples), len(plain), len(traced_samples), len(failed), record["fail_frac"], len(hashes)))
    for s in failed[:5]:
        print("  failed sample: %s" % "; ".join(s["problems"]))
    print("times in reference seconds; median calibration pass %.4fs (reference %.4fs)"
          % (median([s["cal_s"] for s in samples]), REF_CAL_S))
    for name, v in metrics.items():
        print("  %-40s %14.6g %s" % (name, v, unit_of(name)))
    for name, v in raw.items():
        print("  %-40s %14.6g s" % ("raw " + name, v))
    print("record: %s" % os.path.relpath(record_path, ROOT))
    result = {
        "correct": not failed and consistent,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
