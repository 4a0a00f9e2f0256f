"""ghzport benchmark: per-process CLI timings on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paradox-ladder --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it runs the workload as a closed loop, one
``python -m ghzport`` child process at a time, passing over the command list
until ``--seconds`` is used up, and reports the median of each end-to-end
metric over the passes, its times scaled to a reference CPU speed measured
between the children (see REFERENCE_CODE). With ``--trace 1`` it runs the
same commands in process instead, with spans around the program's layers
(see layers.py), and reports the per-layer metrics. Either way every output
is checked by checks.py, and the last line of stdout is the JSON result. A
human-readable report goes to the lines before it, and the full result,
environment included, to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_runs")
SETUP_PER_PASS = 4
SETUP_CODE = "import ghzport.cli as cli; cli.build_parser()"
#: A fixed script that uses no ghzport code and does the kinds of work the
#: commands do: interpreter start-up, the numpy import, Fraction arithmetic, a
#: pure-Python loop and a chunked int64 digit-and-residue sweep like a
#: vectorized model enumeration. It runs between every two timed children, on
#: the same CPU, to measure how fast that CPU is at the moment.
REFERENCE_CODE = """
import itertools
from fractions import Fraction
import numpy as np
total = Fraction(0)
for i in range(1, 600):
    total += Fraction(i % 7 + 1, i)
hits = sum(1 for a, b, c in itertools.product(range(24), repeat=3) if (a + b + c) % 5 == 0)
indices = np.arange(1 << 20, dtype=np.int64)
mask = np.ones(indices.size, dtype=bool)
for place in (3, 9, 27):
    mask &= (indices // place + indices // (3 * place)) % 3 != 0
print(int(mask.sum()), total.denominator % 97, hits)
"""
#: Nominal wall and CPU seconds of the reference script. Every gated time is
#: scaled by REFERENCE_S / (the reference's time next to it): it is the time
#: the child would take on a CPU that runs the reference in REFERENCE_S, which
#: is about the median on the 2-vCPU Xeon the bounds were set on.
REFERENCE_S = 0.25

#: (name, unit) of the end-to-end metrics gated in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("proc_p50_s", "s"), ("peak_rss_mb", "MB"))
#: Wall time summed over one subcommand's processes, per pass. Reported only
#: on workloads that run the subcommand, so they are not gated.
SUBCOMMAND_METRICS = {"paradox": "paradox_s", "lhv-search": "lhv_search_s",
                      "correlate": "correlate_s", "sample": "sample_s",
                      "probability": "probability_s", "multiport": "multiport_s"}


def child_env() -> dict:
    """The caller's environment, with the source tree importable and stdout
    encoded as UTF-8 (paradox text prints γ) whatever the caller's locale."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def spawn(argv, stdout_path=None):
    """Run one child to completion; returns (exit code, wall s, rusage)."""
    with open(stdout_path or os.devnull, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=subprocess.DEVNULL, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def check(command, code, stdout):
    """None when the command exited 0 and its output is right, else why not."""
    if code != 0:
        return f"exit code {code}"
    try:
        return checks.CHECKERS[command.kind](command.subject, command.argv, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def closed_loop(commands, seconds, stdout_path):
    """Pass over the commands, one child at a time, until the time is used.

    Each pass starts with SETUP_PER_PASS set-up probes, so set-up samples
    spread over the run. A reference run comes before the first child and
    after every child, and each child's sample carries the mean time of the
    two reference runs around it. The first pass always runs whole; after it
    the loop stops before the first child whose last time, with a reference
    run, would overrun ``seconds``, so a command may have one sample more
    than another. The first pass checks every output in full and keeps its
    hash; later passes must reproduce it byte for byte, as the program
    promises. Returns per-command (wall, cpu, max-RSS, reference wall,
    reference cpu) samples, (wall, reference wall) set-up samples and the
    failures.
    """
    deadline = time.perf_counter() + seconds
    spawn(["-m", "ghzport", "multiport", "--ports", "2"])  # warm-up: .pyc compilation
    samples, setup, verdicts, failures = [[] for _ in commands], [], [], []
    last = {}  # the latest raw wall time of each child, by index, "setup" or "reference"

    def reference():
        """(wall, cpu) of one reference run."""
        code, wall, usage = spawn(["-c", REFERENCE_CODE])
        if code != 0:
            raise RuntimeError(f"the reference script exited with code {code}")
        last["reference"] = wall
        return wall, usage.ru_utime + usage.ru_stime

    before = reference()

    def around(key, argv):
        """Run one child, then a reference; returns the child's (exit code,
        wall, rusage, stdout) and the mean (wall, cpu) of the reference runs
        around it."""
        nonlocal before
        code, wall, usage = spawn(argv, stdout_path)
        stdout = stdout_path.read_bytes()
        last[key] = wall
        after = reference()
        ref = tuple((x + y) / 2 for x, y in zip(before, after))
        before = after
        return (code, wall, usage, stdout), ref

    for passes in itertools.count():
        for key in ["setup"] * SETUP_PER_PASS + list(range(len(commands))):
            if passes and time.perf_counter() + last[key] + last["reference"] > deadline:
                return samples, setup, failures
            if key == "setup":
                (_, wall, _, _), ref = around(key, ["-c", SETUP_CODE])
                setup.append((wall, ref[0]))
                continue
            command = commands[key]
            (code, wall, usage, stdout), ref = around(key, ["-m", "ghzport", *command.argv])
            samples[key].append((wall, usage.ru_utime + usage.ru_stime,
                                 usage.ru_maxrss * 1024 / 1e6, *ref))
            digest = hashlib.sha256(stdout).hexdigest()
            if key == len(verdicts):
                verdicts.append((check(command, code, stdout.decode("utf-8", "replace")), digest))
            reason, first = verdicts[key]
            if reason is None and (code != 0 or digest != first):
                reason = f"exit code {code}" if code else "stdout differs from the first pass"
            if reason is not None:
                failures.append({"argv": list(command.argv), "reason": reason})


def summarize(commands, samples, setup) -> dict:
    """End-to-end metrics of one typical pass.

    Each sample's wall and CPU time is scaled to the reference CPU speed
    (REFERENCE_S over the reference's time around it). Each command's median
    over its samples is then summed (wall, CPU), its median taken
    (per-process wall) or its maximum taken (RSS). ``raw_*`` are the same
    figures unscaled.
    """
    def median(runs, scale):
        return statistics.median(scale(*sample) for sample in runs)

    wall = [median(runs, lambda w, c, r, rw, rc: w * REFERENCE_S / rw) for runs in samples]
    cpu = [median(runs, lambda w, c, r, rw, rc: c * REFERENCE_S / rc) for runs in samples]
    rss = [median(runs, lambda w, c, r, rw, rc: r) for runs in samples]
    metrics = {
        "setup_s": statistics.median(w * REFERENCE_S / rw for w, rw in setup),
        "wall_s": sum(wall), "cpu_s": sum(cpu),
        "proc_p50_s": statistics.median(wall), "peak_rss_mb": max(rss),
        "raw_setup_s": statistics.median(w for w, _ in setup),
        "raw_wall_s": sum(median(runs, lambda w, *_: w) for runs in samples),
        "raw_cpu_s": sum(median(runs, lambda w, c, *_: c) for runs in samples),
        "reference_s": statistics.median(rw for runs in samples for *_, rw, _ in runs),
    }
    for command, seconds in zip(commands, wall):
        name = SUBCOMMAND_METRICS[command.kind]
        metrics[name] = metrics.get(name, 0.0) + seconds
    return metrics


def cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def environment() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": cpu_caches(),
        "commit": commit,
        "bandwidth": "no memory-bandwidth figure is claimed; the largest arrays are "
                     "80 MB, at the 10^7 outcome guard",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ghzport" / "cli.py").is_file():
        print(f"perfbench: no ghzport source under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env = environment()
    # The harness and, by inheritance, every child run on one CPU. With two
    # CPUs, a child's wall time otherwise depends on whether numpy's OpenBLAS
    # helper thread finds the second CPU free; pinned, OpenBLAS starts none.
    env["benchmark_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["benchmark_cpu"]})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = WORK / tag
    inputs.mkdir(parents=True, exist_ok=True)
    commands = workloads.build(args.workload, args.seed, inputs)
    print("environment: " + json.dumps(env))

    if args.trace:
        import layers  # imports ghzport itself; only the traced run needs it
        probes = workloads.probes(inputs)
        traced = layers.traced_run(commands, probes, args.seconds, check)
        metrics = {name: (traced["metrics"][name], unit) for name, unit, *_ in layers.PER_LAYER}
        attempted, failed, failures = traced["attempted"], traced["failed"], traced["failures"]
        spans_path = WORK / f"spans-{tag}.json"
        spans_path.write_text(json.dumps(traced.pop("spans")), encoding="utf-8")
        detail = {**traced, "spans_file": str(spans_path)}
        print(f"{args.workload} seed={args.seed} traced passes={traced['passes']} "
              f"commands/pass={len(commands)} (+{len(probes)} probes)")
        for name, unit, _, moves in layers.PER_LAYER:
            print(f"  {name:<29} {traced['metrics'][name]:16.6f} {unit:<6} -> {moves}")
        print(f"  self times under cli.main miss it by at most {traced['closure_gap_s']:.3g} s")
    else:
        stdout_path = inputs / "stdout"
        samples, setup, failures = closed_loop(commands, args.seconds, stdout_path)
        stdout_path.unlink()
        attempted, failed = sum(map(len, samples)), len(failures)
        medians = summarize(commands, samples, setup)
        metrics = {name: (medians[name], unit) for name, unit in END_TO_END}
        detail = {"medians": medians, "setup_samples": setup,
                  "samples": [{"argv": list(c.argv), "wall_cpu_rss_refwall_refcpu": s}
                              for c, s in zip(commands, samples)]}
        print(f"{args.workload} seed={args.seed} samples/command={min(map(len, samples))}"
              f"-{max(map(len, samples))} "
              f"commands/pass={len(commands)} (closed loop, 1 client)")
        extra = [(name, medians[name], "s") for name in
                 (*SUBCOMMAND_METRICS.values(), "raw_setup_s", "raw_wall_s", "raw_cpu_s", "reference_s")
                 if name in medians]
        for name, value, unit in [(n, v, u) for n, (v, u) in metrics.items()] + extra:
            note = {"proc_p50_s": f" (median of {len(commands)} processes)",
                    "setup_s": f" (median of {len(setup)} interpreters)",
                    "reference_s": f" (median reference run; scaled times assume {REFERENCE_S} s)"}.get(name, "")
            print(f"  {name:<14} {value:12.6f} {unit}{note}")
    print(f"  {'failed_frac':<14} {failed / attempted:12.6f} ratio ({failed} of {attempted} commands)")
    for failure in failures[:10]:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['reason']}")

    correct = failed == 0
    result_path = WORK / f"result-{tag}.json"
    result_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": attempted, "failed": failed, "failures": failures, **detail,
    }, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
