"""ringnet benchmark: time one CLI workload end to end, or trace its layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload validate|sweep|curves --seed N \
        --seconds S --trace 0|1

Each repetition runs the workload's ``ringnet`` command in a fresh Python
process (child.py) with ``--threads 1`` and the BLAS/OpenMP pools pinned to
one thread.  The run repeats the command until ``--seconds`` would be
exceeded, checks every output against the recorded reference
(workloads.py) and reports medians over the repetitions:

* ``--trace 0``: wall_s (command after import), setup_s (``import
  ringnet.cli``) and peak_rss_mib (peak resident memory of the process);
* ``--trace 1``: untraced and traced repetitions alternate; the per-layer
  metrics come from the traced ones (tracing.py) and trace.overhead_s is
  the difference of the two medians of wall_s.

Human-readable lines (median, quartiles and sample count per metric, and
the error rate) come first; the last line of standard output is the JSON
result.  A run record with every repetition, the hardware, the library
versions, the thread pins and the seeds is written under ``.perfbench/``.
compare.py compares two sets of run records.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

from tracing import summarise  # noqa: E402
from workloads import DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS, mc_seed  # noqa: E402

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
# a run ends, killing a hung command, well inside the 180 s a run may take
RUN_LIMIT_S = 160.0
POLL_S = 0.02
# import-only processes timed after each command, for more setup_s samples;
# time left over after the last command goes to more of them
IMPORTS_PER_COMMAND = 1


def quartiles(values):
    """(median, first quartile, third quartile) of a non-empty sample."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def run_child(cli_args, work, traced, env, timeout):
    """Run the command once in a fresh process; its timings and output.

    With no ``cli_args`` the process only imports ringnet.cli."""
    result_path = os.path.join(work, "result.json")
    output_path = os.path.join(work, "output.txt")
    spans_path = os.path.join(work, "spans.npz") if traced else "-"
    for path in (result_path, output_path):
        if os.path.exists(path):
            os.remove(path)
    command = [sys.executable, os.path.join(HERE, "child.py"), SRC, result_path,
               output_path, spans_path, "--", *cli_args]
    started = time.perf_counter()
    with open(os.path.join(work, "child.err"), "w", encoding="utf-8") as errors:
        process = subprocess.Popen(command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                   stdout=subprocess.DEVNULL, stderr=errors)
        timed_out = False
        while True:  # wait4 gives this child's own peak memory
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - started > timeout:
                process.kill()
                pid, status, usage = os.wait4(process.pid, 0)
                timed_out = True
                break
            time.sleep(POLL_S)
        process.returncode = os.waitstatus_to_exitcode(status)
    rep = {"traced": traced, "elapsed_s": time.perf_counter() - started,
           "rss_mib": usage.ru_maxrss / 1024.0, "cpu_s": usage.ru_utime + usage.ru_stime,
           "process_exit": process.returncode, "timed_out": timed_out}
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as handle:
            rep.update(json.load(handle))
    with open(os.path.join(work, "child.err"), encoding="utf-8") as handle:
        rep["stderr_tail"] = handle.read()[-2000:]
    text = None
    if os.path.exists(output_path):
        with open(output_path, encoding="utf-8") as handle:
            text = handle.read()
    return rep, text, (spans_path if traced else None)


def environment():
    """What the numbers were measured on."""
    record = {"python": platform.python_version(), "platform": platform.platform(),
              "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
              "thread_pins": THREAD_PINS}
    for package in ("numpy", "scipy"):
        try:
            record[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            record[package] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        record["cpu_model"] = models[0] if models else None
    except OSError:
        record["cpu_model"] = None
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        fields = []
        try:
            for field in ("level", "type", "size"):
                with open(os.path.join(index, field), encoding="utf-8") as handle:
                    fields.append(handle.read().strip())
        except OSError:
            continue
        caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    record["cpu0_caches"] = caches
    record["git_commit"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        record["git_commit"] = done.stdout.strip() or None
    return record


def import_only(work, env):
    """import_s of a fresh process that only imports ringnet.cli, or None."""
    return run_child([], work, False, env, 60.0)[0].get("import_s")


def measure(workload, args, cli_args, work, env, reference):
    """Repeat the command for ``args.seconds``; (reps, import times, layers).

    With tracing, untraced and traced commands alternate.  Each command is
    followed by IMPORTS_PER_COMMAND import-only processes; a command is not
    started when its round would end past ``args.seconds``, and the time
    left goes to more import-only processes.
    """
    kinds = [False] if args.trace == 0 else [False, True]
    reps, import_times, layer_samples = [], [], []
    started = time.perf_counter()
    while True:
        traced = kinds[len(reps) % len(kinds)]
        elapsed = time.perf_counter() - started
        same_kind = [r["round_s"] for r in reps if r["traced"] == traced]
        predicted = max(same_kind or [r["round_s"] for r in reps] or [0.0])
        have_each = all(any(r["traced"] == k for r in reps) for k in kinds)
        if (have_each and elapsed + predicted > args.seconds) or elapsed > RUN_LIMIT_S:
            break
        rep, text, spans = run_child(cli_args, work, traced, env,
                                     max(RUN_LIMIT_S - elapsed, 10.0))
        if text is None or "exit_code" not in rep:
            rep["problems"] = ["the command produced no result"]
        else:
            rep["problems"] = workload.check(text, rep["exit_code"], reference, args.seed)
        if rep["problems"]:
            print(f"command {len(reps) + 1} failed: {rep['problems'][:3]} "
                  f"{rep['stderr_tail'][-400:]}", file=sys.stderr)
        if spans is not None and os.path.exists(spans):
            layer_samples.append(summarise(spans))
        samples = [rep.get("import_s")]
        samples += [import_only(work, env) for _ in range(IMPORTS_PER_COMMAND)]
        import_times += [t for t in samples if t is not None]
        rep["round_s"] = time.perf_counter() - started - elapsed
        reps.append(rep)
    last = 0.0
    while time.perf_counter() - started + last < args.seconds:
        round_started = time.perf_counter()
        sample = import_only(work, env)
        if sample is None:
            break
        import_times.append(sample)
        last = time.perf_counter() - round_started
    return reps, import_times, layer_samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ringnet", "cli.py")):
        print(f"no ringnet sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    workload = WORKLOADS[args.workload]

    work = os.path.join(OUT, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = workload.config(args.seed)
    config_path = None
    if config is not None:
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
    cli_args = workload.cli_args(config_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_PINS)

    # compile the package's bytecode before timing: users pay that once
    started = time.perf_counter()
    if import_only(work, env) is None:
        print("ringnet.cli does not import", file=sys.stderr)
        return 1

    reps, import_times, layer_samples = measure(workload, args, cli_args, work, env,
                                                reference)
    attempted = len(reps)
    failed = sum(1 for r in reps if r["problems"])
    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        print("no repetition produced timings", file=sys.stderr)
        return 1
    plain = [r for r in timed if not r["traced"]]
    series = {
        "wall_s": ([r["wall_s"] for r in plain], "s"),
        "setup_s": (import_times, "s"),
        "peak_rss_mib": ([r["rss_mib"] for r in plain], "MiB"),
    }
    end_to_end = list(series)
    if args.trace:
        traced_walls = [r["wall_s"] for r in timed if r["traced"]]
        if not plain or not traced_walls or not layer_samples:
            print("the traced run needs an untraced and a traced repetition",
                  file=sys.stderr)
            return 1
        for name, (_, unit) in layer_samples[0].items():
            series[name] = ([m[name][0] for m in layer_samples], unit)
        series["trace.overhead_s"] = (
            [quartiles(traced_walls)[0] - quartiles([r["wall_s"] for r in plain])[0]], "s")
    reported = end_to_end if args.trace == 0 else [n for n in series if n not in end_to_end]

    summary = {}
    for name, (values, unit) in series.items():
        if not values:
            continue
        median, q1, q3 = quartiles(values)
        summary[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3,
                         "n": len(values), "samples": values}
    error_rate = failed / attempted

    print(f"workload {workload.name} seed {args.seed} (mc seed {mc_seed(args.seed)}) "
          f"trace {args.trace}: {attempted} commands, {len(import_times)} import "
          f"samples in {time.perf_counter() - started:.1f} s")
    for name in summary:
        m = summary[name]
        print(f"  {name:28s} median {m['value']:<14.6g} q1 {m['q1']:<14.6g} "
              f"q3 {m['q3']:<14.6g} n {m['n']:<3d} {m['unit']}")
    print(f"  {'error_rate':28s} {error_rate:.6g} ({failed} of {attempted} failed)")

    record = {
        "workload": workload.name, "seed": args.seed, "mc_seed": mc_seed(args.seed),
        "default_seed": DEFAULT_SEED, "holdout_seed": HOLDOUT_SEED,
        "created_ns": time.time_ns(), "seconds": args.seconds, "trace": args.trace,
        "cli_args": cli_args,
        "config": config, "environment": environment(),
        "attempted": attempted, "failed": failed, "error_rate": error_rate,
        "metrics": summary, "repetitions": reps,
    }
    records = os.path.join(OUT, "records")
    os.makedirs(records, exist_ok=True)
    name = f"{workload.name}-trace{args.trace}-seed{args.seed}-{record['created_ns']}.json"
    with open(os.path.join(records, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": summary[n]["value"], "unit": summary[n]["unit"]}
                          for n in reported}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
