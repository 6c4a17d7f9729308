"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload zoo-search --seed 1 --seconds 30 --trace 0

Each workload runs in its own process; with ``--trace 0``, set-up alone
is first timed in a few more processes and ``setup_s`` is their median.
The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  ``--workload all``
(the default) runs ``zoo-search``, ``scale-100k`` and ``serve-mix`` in
turn and prints instead one object that maps each workload's name to
its result object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zoo-search", "scale-100k", "serve-mix")
#: Set-up-only processes per run; with the measured run's own set-up
#: this gives five set-up times, whose median is ``setup_s``.
SETUP_PROBES = 4


def deadline_s(seconds: float) -> float:
    """How long one workload's processes may take in all.

    A run stops within half a unit of ``--seconds``; a traced run
    measures half of ``--seconds`` and then the same units again with
    tracing overhead.  The fixed part covers the set-up probes and a unit
    longer than ``--seconds`` (a scale-100k job takes 20-30 s).
    """
    return 110.0 + 2.0 * seconds


class BenchmarkError(RuntimeError):
    pass


def child_env(out_dir: str) -> dict:
    env = dict(os.environ)
    for name in ("REPRO_RECORD", "REPRO_PROGRESS", "REPRO_LOG",
                 "REPRO_TRACE_DIR"):
        env.pop(name, None)
    # Keep the program's run registry inside the checkout.
    env["REPRO_RUNS_DIR"] = os.path.join(out_dir, "runs")
    return env


def spawn(args: list, out_dir: str, result: str, deadline: float) -> tuple:
    """Run one workload process; returns (start time, result document)."""
    command = [sys.executable, os.path.join(HERE, "workloads.py"), *args,
               "--out", out_dir, "--result", result]
    if os.path.exists(result):
        os.remove(result)
    started = time.monotonic()
    process = subprocess.Popen(command, env=child_env(out_dir), cwd=ROOT)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise BenchmarkError(f"{' '.join(args)}: no result within the "
                             "deadline")
    if code != 0 or not os.path.exists(result):
        raise BenchmarkError(f"{' '.join(args)}: exited with code {code}")
    with open(result) as handle:
        return started, json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: str, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds)]
    if smoke:
        base.append("--smoke")
    result = os.path.join(out_dir, f"{workload}-{os.getpid()}.json")
    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        started, probe = spawn(base + ["--setup-only"], out_dir, result,
                               deadline)
        setups.append(probe["ready_at"] - started)
    started, document = spawn(base + (["--trace"] if trace else []),
                              out_dir, result, deadline)
    os.remove(result)
    metrics = document["metrics"]
    if not trace:
        setups.append(document["ready_at"] - started)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (document["peak_rss_mb"], "MB")
    document["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }
    return document


def summary(document: dict, trace: bool) -> str:
    attempted, failed = document["attempted"], document["failed"]
    lines = [
        f"[{document['workload']}] seed {document['seed']}: "
        f"{document['units']} unit(s), {attempted} operations, "
        f"{failed} failed, error_rate {failed / attempted:.4f}"
    ]
    if document["serve_stats"]:
        lines.append(f"  service stats {document['serve_stats']}")
    lines += [f"  check failed: {note}" for note in document["notes"]]
    if trace:
        lines.append(document["table"])
        lines.append(f"  trace written to {document['trace_file']}")
    else:
        for name, metric in document["metrics"].items():
            extra = ""
            if name.startswith("latency_"):
                extra = f"  (n={document['samples']})"
            lines.append(f"  {name:<24}{metric['value']:>14.6g} "
                         f"{metric['unit']}{extra}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for traces and scratch stores")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src",
              file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + deadline_s(args.seconds) * len(selected)
    results = {}
    for workload in selected:
        try:
            document = run_workload(workload, args.seed, args.seconds,
                                    bool(args.trace), args.smoke, args.out,
                                    deadline)
        except BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(summary(document, bool(args.trace)), flush=True)
        correct = document["failed"] == 0 and document.get("consistent", True)
        results[workload] = {
            "correct": correct,
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": document["metrics"],
        }
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
