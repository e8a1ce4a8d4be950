"""One benchmark workload in a process of its own.

``run.py`` starts this file once per set-up probe (``--setup-only``) and once
to measure, so that imports, the first einsum, the first ``Pool`` and peak
memory are never inherited from another workload.  The last line of standard
output is one JSON object for ``run.py``::

    python3 perfbench/workload.py --workload certify --seed 3 --seconds 30 --trace 0
"""

import time

_START = time.perf_counter()  # set-up is timed from here: imports plus one warm-up call

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import spinchsh
from spinchsh import scan

import certify_workload
import scan_workloads
from tracing import Recorder

WORKLOADS = {**{name: scan_workloads.ScanWorkload for name in scan_workloads.WORKLOADS},
             "certify": certify_workload.CertifyWorkload}


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def closed_loop(workload, seconds: float) -> tuple:
    """One client calling ``workload.call(i)`` back to back for ``seconds``.

    Returns the end-to-end metrics other than ``setup_s``, and the sample
    they rest on.  Each call returns the number of states it
    analysed; its output is kept by the workload and checked after the
    clock stops.  Rates and CPU time are over the whole loop, call times are
    the median and 90th percentile over every call.  The loop ends at the
    end of a pass over the workload's inputs, once ``seconds`` have passed
    and it has made ``MIN_CALLS`` calls.
    """
    walls, states = [], 0
    start, cpu0 = time.perf_counter(), cpu_seconds()
    while (len(walls) < workload.MIN_CALLS or len(walls) % workload.pass_length
           or time.perf_counter() < start + seconds):
        t = time.perf_counter()
        states += workload.call(len(walls))
        walls.append(time.perf_counter() - t)
    wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
    metrics = {"states_per_s": states / wall,
               "calls_per_s": len(walls) / wall,
               "cpu_us_per_state": cpu / states * 1e6,
               "call_p50_ms": float(np.percentile(walls, 50)) * 1e3,
               "call_p90_ms": float(np.percentile(walls, 90)) * 1e3,
               "peak_rss_mb": peak_rss_mb()}
    return metrics, {"calls": len(walls), "states": states, "measured_s": wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports and one warm-up call, then exit")
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.workload, args.seed, workdir)
        workload.warm_up()
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workload.prepare()
        if args.trace:
            metrics, sample = workload.traced(args.seconds, Recorder(workdir / "spans.jsonl"))
        else:
            metrics, sample = closed_loop(workload, args.seconds)
        attempted, failed = workload.check()
        provenance = {
            "spinchsh_version": spinchsh.__version__,
            "numpy_version": np.__version__,
            "python_version": sys.version.split()[0],
            "scan_chunk": scan.CHUNK,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            **sample,
            **workload.provenance(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another benchmark process still uses it
            pass
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": provenance,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
