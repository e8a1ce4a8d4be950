"""spinchsh benchmark: scan throughput and single-state CLI latency.

    python3 perfbench/run.py --workload scan-uniform --seed 0 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Workloads (each in its own processes, see workload.py):
  scan-uniform   run_scan, paper's uniform sampler, 1 worker
  scan-haar-w2   run_scan, Gaussian (haar) sampler, 2 workers through Pool
  certify        closed loop of in-process cli.main calls, one client

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics of a separate traced run on the same inputs.  Each
metric goes on its own line with its unit, after a provenance line; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.  Each run measures for ``run_seconds`` of BENCHMARK.json; a
``--seconds`` argument is accepted only with that same value.  The program
is imported from ``src/`` of the checkout this file sits in, with BLAS
pinned to one thread.
"""

import argparse
import compileall
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("scan-uniform", "scan-haar-w2", "certify")
# Processes that only set up; the measuring process sets up once more, and
# setup_s is the median of all of them.
SETUP_PROBES = 8
# numpy's OpenBLAS is threaded; two Pool workers must not oversubscribe two
# cores, and one thread keeps every workload comparable.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Metric names and units, run_seconds: the benchmark's contract.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# A measuring process sets up, runs for run_seconds plus the end of its
# last call or traced pair (a scan call takes 7-18 s on 2 CPUs), checks its
# outputs and scans the reference; a set-up probe only sets up.
MEASURE_TIMEOUT_S = 3 * SPEC["run_seconds"] + 60
SETUP_TIMEOUT_S = 60


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child(argv, timeout) -> dict:
    """Run workload.py in its own session and return its last stdout line."""
    env = {**os.environ, **BLAS_ENV}
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the child and any Pool workers
        proc.communicate()
        raise BenchmarkError(f"workload process timed out: {argv}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"workload process failed ({proc.returncode}): {argv}")
    return json.loads(lines[-1])


def git_sha():
    """Commit of the checkout, or None when it is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the library sources, identifying the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "spinchsh").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(workload, seed, trace) -> dict:
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"])]
    setups = [] if trace else [child([*argv, "--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
                               for _ in range(SETUP_PROBES)]
    result = child([*argv, "--trace", str(trace)], MEASURE_TIMEOUT_S)
    values = result["metrics"]
    if trace:
        # a layer this workload never enters spent no time and counted nothing
        specs = SPEC["per_layer"]
        values = {m["name"]: values.get(m["name"], 0) for m in specs}
    else:
        specs = SPEC["end_to_end"]
        values["setup_s"] = median(setups + [result["setup_s"]])
    missing = {m["name"] for m in specs} - set(values)
    if missing:
        raise BenchmarkError(f"workload {workload} did not report {sorted(missing)}")
    provenance = {**result["provenance"], "git_sha": git_sha(),
                  "source_sha256": source_digest(), "nproc": os.cpu_count(),
                  "blas_env": BLAS_ENV, "setup_processes": len(setups) + 1}
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in specs},
            "provenance": provenance}


def report(workload, result):
    provenance = result["provenance"]
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"{workload:14s} sample: {provenance['calls']} calls, {provenance['states']} states "
          f"in {provenance['measured_s']:.2f} s")
    for name, m in result["metrics"].items():
        print(f"{workload:14s} {name:30s} {m['value']:16.6f} {m['unit']}")
    fraction = result["failed"] / result["attempted"]
    print(f"{workload:14s} {'failed_fraction':30s} {fraction:16.6f} "
          f"({result['failed']} of {result['attempted']} operations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured time per run; must be run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds != SPEC["run_seconds"]:
        parser.error(f"--seconds must be run_seconds of BENCHMARK.json ({SPEC['run_seconds']})")
    if not (SRC / "spinchsh" / "__init__.py").is_file():
        print(f"error: no spinchsh sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    combined = {"attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in runs:
            result = run_workload(workload, args.seed, trace)
            report(workload, result)
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{workload}/" if args.workload == "all" else ""
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": combined["failed"] == 0, **combined}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
