"""ONEX serve-level benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Each run starts the real deployment (``python -m repro serve``) in a
subprocess and drives it over HTTP from this process with two client
threads, one connection each.  Workloads (see ``perfbench/workloads.py``):

- ``explore`` — MATTERS-sim 50x40 under ``serve --mode fast``;
- ``panel-exact`` — a 40x120 synthetic panel loaded from a UCR file
  under ``serve --mode exact --workers 2``.  Not listed in
  ``BENCHMARK.json``: its ~120 ops per 20 s run span 1 ms to 1.4 s, so
  its throughput and search p50 spread 0.18-0.19 (IQR / median over
  five seeds) on a 2-vCPU host, too much to gate on.  Run it by hand.
  The registry scan, kernels and pool it stresses are still measured
  by the traced runs of the other two; the exact-mode cascade only here;
- ``ingest`` — ElectricityLoad-sim 8x365 under ``serve --mode fast
  --workers 2 --data-dir``, with appends beside reads and a kill -9
  recovery check;
- ``all`` — the three in turn, as a human-readable summary.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run (``perfbench/traced.py``).
``--smoke`` shrinks every dataset to toy size; ``perfbench/check_smoke.py``
runs it under pytest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, the identity-gate and
durability verdicts, and the run's inputs (seed, workload rationale,
``nproc``, Python, NumPy, git commit).  The full report and the span
file go to ``.perfbench/`` in the checkout.  A wrong answer, a lost
acknowledged append or an undercounted failure sets ``correct`` to
false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("explore", "panel-exact", "ingest")


def _import_program() -> None:
    """Put the checkout's ``src`` and the benchmark package on the path.

    Exits with status 2 unless ``repro`` is imported from this
    checkout's ``src`` (never an installed copy).
    """
    src = ROOT / "src"
    for path in (ROOT, src):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import the program from {src}: {exc}\n")
        sys.exit(2)
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.stderr.write(f"perfbench: repro imported from {repro.__file__}, not {src}\n")
        sys.exit(2)


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def run_one(name: str, args) -> dict:
    from perfbench.workloads import workloads

    workload = workloads(args.smoke)[name]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    tag = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    try:
        if args.trace:
            from perfbench.traced import traced_run

            result = traced_run(
                workload, args.seed, args.seconds, ROOT, workdir,
                spans_path=out_dir / f"spans-{tag}.json",
            )
        else:
            from perfbench.timed import timed_run

            result = timed_run(workload, args.seed, args.seconds, ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "workload": name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        **result,
    }
    with open(out_dir / f"report-{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    return report


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print(f"  why: {report['why']}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for section in ("metrics", "info"):
        for key, (value, unit) in sorted(report.get(section, {}).items()):
            print(f"  {section[:4]} {key:<34} {_fmt(value):>12} {unit}")
    print(f"  attempted={report['attempted']} failed={report['failed']}")
    verdict = "PASS" if not report["problems"] else "FAIL"
    print(f"  identity gate / durability / accounting: {verdict}")
    for problem in report["problems"]:
        print(f"    - {problem}")


def summary_line(report: dict) -> str:
    return json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in report["metrics"].items()
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-scale datasets (harness self-check)")
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so every server it started is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_program()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_one(name, args)
        print_report(report)
        reports.append(report)
    if args.workload == "all":
        for report in reports:
            print(f"{report['workload']}: {summary_line(report)}")
        print(json.dumps({"correct": all(not r["problems"] for r in reports)}))
    else:
        print(summary_line(reports[0]))
    return 0 if all(not r["problems"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
