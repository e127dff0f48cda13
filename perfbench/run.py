"""Benchmark of ktaquin: verified coefficients and slides per second, cold, end to end.

    python3 perfbench/run.py --workload classical-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --out perfbench/baseline.json

Each repetition is one fresh single-threaded process (``worker.py``), so every
global memo starts cold, the way a user's script or CLI call meets it.
Repetitions with the same seed and inputs run until ``--seconds`` have passed.
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics and the tracing overhead.  ``--workload all`` runs every
workload both ways and prints everything.

Metric lines and a provenance line come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classical-sweep", "ktheory-checks", "slide-lab", "cli-batch")
# a run must end within 180 s; no repetition may start a child that could outlive that
RUN_LIMIT_S = 170.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _child(workload: str, seed: int, trace: bool, tiny: bool, deadline: float) -> dict:
    """One repetition in a fresh process; a crash or timeout is one failed item."""
    workdir = ROOT / ".bench_build" / "perfbench" / f"rep-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--workdir", str(workdir)]
    if tiny:
        cmd.append("--tiny")
    env = {k: v for k, v in os.environ.items() if k not in ("KTAQUIN_CACHE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - perf_counter(), 5.0))
    except subprocess.TimeoutExpired:
        return {"crashed": "repetition timed out", "items": 1, "failed": 1}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}", "items": 1, "failed": 1}
    return json.loads(lines[-1])


def _repetitions(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, deadline: float):
    """Untraced repetitions, and with ``trace`` a traced one after each, until ``seconds`` pass."""
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(_child(workload, seed, False, tiny, deadline))
        if trace:
            traced.append(_child(workload, seed, True, tiny, deadline))
        if perf_counter() - start >= seconds or perf_counter() >= deadline - 30:
            return plain, traced


def _ok(reps: list[dict]) -> list[dict]:
    return [r for r in reps if "crashed" not in r]


def end_to_end(plain: list[dict], raw: bool = False) -> dict[str, tuple[float, str]]:
    ok = [r["raw"] | {"items": r["items"], "peak_rss_mb": r["peak_rss_mb"]} if raw else r for r in _ok(plain)]
    return {
        "setup_s": (_median([r["setup_s"] for r in ok]), "s"),
        "items_per_s": (_median([r["items"] / r["timed_s"] for r in ok if r["timed_s"] > 0]), "1/s"),
        "latency_p50_ms": (_median([r["latency_p50_ms"] for r in ok]), "ms"),
        "latency_p95_ms": (_median([r["latency_p95_ms"] for r in ok]), "ms"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in ok]), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    ok_traced = _ok(traced)
    metrics: dict[str, tuple[float, str]] = {}
    missing: dict[str, str] = {}
    for rep in ok_traced:
        missing.update(rep.get("missing", {}))
    names = ok_traced[0]["layers"] if ok_traced else {}
    for name, doc in names.items():
        metrics[name] = (_median([r["layers"][name]["value"] for r in ok_traced]), doc["unit"])
    walls = [r["loop_wall_s"] for r in _ok(plain)]
    traced_walls = [r["loop_wall_s"] for r in ok_traced]
    if walls and traced_walls:
        metrics["trace.overhead_ratio"] = (_median(traced_walls) / _median(walls), "ratio")
    return metrics, missing


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(seed: int, report: dict) -> dict:
    return {
        "seed": seed,
        "commit": _commit(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "items": {w: r["items_per_repetition"] for w, r in report.items()},
        "repetitions": {w: r["repetitions"] for w, r in report.items()},
        "wall_s": {w: r["wall_s"] for w, r in report.items()},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, deadline: float) -> dict:
    plain, traced = _repetitions(workload, seed, seconds, trace, tiny, deadline)
    reps = plain + traced
    ok_plain = _ok(plain)
    failures = [f for r in reps for f in r.get("failures", [])][:5]
    crashes = [r["crashed"] for r in reps if "crashed" in r][:3]
    report = {
        "attempted": sum(r["items"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "failures": failures + crashes,
        "items_per_repetition": ok_plain[0]["items"] if ok_plain else 0,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "wall_s": {
            "untraced": _median([r["loop_wall_s"] for r in ok_plain]),
            "traced": _median([r["loop_wall_s"] for r in _ok(traced)]) if trace else None,
        },
        "end_to_end": end_to_end(plain) if ok_plain else {},
        "end_to_end_raw": end_to_end(plain, raw=True) if ok_plain else {},
        "repetition_results": [{k: v for k, v in r.items() if k not in ("spans",)} for r in reps],
    }
    if trace:
        report["per_layer"], report["missing"] = per_layer(plain, traced)
        report["spans"] = _ok(traced)[0]["spans"] if _ok(traced) else {}
    return report


def _print_report(workload: str, report: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    raw = report.get("end_to_end_raw", {})
    for section in ("end_to_end", "per_layer"):
        for name, (value, unit) in report.get(section, {}).items():
            unscaled = f"  (unscaled {raw[name][0]:.6g})" if name in raw and unit != "MB" else ""
            print(f"{workload:16} {name:32} {value:.6g} {unit}{unscaled}")
    for name, reason in report.get("missing", {}).items():
        print(f"{workload:16} {name:32} missing ({reason})")
    print(f"{workload:16} {'error_rate':32} {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} of {attempted} items failed)")
    print(f"{workload:16} {'latency_samples':32} {report['items_per_repetition']} per repetition, "
          f"{report['repetitions']['untraced']} untraced repetitions")
    for failure in report["failures"]:
        print(f"{workload:16} FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent repeating the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few items per workload (self-test)")
    parser.add_argument("--out", help="also write the full report, with provenance, to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ktaquin" / "__init__.py").is_file():
        print(f"error: no ktaquin sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # byte-compile once, so no repetition pays for it in set-up
    compileall.compile_dir(str(ROOT / "src" / "ktaquin"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2, maxlevels=0)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = args.workload == "all" or bool(args.trace)
    reports = {}
    for workload in workloads:
        deadline = perf_counter() + RUN_LIMIT_S
        reports[workload] = measure(workload, args.seed, args.seconds, trace, args.tiny, deadline)
        _print_report(workload, reports[workload])

    prov = provenance(args.seed, reports)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"provenance": prov, "workloads": reports}, fh, indent=1, sort_keys=True)
            fh.write("\n")

    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    if args.workload == "all":
        metrics = {
            f"{w}/{name}": {"value": value, "unit": unit}
            for w, r in reports.items()
            for section in ("end_to_end", "per_layer")
            for name, (value, unit) in r.get(section, {}).items()
        }
    else:
        section = "per_layer" if args.trace else "end_to_end"
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in reports[args.workload].get(section, {}).items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
