"""One cold pass of one workload, run in a fresh process by ``run.py``.

Prints one JSON object: set-up time, per-item latency summary, peak RSS, the
items that failed and, when traced, the per-layer metrics.  The set-up clock
starts just before ``ktaquin`` is imported and stops before the first timed call.

Times are reported twice: raw, and scaled to a steady host.  The speed of a
shared host drifts by a third within seconds, for every process alike, so the
pass also times a fixed calibration kernel (no ``ktaquin`` code) every
``CALIBRATE_EVERY_S``.  Each time is scaled by ``NOMINAL_KERNEL_S`` over the
mean of the kernel samples taken around it.  A change to ``ktaquin`` moves the
scaled times as much as the raw ones; a slow spell of the host moves both the
kernel and the work, and so cancels.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

NOMINAL_KERNEL_S = 0.7e-3  # the kernel's time on a quiet 2-vCPU Xeon host, Python 3.11
CALIBRATE_EVERY_S = 0.02
_TIME_UNITS = ("s", "ms", "us")

def _kernel() -> int:
    """Tuple, sort, dict and frozenset churn: the kind of work the tableau code does."""
    out = 0
    for k in range(85):
        cells = tuple(sorted(((r, c, (r * 3 + c * k) % 7) for r in range(1, 5) for c in range(1, 5)), reverse=True))
        entries = {(r, c): v for r, c, v in cells}
        boxes = frozenset(entries) - {(1, 1), (2, 2)}
        out += len(boxes) + len(tuple(sorted(entries.values())))
    return out


class Calibration:
    """Samples of the kernel's time, taken between timed calls."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.due = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            _kernel()
            self.samples.append(perf_counter() - start)
        self.due = perf_counter() + CALIBRATE_EVERY_S

    def scale(self, mark: int | None = None) -> float:
        """Factor that takes a raw time to the reference host: over the whole pass,
        or around the moment when ``mark`` samples had been taken."""
        near = self.samples if mark is None else self.samples[max(mark - 2, 0):mark + 2]
        return NOMINAL_KERNEL_S / statistics.fmean(near)


def reference_digest(values: list) -> str:
    return hashlib.sha256(json.dumps(values, separators=(",", ":")).encode()).hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(name: str, seed: int, reference: dict, workdir: str, *, tiny: bool = False,
             tracer=None) -> dict:
    """Build the inputs, run every item, check it, and summarize.

    ``reference`` is the parsed reference file; ``workdir`` takes scratch
    files.  Set-up is timed from just before ``ktaquin`` is first imported.  A
    tracer, when given, is installed just before the first timed call and
    removed after the last.
    """
    calibration = Calibration()
    calibration.sample(3)
    t0 = perf_counter()
    from workloads import WORKLOADS, canon

    workload = WORKLOADS[name]()
    items = [(i, workload.make(i)) for i in workload.draw(seed, tiny)]
    workload.prepare(workdir)
    setup_s = perf_counter() - t0
    setup_mark = len(calibration.samples)

    ref = reference.get("workloads", {}).get(name, {})
    values = ref.get("values", [])
    ref_problem = None
    if reference_digest(values) != ref.get("digest"):
        ref_problem = "reference digest mismatch"
    elif len(values) != workload.size():
        ref_problem = f"reference has {len(values)} values, the universe has {workload.size()}"

    calibration.sample(3)
    if tracer is not None:
        tracer.install()

    latencies: list[float] = []
    marks: list[int] = []  # calibration samples taken before each item
    failures: list[str] = []
    failed = 0
    calibrating = 0.0
    loop_start = perf_counter()
    try:
        for index, args in items:
            if perf_counter() >= calibration.due:
                start = perf_counter()
                calibration.sample()
                calibrating += perf_counter() - start
            start = perf_counter()
            try:
                value, problem = workload.run(args)
            except Exception as exc:  # an item that raises is a failed item, not a crashed run
                value, problem = None, f"raised {type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - start)
            marks.append(len(calibration.samples))
            if problem is None:
                if ref_problem is not None:
                    problem = ref_problem
                elif canon(value) != values[index]:
                    problem = f"value {canon(value)!r} differs from reference {values[index]!r}"
            if problem is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"item {index}: {problem}")
    finally:
        loop_wall_s = perf_counter() - loop_start - calibrating
        if tracer is not None:
            tracer.uninstall()
    calibration.sample(3)

    def summary(setup: float, lat: list[float], wall: float) -> dict:
        return {
            "setup_s": setup,
            "timed_s": sum(lat),
            "loop_wall_s": wall,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p95_ms": (statistics.quantiles(lat, n=20)[18] if len(lat) > 1 else lat[0]) * 1e3,
        }

    scale = calibration.scale()
    scaled = [t * calibration.scale(m) for t, m in zip(latencies, marks)]
    result = {
        "workload": name,
        "seed": seed,
        "traced": tracer is not None,
        "items": len(items),
        "failed": failed,
        "failures": failures,
        **summary(setup_s * calibration.scale(setup_mark), scaled, loop_wall_s * scale),
        "raw": summary(setup_s, latencies, loop_wall_s),
        "scale": scale,
        "calibration_samples": len(calibration.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        metrics, missing = tracer.metrics()
        result["layers"] = {
            k: {"value": v * scale if u in _TIME_UNITS else v, "unit": u} for k, (v, u) in metrics.items()
        }
        result["missing"] = missing
        result["spans"] = {
            k: {"layer": s.layer, "calls": s.calls, "yields": s.yields, "total_s": s.total_s}
            for k, s in tracer.stats.items()
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    os.environ.pop("KTAQUIN_CACHE", None)
    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    try:
        result = run_pass(args.workload, args.seed, load_reference(), args.workdir,
                          tiny=args.tiny, tracer=tracer)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
