"""cavitylab benchmark: closed-loop CLI sessions, checked against closed forms.

Usage (from the repository root):

    python3 bench/run.py --workload figure-map --seed 1 --seconds 25 --trace 0

Each session runs in a fresh interpreter (bench/worker.py) so caches and lazy
imports start cold, as they do for every CLI call.  One small warm-up
session per run is discarded; then sessions repeat while the next one is
expected to end within --seconds (at least one runs).  --trace 0 reports
the end-to-end metrics (medians over the untraced sessions); --trace 1
alternates untraced and traced sessions and reports the per-layer metrics
of the traced ones.  Every artifact is checked
against bench/oracle.py.  The last stdout line is one JSON object; the exit
code is 1 when any operation or check failed and 2 when the run could not
be made at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import tracer
from workloads import WORKLOADS, Workload, warmup_ops

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 5
# One BLAS/OpenMP thread: the sessions are single-threaded clients, and on a
# shared two-core machine a second BLAS thread mostly adds run-to-run noise.
BLAS_THREADS = 1

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


class Runner:
    """Runs sessions of one workload in fresh worker interpreters."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = worker_env()
        self.count = 0

    def session(self, ops, trace: bool) -> dict:
        self.count += 1
        tag = f"s{self.count}"
        base = self.run_dir / tag
        base.mkdir()
        argv_ops = []
        for k, op in enumerate(ops):
            config_path = None
            if op.config is not None:
                config_path = str(base / f"{k}-{op.label}.json")
                with open(config_path, "w") as fh:
                    json.dump(op.config, fh)
            argv_ops.append([op.experiment, config_path, str(base / f"{k}-{op.label}")])
        spec = {"root": str(ROOT), "ops": argv_ops, "trace": trace,
                "result": str(base / "result.json"), "spans": str(base / "spans.json")}
        spec_path = base / "session.json"
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)

        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), str(spec_path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=ROOT, env=self.env, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunError(f"session {tag} did not finish before the run limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RunError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        result.update(setup_s=setup_s, stderr=err, dirs=[o[2] for o in argv_ops])
        if trace:
            with open(spec["spans"]) as fh:
                result["trace"] = json.load(fh)
        return result

    def discard(self) -> None:
        for child in self.run_dir.iterdir():
            shutil.rmtree(child)


def check_session(ops, result: dict, report: checks.Report) -> tuple[int, int]:
    """Checks every operation of a session; returns (attempted, failed)."""
    failed = 0
    for op, outcome, out_dir in zip(ops, result["ops"], result["dirs"]):
        sub = checks.Report()
        if outcome["code"] != 0:
            detail = outcome["error"] or result["stderr"].strip()[-500:]
            sub.failures.append(f"exit code {outcome['code']}: {detail}")
        else:
            try:
                op.check(out_dir, report=sub)
                checks.check_manifest(out_dir, sub)
            except Exception as exc:  # malformed output fails the operation, not the run
                sub.failures.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
        for name, value in sub.gaps.items():
            key = f"{op.label}: {name}"
            report.gaps[key] = max(report.gaps.get(key, 0.0), value)
        if sub.recon_rmse is not None:
            report.recon_rmse = sub.recon_rmse
        if sub.failures:
            failed += 1
            report.failures.extend(f"{op.label}: {f}" for f in sub.failures)
    return len(ops), failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            runner: Runner) -> dict:
    report = checks.Report()
    warm_ops = warmup_ops()
    attempted, failed = check_session(warm_ops, runner.session(warm_ops, trace=False), report)
    runner.discard()

    ops = workload.ops(seed)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        use_trace = trace and len(traced) < len(plain)
        began = time.monotonic()
        result = runner.session(ops, trace=use_trace)
        a, f = check_session(ops, result, report)
        attempted, failed = attempted + a, failed + f
        (traced if use_trace else plain).append(result)
        runner.discard()
        # Stop when another session would end past --seconds; a traced run
        # needs at least one untraced and one traced session.
        now = time.monotonic()
        if now - start + (now - began) > seconds and (not trace or traced):
            break

    setup = [r["setup_s"] for r in plain]
    if not trace:
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(runner.session([], trace=False)["setup_s"])
            runner.discard()
    return {"report": report, "plain": plain, "traced": traced, "setup": setup,
            "attempted": attempted, "failed": failed}


def end_to_end(run: dict) -> dict[str, float]:
    walls = [r["wall_s"] for r in run["plain"]]
    rss = [r["peak_rss_mb"] for r in run["plain"]]
    q1, med, q3 = quartiles(walls)
    print(f"wall_s       {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, sessions {len(walls)}: "
          f"{' '.join(f'{w:.3f}' for w in walls)})")
    print(f"setup_s      {statistics.median(run['setup']):.4f} s  "
          f"(samples {len(run['setup'])})")
    print(f"peak_rss_mb  {statistics.median(rss):.1f} MB")
    return {"wall_s": med, "setup_s": statistics.median(run["setup"]),
            "peak_rss_mb": statistics.median(rss)}


def per_layer(workload: Workload, run: dict, report: checks.Report) -> dict[str, float]:
    sessions = [tracer.layer_metrics(r["trace"], r["wall_s"]) for r in run["traced"]]
    metrics = {k: statistics.median(s[k] for s in sessions) for k in sessions[0]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in run["traced"])
                                   - statistics.median(r["wall_s"] for r in run["plain"]))
    info = run["traced"][0]["trace"]
    for name in workload.expect:
        if name in info["installed"] and metrics[f"{name}.calls"] == 0:
            report.failures.append(f"tracer: {name} exists but was never entered")
    if info["missing"]:
        print(f"tracer: not present, skipped: {', '.join(info['missing'])}")
    for name, error in info["probe_errors"].items():
        print(f"tracer: extras of {name} not recorded ({error})", file=sys.stderr)
    print(f"traced wall_s {metrics['trace.wall_s']:.4f} s, overhead "
          f"{metrics['trace.overhead_s']:+.4f} s, layer self time covers "
          f"{metrics['trace.coverage']:.1%}")
    for layer in sorted(tracer.LAYERS, key=lambda l: -metrics[f"{l}.self_s"]):
        print(f"  {layer:9s} self {metrics[f'{layer}.self_s']:8.4f} s  "
              f"share {metrics[f'{layer}.share']:6.1%}  errors {metrics[f'{layer}.errors']:g}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "cavitylab" / "__init__.py").is_file():
        print(f"no cavitylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = ROOT / ".bench_run" / f"{workload.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        print("machine", json.dumps(machine_record(), sort_keys=True))
        runner = Runner(run_dir, time.monotonic() + RUN_LIMIT_S)
        run = measure(workload, args.seed, args.seconds, bool(args.trace), runner)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    report = run["report"]
    if args.trace:
        values, units = per_layer(workload, run, report), tracer.metric_units()
    else:
        values, units = end_to_end(run), END_TO_END_UNITS
    print(f"oracle_max_err {report.max_gap:.3e}  (exact outputs vs closed forms)")
    for name, gap in sorted(report.gaps.items()):
        print(f"  {name}: {gap:.3e}")
    if report.recon_rmse is not None:
        print(f"recon_rmse   {report.recon_rmse:.6f}  (seed {args.seed})")
    print(f"fail_ratio   {run['failed'] / run['attempted']:.4f}  "
          f"({run['failed']} of {run['attempted']} operations)")
    for failure in report.failures:
        print(f"FAIL {failure}", file=sys.stderr)

    correct = not report.failures and run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
