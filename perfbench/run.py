"""fracsmooth benchmark: two closed-loop workloads and a traced pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single client runs the workload's operations in order, one at a time,
each pass in a fresh worker process (``worker.py``), so module caches
fill inside the timed pass and import cost shows up as ``setup_s``.

``--trace 0`` runs passes back to back while the next one is expected
to end within ``--seconds`` (at least one), and reports the median
pass's end-to-end metrics.  ``--trace 1`` runs one untraced pass, a
single-thread reference pass for the Monte Carlo-bound workloads
(``THREADED``), and one traced pass, and reports the per-layer
metrics.  Set-up is measured in ``SETUP_PROBES`` import-only workers
plus every pass worker.

The last stdout line is the result object; the line before it records
provenance (nproc, pool sizes, revision, versions) and every pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import THREADED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
#: every worker is stopped so that a whole run ends within this
HARD_LIMIT_S = 170.0

#: metric names and units come from the benchmark definition
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class Runner:
    """Spawns workers for one run and keeps what they report."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.workroot = HERE / ".work"
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, mode: str, threads: int) -> dict | None:
        """Run one worker to completion; None if it did not report."""
        self.workroot.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{mode}-", dir=self.workroot)
        timeout = max(HARD_LIMIT_S - (time.monotonic() - self.started), 1.0)
        try:
            spawn_ts = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(ROOT), repr(spawn_ts),
                 self.workload, str(self.seed), str(threads), mode, workdir],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout)
            elapsed = time.monotonic() - spawn_ts
        except subprocess.TimeoutExpired as exc:
            print(f"error: {mode} worker killed after {timeout:.0f} s",
                  file=sys.stderr)
            sys.stderr.write(exc.stderr.decode() if exc.stderr else "")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            out = None
        if out is None:
            print(f"error: {mode} worker exited with code {proc.returncode} "
                  "without a result", file=sys.stderr)
            return None
        out["elapsed_s"] = elapsed
        return out

    def run_pass(self, mode: str, threads: int,
                 n_ops: int) -> dict | None:
        """One counted pass; a worker that dies fails all its ops."""
        out = self.spawn(mode, threads)
        if out is None:
            self.attempted += n_ops
            self.failed += n_ops
            return None
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.passes.append({"mode": mode, "threads": threads, **{
            k: out[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                "failed", "op_wall_s")}})
        return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fracsmooth" / "__init__.py").is_file():
        print(f"error: no fracsmooth package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    n_ops = len(WORKLOADS[args.workload])
    runner = Runner(args.workload, args.seed)

    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.spawn("setup", threads)
        if probe is None:
            print("error: the worker cannot import fracsmooth",
                  file=sys.stderr)
            return 2
        setups.append(probe["setup_s"])

    details = {}
    if args.trace == 0:
        pass_s = []
        while True:
            out = runner.run_pass("run", threads, n_ops)
            if out is not None:
                details["provenance"] = out["provenance"]
                pass_s.append(out["elapsed_s"])
            elapsed = time.monotonic() - runner.started
            expected = statistics.median(pass_s) if pass_s else 0.0
            if elapsed + expected > args.seconds or elapsed > HARD_LIMIT_S / 2:
                break
        done = [p for p in runner.passes if p["mode"] == "run"]
        if not done:
            print("error: no pass completed", file=sys.stderr)
            return 1
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in done),
            "cpu_s": statistics.median(p["cpu_s"] for p in done),
            "setup_s": statistics.median(
                setups + [p["setup_s"] for p in done]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
        }
        units = END_TO_END
    else:
        base = runner.run_pass("run", threads, n_ops)
        single = (runner.run_pass("run", 1, n_ops)
                  if args.workload in THREADED and threads > 1 else None)
        traced = runner.run_pass("trace", threads, n_ops)
        if base is None or traced is None:
            print("error: the traced or untraced pass did not complete",
                  file=sys.stderr)
            return 1
        details = {k: traced[k] for k in ("provenance", "spans", "info_errors")}
        metrics = dict(traced["layers"])
        metrics["cli.bytes_written"] = traced["bytes_written"]
        metrics["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1
        # threads=1 wall over threads=2 wall; 0.0 where no MC pool runs
        metrics["hedging.thread_speedup"] = (
            single["wall_s"] / base["wall_s"] if single is not None else 0.0)
        units = PER_LAYER

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": nproc, "threads": threads, "revision": _git_revision(),
        "source_sha256": _source_digest(), **details,
        "setup_probes_s": setups, "passes": runner.passes,
    }))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: _metric(metrics[k], u) for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
