"""One pass of one workload, in a fresh process.

Usage: worker.py ROOT SPAWN_TS WORKLOAD SEED THREADS MODE WORKDIR

MODE is ``setup`` (import only), ``run`` or ``trace``.  Module caches
start empty, so they fill inside the timed pass as they do for every
CLI invocation.  The last stdout line is one JSON object.
"""

import os

# pin the BLAS/OpenMP pools before numpy loads
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def _provenance(fracsmooth) -> dict:
    """Versions, and threads of the OpenBLAS builds numpy and scipy load."""
    import ctypes
    import glob
    import platform
    import numpy
    import scipy
    sizes = {}
    for pkg, pattern, symbol in (
            (numpy, "libscipy_openblas64_*", "scipy_openblas_get_num_threads64_"),
            (scipy, "libscipy_openblas-*", "scipy_openblas_get_num_threads")):
        libdir = os.path.dirname(pkg.__file__) + ".libs"
        for path in glob.glob(os.path.join(libdir, pattern)):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                sizes[f"{pkg.__name__}_openblas"] = fn()
    sizes.update({v: os.environ[v] for v in PINNED})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "fracsmooth": fracsmooth.__version__,
            "pools": sizes}


def _rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    root, spawn_ts, workload, seed, threads, mode, workdir = argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fracsmooth
    import fracsmooth.cli  # noqa: F401  (the CLI layer)
    setup_s = time.monotonic() - float(spawn_ts)
    if not os.path.abspath(fracsmooth.__file__).startswith(src + os.sep):
        print(f"error: fracsmooth imported from {fracsmooth.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracing import Tracer, install, layer_metrics
    from workloads import WORKLOADS, CheckFailed, Context

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install(tracer)
    ctx = Context(fracsmooth, int(seed), int(threads), workdir)
    ops = WORKLOADS[workload]
    failed = 0
    op_wall = []
    cpu0 = _rusage_cpu()
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            op(ctx)
        except CheckFailed as exc:
            failed += 1
            print(f"check failed: {workload}/{op.__name__}: {exc}",
                  file=sys.stderr)
        except Exception:
            failed += 1
            print(f"error: {workload}/{op.__name__}:", file=sys.stderr)
            traceback.print_exc()
        op_wall.append(time.perf_counter() - start)
    wall = time.perf_counter() - t0
    cpu = _rusage_cpu() - cpu0
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "op_wall_s": {op.__name__: w for op, w in zip(ops, op_wall)},
        "bytes_written": ctx.bytes_written,
        "provenance": _provenance(fracsmooth),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
        result["info_errors"] = tracer.info_errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
