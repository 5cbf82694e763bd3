"""handmesh benchmark: one closed-loop workload per run, from a seed.

    python3 perfbench/run.py --workload train_kp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With `--trace 0` the run sets the workload up several
times (median set-up time), then runs ops for `--seconds` with tracing
off and reports the end-to-end metrics. With `--trace 1` it sets up once
with tracing on, runs half the time untraced and half traced, and
reports the per-layer metrics, the tracing overhead and a kernel table.
Scratch files live under `.perfbench_work/` and are removed at exit; a
traced run leaves its spans in `.perfbench_out/`.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3
WORKLOAD_NAMES = ("train_kp", "infer_b1", "eval_global")
NAMED_UNITS = {"peak_rss_mb": "MB", "final_loss": "loss"}


def limit_blas_threads():
    """One BLAS thread; must run before numpy loads.

    On a shared 2-core host, train_kp runs with 2 BLAS threads spread
    about 8% from one another (one stalled thread holds up every GEMM),
    runs with 1 thread about 2%.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_handmesh():
    """Import the package from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import handmesh
    except ImportError as err:
        raise SystemExit(f"error: cannot import handmesh from {src}: {err}")
    if not os.path.abspath(handmesh.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: handmesh imported from {handmesh.__file__}, not {src}")


def environment():
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    threads = fn()
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "python": sys.version.split()[0], "numpy": np.__version__}


def closed_loop(wl, seconds, start=0, tracer=None):
    """Run ops back to back until the next one would end past the deadline.

    Returns (op durations in s, indices of failed ops); only `op` is timed.
    """
    durations, failed = [], set()
    deadline = time.perf_counter() + seconds
    i = start
    while True:
        region = tracer.region("op", i) if tracer is not None else contextlib.nullcontext()
        out = None
        t0 = time.perf_counter()
        try:
            with region:
                out = wl.op(i)
        except Exception:
            traceback.print_exc()
        durations.append(time.perf_counter() - t0)
        try:
            ok = out is not None and wl.check(i, out)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed.add(i)
        i += 1
        if time.perf_counter() + statistics.median(durations) > deadline:
            return durations, failed


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def unit_of(name):
    if name in NAMED_UNITS:
        return NAMED_UNITS[name]
    for suffix, unit in (("_gmac_s", "GMAC/s"), ("samples_per_s", "samples/s"), ("_ms", "ms"),
                         ("_s", "s"), ("macs", "MAC"), ("_frac", "fraction")):
        if name.endswith(suffix):
            return unit
    return "ms" if "_ms." in name else "count"


def run_untraced(wl, args, workdir):
    setup_times = []
    for r in range(SETUPS):
        t0 = time.perf_counter()
        wl.setup(args.seed, os.path.join(workdir, f"setup{r}"))
        setup_times.append(time.perf_counter() - t0)
        if r:
            shutil.rmtree(os.path.join(workdir, f"setup{r - 1}"), ignore_errors=True)
    durations, failed = closed_loop(wl, args.seconds)
    more_failed, final_loss = wl.finish()
    ms = [1e3 * d for d in durations]
    metrics = {
        "samples_per_s": wl.samples_per_op / statistics.median(durations),
        "latency_ms.p50": percentile(ms, 50),
        "latency_ms.p90": percentile(ms, 90),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_loss": final_loss,
    }
    return len(durations), failed | more_failed, metrics


def run_traced(wl, args, workdir):
    import kernels
    import spans
    import workloads

    tracer = spans.Tracer()
    with tracer.installed(), tracer.region("setup"):
        wl.setup(args.seed, os.path.join(workdir, "setup0"))
    plain, plain_failed = closed_loop(wl, args.seconds / 2)
    with tracer.installed():
        traced, traced_failed = closed_loop(wl, args.seconds / 2, start=len(plain), tracer=tracer)
    more_failed, _ = wl.finish()
    metrics = spans.summarize(tracer)
    table, lines = kernels.kernel_table(tracer.conv_calls)
    metrics.update(table)
    metrics["synth.input_subnormal_frac"] = workloads.subnormal_fraction(wl.inputs())
    metrics["trace.overhead.samples_per_s"] = (wl.samples_per_op / statistics.median(traced)
                                               - wl.samples_per_op / statistics.median(plain))
    metrics["trace.overhead.latency_ms.p50"] = 1e3 * (statistics.median(traced)
                                                      - statistics.median(plain))
    for line in lines:
        print(line)
    if metrics["train.step_ms.mean"]:
        parts = " + ".join(f"{p} {metrics[f'train.step.{p}_ms']:.1f}"
                           for p in ("data", "forward", "loss", "backward", "optim", "uncovered"))
        print(f"train step (mean ms): {parts} = {metrics['train.step_ms.mean']:.1f}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"fields": ["name", "parent", "op", "start_s", "end_s"], "spans": tracer.spans}, fh)
    failed = plain_failed | traced_failed | more_failed
    return len(plain) + len(traced), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    limit_blas_threads()
    import_handmesh()
    import workloads

    print(json.dumps({"env": environment()}))
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        wl = workloads.WORKLOADS[args.workload]()
        run = run_traced if args.trace else run_untraced
        attempted, failed, metrics = run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
