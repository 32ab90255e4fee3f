"""Benchmark for basinscope: one workload per process.

    python3 bench/run.py --workload {transfer,analysis} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from the root of a checkout; the library is imported from ``src/``.
The seed picks one of ``VARIANTS`` input variants (``seed % VARIANTS``),
each with reference outputs recorded in ``bench/references.json``.

--trace 0 sets up ``SETUP_REPEATS`` times, runs the pipeline once untimed,
then repeats it until the repetitions add up to ``--seconds``, and reports
medians: ``setup_s`` over set-ups, the other times over repetitions. Times
are sums of the operations' wall times, each scaled to the reference host
speed (``speed.py``); the unscaled ones are in the provenance line.
--trace 1 sets up once, runs the pipeline once to warm up, once untraced
and once traced, then runs the probe suite traced, and reports the
per-layer metrics.

The last stdout line is the result object; the line before it records
provenance (seed, config hash, BLAS threads, CPU, versions).
``--record`` writes the outputs of one repetition as the reference for the
seed's variant instead of checking them.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os

BLAS_THREADS = 1  # pinned before numpy loads; no larger than nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _keep_freed_memory() -> bool:
    """Have glibc reuse freed memory instead of handing it back to the kernel.

    By default every large numpy temporary is a fresh mmap that is faulted in
    page by page; on a 2-vCPU VM those faults took up to a fifth of a
    batch-256 evaluation and their cost followed the host's load.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)) and bool(mallopt(m_trim_threshold, 1 << 30))


MALLOC_TUNED = _keep_freed_memory()

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = 16
SETUP_REPEATS = 3


def _import_library():
    """Import basinscope from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "basinscope" / "__init__.py").is_file():
        sys.exit(f"bench: no basinscope sources under {src}")
    sys.path.insert(0, str(src))
    import basinscope

    if Path(basinscope.__file__).resolve().parent != (src / "basinscope").resolve():
        sys.exit(f"bench: basinscope imported from {basinscope.__file__}, not {src}")


def provenance(args, inp) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "variant": inp.variant,
        "size": args.size,
        "config_hash": inp.config_hash(),
        "blas_threads": BLAS_THREADS,
        "malloc_keeps_freed_memory": MALLOC_TUNED,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_pipeline(pipeline, inp, state, ops, speedometer=None):
    from workloads import StageClock

    clock = StageClock(speedometer)
    ops.timer = clock.time
    pipeline(inp, state, ops, clock)
    return clock


def _stage_seconds(clock, stage_names, scaled: bool) -> list:
    seconds = clock.seconds(scaled)
    return [seconds.get(name, 0.0) for name in stage_names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("transfer", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", action="store_true", help="record reference outputs for this seed's variant")
    parser.add_argument("--plant-wrong", action="store_true", help="corrupt one output before checking (self-test)")
    args = parser.parse_args(argv)

    _import_library()
    import check
    import speed
    import workloads

    inp = workloads.Inputs(workloads.SIZES[args.size], args.seed % VARIANTS)
    setup, pipeline = workloads.WORKLOADS[args.workload]
    stage_names = workloads.STAGES[args.workload]
    reference = check.load_references().get(args.size, {}).get(args.workload, {}).get(str(inp.variant))
    if reference is None and not args.record:
        sys.exit(f"bench: no reference outputs for {args.size}/{args.workload}/variant {inp.variant}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        ops = check.Ops()
        speedometer = None if args.trace else speed.Speedometer()
        setup_clocks, clocks = [], []

        def set_up():
            clock = workloads.StageClock(speedometer)
            with clock("setup"):
                state = setup(inp, work, clock)
            setup_clocks.append(clock)
            return state

        if args.record:
            clock = run_pipeline(pipeline, inp, set_up(), ops)
            if ops.failed:
                sys.exit("bench: an operation raised while recording:\n" + "\n".join(ops.problems))
            check.save_reference(args.size, args.workload, inp.variant, ops.first_outputs())
            stage_s = _stage_seconds(clock, stage_names, scaled=False)
            print(f"recorded {len(ops.outputs)} operations for {args.size}/{args.workload}/variant {inp.variant}"
                  f" (wall {sum(stage_s):.2f} s, stages {[round(t, 2) for t in stage_s]})")
            return 0

        provenance_extra = {}
        if args.trace:
            metrics = traced_run(inp, set_up(), pipeline, ops, work)
        else:
            for _ in range(SETUP_REPEATS):
                state = set_up()
            # one untimed repetition first: later ones reuse the memory it
            # leaves to the allocator and run measurably faster
            run_pipeline(pipeline, inp, state, ops, speedometer)
            measured = 0.0
            while measured < args.seconds:
                clock = run_pipeline(pipeline, inp, state, ops, speedometer)
                clocks.append(clock)
                measured += sum(_stage_seconds(clock, stage_names, scaled=False))
            setup_times = [sum(c.seconds(scaled=True).values()) for c in setup_clocks]
            stages = [_stage_seconds(c, stage_names, scaled=True) for c in clocks]
            metrics = {
                "wall_s": (statistics.median(sum(s) for s in stages), "s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (_peak_rss_mb(), "MB"),
            }
            for i in range(len(stage_names)):
                metrics[f"stage{i + 1}_s"] = (statistics.median(s[i] for s in stages), "s")
            kernel_s = [end - start for start, end in speedometer.samples]
            provenance_extra = {
                "repetition_wall_s": [sum(_stage_seconds(c, stage_names, scaled=False)) for c in clocks],
                "repetition_stage_s": stages,
                "setup_wall_s": [sum(c.seconds(scaled=False).values()) for c in setup_clocks],
                "speed_kernel_s": {"samples": len(kernel_s), "median": statistics.median(kernel_s), "reference": speed.REFERENCE_S},
            }

        if args.plant_wrong and ops.outputs:
            name, outputs = ops.outputs[-1]
            key = sorted(outputs)[0]
            ops.outputs[-1] = (name, {**outputs, key: "planted wrong output"})
        ops.compare(reference)
        for problem in ops.problems:
            print(f"bench: {problem}", file=sys.stderr)
        if not args.trace:
            metrics["ops_ok_share"] = ((ops.attempted - ops.failed) / ops.attempted, "ratio")
        print(json.dumps({"provenance": provenance(args, inp), "stages": list(stage_names), **provenance_extra}))
        print(json.dumps({
            "correct": ops.failed == 0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_run(inp, state, pipeline, ops, work) -> dict:
    import probes
    from spans import LAYERS, Tracer

    run_pipeline(pipeline, inp, state, ops)  # warm-up, as in the untraced runs
    start = time.perf_counter()
    run_pipeline(pipeline, inp, state, ops)
    untraced_wall = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    start = time.perf_counter()
    run_pipeline(pipeline, inp, state, ops)
    traced_wall = time.perf_counter() - start
    probe_metrics = probes.run_probes(inp, tracer, work)
    section = time.perf_counter() - start
    tracer.enabled = False

    metrics = {f"{layer}.self_s": (tracer.self_s[layer], "s") for layer in LAYERS}
    metrics["trace.unattributed_s"] = (section - sum(tracer.self_s.values()), "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    for key in ("model.forward", "model.backward", "trainer.evaluate"):
        metrics[f"{key}.calls"] = (tracer.calls[key], "count")
    metrics.update(probe_metrics)
    top = sorted(tracer.func_self_s.items(), key=lambda kv: -kv[1])[:15]
    print(json.dumps({"trace_top_self_s": {k: round(v, 4) for k, v in top}, "spans": tracer.spans}))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
