"""craftkit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload toy2_cli_chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else. A run builds its inputs and
fixture several times and runs one untimed warm-up iteration; ``setup_s``
is the import time plus the median set-up plus the warm-up. It then
repeats the workload's iteration for ``--seconds`` (at least three times),
checking every iteration's outputs.

Times of untraced work (``iter_p50_s``, ``items_per_s``, ``setup_s``) are
calibrated against the host's speed, step by step (see ``clock.py``): raw
wall times on a shared host swing by more than the benchmark's bounds
between runs of the same code. The raw wall times are printed and saved
next to them.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones (median iteration time, throughput, peak RSS of this
process, set-up time, relative fit error). With ``--trace 1`` untraced and
traced iterations alternate; the metrics are the per-layer ones, from the
traced iterations, and the spans are written to ``.perfbench/``.
``--workload all`` runs each workload in its own process, so that no
workload inherits another's peak memory, and prints them side by side.

BLAS runs on one thread: on a 2-CPU machine with two OpenBLAS threads
the first ``concept_importance`` of a process is several times slower
than later ones, and one thread never exceeds ``nproc``. The environment
is printed with every result.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("toy2_cli_chain", "wide_activations", "attribution_maps")
SETUP_REPEATS = 3
MIN_ITERATIONS = 3         # per kind: untraced, and traced with --trace 1
BLAS_THREADS = "1"
END_TO_END_UNITS = {"iter_p50_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s", "fit_rel_err": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def environment(numpy):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0))}


def run_all(args):
    """Each workload in its own process; prints their metrics side by side."""
    results = {}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    names = list(results[NAMES[0]]["metrics"])
    print(f"{'metric':40s}" + "".join(f"{n:>20s}" for n in NAMES))
    for metric in names:
        row = "".join(f"{results[n]['metrics'][metric]['value']:>20.6g}" for n in NAMES)
        print(f"{metric:40s}{row}  {results[NAMES[0]]['metrics'][metric]['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "craftkit" / "__init__.py").is_file():
        print(f"perfbench: no craftkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy
    import craftkit
    import spans
    import workloads
    from clock import Clock, host_factor

    if not Path(craftkit.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: craftkit imported from {craftkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{args.workload}-{os.getpid()}"
    threads = min(2, len(os.sched_getaffinity(0)))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", work, threads)
    tally = workloads.Tally()
    import_factor = host_factor(workload.speed_reference)
    clock = Clock(workload.speed_reference)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            clock.start()
            with clock.step():
                workload.setup()
            setup_times.append(clock.calibrated)
        clock.start()
        workload.iterate(tally, clock.step)
        clock.stop()
        warmup_s = clock.calibrated
        workload.check(tally)

        tracer = spans.Tracer() if args.trace else None
        walls = {False: [], True: []}   # raw wall time of each iteration
        calibrated = []                 # calibrated time of each untraced one
        windows = {}
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            traced = bool(args.trace) and i % 2 == 1
            if traced:
                saved = spans.install(tracer)
                tracer.iteration = i
                start = time.perf_counter()
                workload.iterate(tally, tracer.span)
                end = time.perf_counter()
                spans.uninstall(saved)
                tracer.iteration = None
                windows[i] = (start, end)
                walls[True].append(end - start)
            else:
                clock.start()
                workload.iterate(tally, clock.step)
                clock.stop()
                walls[False].append(clock.wall)
                calibrated.append(clock.calibrated)
            workload.check(tally)
            i += 1
            enough = (len(walls[False]) >= MIN_ITERATIONS
                      and (not args.trace or len(walls[True]) >= MIN_ITERATIONS))
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(numpy)
    p50 = statistics.median(calibrated)
    wall_p50 = statistics.median(walls[False])
    out_dir.mkdir(exist_ok=True)
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(walls[False])} untraced iterations, {len(walls[True])} traced, "
          f"wall min {min(walls[False]):.4f} s, median {wall_p50:.4f} s, "
          f"max {max(walls[False]):.4f} s; host factor now {clock.factor:.3f}")
    for error in tally.errors[:10]:
        print(f"# failed: {error}")
    print(f"fail_ratio {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    if args.workload == "attribution_maps":
        print(f"localized_frac {workload.localized_frac:.6g} ratio")

    if args.trace:
        metrics = spans.per_layer_metrics(tracer, windows, statistics.median(walls[True]),
                                          wall_p50, workload.localized_frac)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        # a run whose first check failed has no item count or fit error;
        # it reports zeros next to "correct": false
        values = {
            "iter_p50_s": p50,
            "items_per_s": (workload.items or 0) / p50,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_s / import_factor + statistics.median(setup_times) + warmup_s,
            "fit_rel_err": workload.fit_rel_err or 0.0,
        }
        metrics = {name: {"value": float(v), "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    record = {"environment": env, "workload": args.workload, "seed": args.seed,
              "size": args.size, "trace": args.trace,
              "iteration_walls_s": walls[False], "iteration_calibrated_s": calibrated,
              "traced_walls_s": walls[True]}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
