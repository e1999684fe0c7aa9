"""Denoise benchmark: timed rounds of one `gtvdenoise denoise` command.

Run from the repository root:

    python3 benchmark/run.py --workload plane-converge --seed 1 --seconds 30 --trace 0

Set-up makes the workload's noisy cloud from --seed, writes it as .xyz and
runs a tiny warm-up denoise. Then the same command,
`gtvdenoise denoise <noisy.xyz> <out.xyz> --config <workload.cfg>`, runs in
this process in whole rounds until another round would overrun --seconds
(at least one round). Each round's output is checked against the analytic
clean surface. The last stdout line is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics (from wrapped module functions) with
--trace 1. Timings are medians over the rounds. End-to-end times are
scaled to a fixed machine speed, measured by reference work sampled
during every round (speed.py).

The process is single-threaded: BLAS and OpenMP are pinned to one thread
before numpy is imported, and nothing here starts a thread or a process.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("plane-converge", "sphere-onepass", "box-windowed")
END_TO_END_UNITS = {
    "denoise_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "surface_rms_ratio": "ratio",
}


def blas_threads() -> dict[str, dict]:
    """Thread count and build string of every OpenBLAS loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                found[Path(path).name] = {
                    "threads": get_threads(),
                    "config": get_config().decode(errors="replace").strip(),
                }
    return found


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_threads(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


# Reference samples taken right after set-up, to scale setup_s by.
SETUP_SAMPLES = 50


def main(argv=None) -> int:
    args = parse_args(argv)
    marks = {"main": time.perf_counter() - _T0}  # set-up phase ends, seconds since _T0
    src = Path.cwd() / "src"
    if not (src / "gtvdenoise" / "__init__.py").is_file():
        print(f"error: no gtvdenoise sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import gtvdenoise
    from gtvdenoise import cli

    if not Path(gtvdenoise.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: gtvdenoise imported from {gtvdenoise.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import checks
    import speed
    import tracing
    from workloads import WARMUP_CONFIG, WORKLOADS, add_noise, warmup_cloud

    marks["imports"] = time.perf_counter() - _T0
    env = environment()
    threaded = {lib: info["threads"] for lib, info in env["openblas"].items()
               if info["threads"] != 1}
    if threaded:
        print(f"error: BLAS is not single-threaded: {threaded}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_dir = BENCH_DIR / "out" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.iterdir():
        stale.unlink()

    marks["environment"] = time.perf_counter() - _T0
    clean, distance = workload.clean(args.seed)
    noisy = add_noise(clean, args.seed)
    noisy_path = out_dir / "noisy.xyz"
    np.savetxt(noisy_path, noisy, fmt="%.17g")
    warm_path = out_dir / "warmup.xyz"
    np.savetxt(warm_path, warmup_cloud(), fmt="%.17g")
    marks["inputs"] = time.perf_counter() - _T0
    if cli.main(["-q", "denoise", str(warm_path), str(out_dir / "warmup_out.xyz"),
                 "--config", str(WARMUP_CONFIG)]) != 0:
        print("error: warm-up denoise failed", file=sys.stderr)
        return 1
    marks["warmup"] = time.perf_counter() - _T0
    reference = speed.SpeedReference()
    setup_s = marks["warmup"] / reference.speed_factor(
        [reference.sample() for _ in range(SETUP_SAMPLES)])

    out_path = out_dir / "denoised.xyz"
    diag_path = out_dir / "denoised.xyz.diag"
    command = ["-q", "denoise", str(noisy_path), str(out_path),
               "--config", str(workload.config)]
    admm_max_iter = int(workload.setting("admm_max_iter"))

    wall, raw, seconds, ratios, layers = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for stale in out_dir.glob("denoised.xyz*"):
            stale.unlink()
        tracer = tracing.Tracer() if args.trace else None
        attempted += 1
        taken = []
        t = time.perf_counter()
        try:
            if tracer is None:
                with reference.during() as taken:
                    code = cli.main(command)
            else:
                with tracer, tracer.span(tracing.COMMAND_SPAN):
                    code = cli.main(command)
        except Exception:  # a crashing round is counted, not fatal
            traceback.print_exc()
            code = None
        wall.append(time.perf_counter() - t)
        raw.append(wall[-1] - sum(taken))  # the command's own wall time
        seconds.append(raw[-1] / reference.speed_factor(taken or [reference.sample()]))

        problems = [f"gtvdenoise denoise ended with {code!r}, not 0"] if code != 0 else []
        if not problems:
            try:
                ratio, problems = checks.check_output(
                    noisy, checks.read_xyz(str(out_path)), distance)
                ratios.append(ratio)
                if workload.converges:
                    problems += checks.check_converged(
                        str(diag_path), float(workload.setting("admm_tol")))
                if tracer is not None:
                    layer = tracing.span_metrics(tracer.spans, tracer.installed)
                    layer.update(tracing.diag_metrics(str(diag_path), admm_max_iter))
                    if "bipartite.nodes" in layer:
                        layer["solver.window_redundancy"] = (
                            layer["bipartite.nodes"] / noisy.shape[0])
                    layers.append(layer)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable output: {exc}")
        if problems:
            failed += 1
            print(f"round {attempted} failed: " + "; ".join(problems), file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(wall) > args.seconds:
            break

    if args.trace:
        if tracer is not None and tracer.missing:
            print("not traced (absent from the program): " + ", ".join(tracer.missing),
                  file=sys.stderr)
        metrics = {
            name: {"value": statistics.median(layer[name] for layer in layers),
                   "unit": unit}
            for name, unit in tracing.LAYER_UNITS.items()
            if layers and all(name in layer for layer in layers)
        }
    else:
        values = {
            "denoise_s": statistics.median(seconds),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        finite = [r for r in ratios if np.isfinite(r)]
        if finite:
            values["surface_rms_ratio"] = statistics.median(finite)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    env.update(workload=workload.name, seed=args.seed, points=int(noisy.shape[0]),
               setup_marks=marks,
               speed_factor=reference.speed_factor(reference.samples),
               rounds=len(wall), round_raw_s=raw, round_seconds=seconds)
    print("env " + json.dumps(env))
    for name, metric in metrics.items():
        print(f"{name:>26} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # numpy is first imported inside main(), after this
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main())
