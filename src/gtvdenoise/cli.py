"""Command line interface for the denoising pipeline.

Subcommands: noise, denoise, eval, inspect, bench.

Configuration precedence is flags > config file > built-in defaults. Config
files are flat "key = value" lines with '#' comments. Solver parameters are
flags of denoise and bench; inspect takes only k, sigma_p and collinearity_tol.
noise also reads sigma and seed, bench sigmas and seed, and both echo other
keys unchanged. eval takes no config.
Every run that produces an output file also writes an effective-config echo
next to it; re-running with that echo as the config file reproduces the
output bit-exactly.

Exit codes (2, 4, 5 and 6 are the exit_code attributes of the error classes):
  0  success
  1  benchmark completed with at least one failed model
  2  usage or configuration error
  3  I/O failure (missing or unwritable file)
  4  cloud parse failure
  5  solver divergence
  6  degenerate geometry (too few points, collinear supports, ...)
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import fields as dataclass_fields
from pathlib import Path

from .bipartite import BLUE, RED, approximate_bipartite, bipartition_lines
from .cloud import NoiseSpec, PointCloud, add_gaussian_noise, load_cloud, save_cloud
from .errors import ConfigError, GtvDenoiseError, UsageError
from .graph import edge_list_lines
from .metrics import BENCH_CSV_HEADER, CSV_HEADER, evaluate
from .normals import estimate_normal_field, normal_field_lines
from .solver import STAGE_KEYS, DenoiseParams, DiagnosticsReport, centred_knn_graph, denoise

EXIT_OK = 0
EXIT_BENCH_PARTIAL = 1
EXIT_IO = 3

log = logging.getLogger("gtvdenoise")

_PARAM_FIELDS = {f.name: type(f.default) for f in dataclass_fields(DenoiseParams)}
_INSPECT_PARAMS = ("k", "sigma_p", "collinearity_tol")  # what its graph and normals read


def _coerce(key: str, text: str, kind: type):
    """Convert a config-file string to kind (float, int, ...)."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"expected {kind.__name__} for {key!r}, got {text!r}") from exc


def parse_config_file(path: str) -> dict:
    """Read flat 'key = value' lines; '#' starts a comment; blank lines skipped."""
    values = {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value in {line!r}")
        values[key] = value
    return values


def build_params(
    config_path: str | None, args: argparse.Namespace, names: tuple = tuple(_PARAM_FIELDS)
) -> tuple[DenoiseParams, dict]:
    """Merge defaults, config file, and CLI flags of the names into DenoiseParams.

    Returns the parameters plus the config keys outside names (sigma, seed,
    ...) for the subcommand to interpret or ignore.
    """
    merged = {}
    extra = {}
    if config_path:
        for key, text in parse_config_file(config_path).items():
            if key in names:
                merged[key] = _coerce(key, text, _PARAM_FIELDS[key])
            else:
                extra[key] = text
    for key in names:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    try:
        params = DenoiseParams(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return params, extra


def effective_config_text(values: dict) -> str:
    lines = ["# effective configuration (rerun with --config <this file>)"]
    lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def _write_echo(path: Path, values: dict) -> None:
    path.write_text(effective_config_text(values), encoding="utf-8")
    log.info("effective config written to %s", path)


def _setting(flag, extra: dict, key: str, kind: type, default=None):
    """The flag's value if given, else the config file's, else default."""
    if flag is not None:
        return flag
    return _coerce(key, extra[key], kind) if key in extra else default


def _noise_spec(sigma: float, seed: int) -> NoiseSpec:
    try:
        return NoiseSpec(sigma=sigma, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_noise(args: argparse.Namespace) -> int:
    extra = parse_config_file(args.config) if args.config else {}
    sigma = _setting(args.sigma, extra, "sigma", float)
    if sigma is None:
        raise UsageError("noise requires --sigma (or 'sigma' in the config file)")
    seed = _setting(args.seed, extra, "seed", int, 0)
    spec = _noise_spec(sigma, seed)
    cloud = load_cloud(args.input, args.input_format)
    noisy = add_gaussian_noise(cloud, spec)
    save_cloud(noisy, args.output, args.output_format)
    delta = noisy.positions - cloud.positions
    std = delta.std(axis=0, ddof=0)
    print(f"noise std per axis: {std[0]:.6g} {std[1]:.6g} {std[2]:.6g}")
    _write_echo(Path(args.output + ".config"),
                {**extra, "sigma": repr(sigma), "seed": str(seed)})
    return EXIT_OK


def cmd_denoise(args: argparse.Namespace) -> int:
    params, extra = build_params(args.config, args)
    cloud = load_cloud(args.input, args.input_format)
    log.info("denoising %d points from %s", cloud.n, args.input)
    t0 = time.perf_counter()
    result, diagnostics = denoise(cloud, params)
    elapsed = time.perf_counter() - t0
    save_cloud(result, args.output, args.output_format)
    diag_path = args.diagnostics or (args.output + ".diag")
    diagnostics.save(diag_path)
    _write_echo(Path(args.output + ".config"), {**params.as_dict(), **extra})
    if "windows" in diagnostics.meta:
        log.info("solved in %d windows, %.2f solves per point", diagnostics.meta["windows"],
                 diagnostics.meta["window_points"] / cloud.n)
        oversized = diagnostics.meta["windows_oversized"]
        if oversized:
            log.warning("%d of %d windows exceed window_budget=%d and were solved "
                        "oversized", oversized, diagnostics.meta["windows"],
                        params.window_budget)
    skipped = diagnostics.meta.get("no_support_pair_events", 0)
    if skipped:
        log.warning("%d node passes had no valid support pair and kept their "
                    "positions", skipped)
    at_cap = diagnostics.meta["passes_at_cap"]
    if at_cap:
        log.warning("%d passes stopped at admm_max_iter=%d with primal residual above "
                    "admm_tol=%g", at_cap, params.admm_max_iter, params.admm_tol)
    cg_at_cap = diagnostics.meta["cg_steps_at_cap"]
    if cg_at_cap:
        log.warning("%d position steps stopped at the CG iteration cap short of their "
                    "residual target", cg_at_cap)
    meta = diagnostics.meta
    log.debug("stage seconds: %s; bipartition levels %d",
              ", ".join(f"{key.removeprefix('seconds_')} {meta[key]:.3f}" for key in STAGE_KEYS),
              meta["bipartition_levels"])
    finals = [row[2] for row in diagnostics.final_rows()]
    log.info("done: %d passes, worst final primal residual %.3e, %.2fs",
             len(finals), max(finals, default=0.0), elapsed)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be at least 1, got {args.k}")
    ground = load_cloud(args.ground, None)
    test = load_cloud(args.test, None)
    t0 = time.perf_counter()
    report = evaluate(ground, test, k=args.k)
    runtime = time.perf_counter() - t0
    model = args.model or Path(args.test).stem
    print(report.to_table())
    print(CSV_HEADER)
    print(report.csv_row(model, args.sigma, runtime))
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    params, _ = build_params(args.config, args, _INSPECT_PARAMS)
    cloud = load_cloud(args.input, args.input_format)
    centred, graph = centred_knn_graph(cloud, params, DiagnosticsReport())
    # the bipartition only for the dumps that show it
    part = None if args.what == "graph" else approximate_bipartite(graph)
    if args.what == "graph":
        lines = edge_list_lines(graph)
    elif args.what == "bipartition":
        lines = bipartition_lines(part)
    else:  # normals
        cls = RED if args.which == "red" else BLUE
        field, failed = estimate_normal_field(
            centred, graph, part.assignment, cls, params.k, params.sigma_p,
            params.collinearity_tol,
        )
        if failed:
            log.warning("%d nodes had no valid support pair", len(failed))
        lines = normal_field_lines(field)
    out = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _bench_one(model_path: Path, spec: NoiseSpec, params: DenoiseParams,
               out_dir: Path) -> dict:
    """Noise + denoise + evaluate (at eval's default k) one model at one noise level."""
    clean = load_cloud(str(model_path))
    noisy = add_gaussian_noise(clean, spec)
    t0 = time.perf_counter()
    denoised, diagnostics = denoise(noisy, params)
    runtime = time.perf_counter() - t0
    stem = model_path.stem
    tag = f"{stem}_s{spec.sigma:g}"
    save_cloud(noisy, str(out_dir / f"{tag}_noisy.xyz"))
    save_cloud(denoised, str(out_dir / f"{tag}_denoised.xyz"))
    diagnostics.save(str(out_dir / f"{tag}.diag"))
    noisy_report = evaluate(clean, noisy)
    denoised_report = evaluate(clean, denoised)
    return {
        "model": stem,
        "sigma": spec.sigma,
        "seed": spec.seed,
        "c2c_noisy": noisy_report.c2c_mean_dist.symmetric,
        "c2c_denoised": denoised_report.c2c_mean_dist.symmetric,
        "c2p_noisy": noisy_report.c2p_mean_sq.symmetric,
        "c2p_denoised": denoised_report.c2p_mean_sq.symmetric,
        "runtime_s": runtime,
    }


def cmd_bench(args: argparse.Namespace) -> int:
    params, extra = build_params(args.config, args)
    model_dir = Path(args.model_dir)
    models = sorted(
        p for p in model_dir.iterdir()
        if p.suffix.lower() in (".xyz", ".ply")
    ) if model_dir.is_dir() else []
    if not models:
        raise UsageError(f"no .xyz or .ply models found in {args.model_dir}")
    sigmas = _setting(args.sigmas, extra, "sigmas", str, "0.1")
    seed = _setting(args.seed, extra, "seed", int, 0)
    specs = [_noise_spec(_coerce("sigmas", s, float), seed)
             for s in sigmas.split(",") if s.strip()]
    if not specs:
        raise UsageError("--sigmas must list at least one value")
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, failures = [], []
    for model in models:
        for spec in specs:
            try:
                rows.append(_bench_one(model, spec, params, out_dir))
            except Exception as exc:
                log.error("model %s sigma %g failed: %s", model.name, spec.sigma, exc)
                failures.append((model.name, spec.sigma))

    rows.sort(key=lambda r: (r["model"], r["sigma"]))
    header = (f"{'model':<20} {'sigma':>6} {'c2c noisy':>12} {'c2c denoised':>13} "
              f"{'c2p noisy':>12} {'c2p denoised':>13} {'time s':>8}")
    print(header)
    for r in rows:
        print(f"{r['model']:<20} {r['sigma']:>6g} {r['c2c_noisy']:>12.6f} "
              f"{r['c2c_denoised']:>13.6f} {r['c2p_noisy']:>12.6f} "
              f"{r['c2p_denoised']:>13.6f} {r['runtime_s']:>8.2f}")

    csv_path = out_dir / "bench.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(BENCH_CSV_HEADER + "\n")
        for r in rows:
            fh.write(f"{r['model']},{r['sigma']:g},{r['seed']},"
                     f"{r['c2c_noisy']:.9e},{r['c2c_denoised']:.9e},"
                     f"{r['c2p_noisy']:.9e},{r['c2p_denoised']:.9e}\n")
    log.info("benchmark CSV written to %s", csv_path)
    _write_echo(out_dir / "bench.config",
                {**params.as_dict(), **extra, "sigmas": sigmas, "seed": str(seed)})
    return EXIT_BENCH_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_param_flags(parser: argparse.ArgumentParser,
                     names: tuple = tuple(_PARAM_FIELDS)) -> None:
    group = parser.add_argument_group("solver parameters",
                                      "override config file and defaults")
    for name in names:
        group.add_argument("--" + name.replace("_", "-"), type=_PARAM_FIELDS[name],
                           default=None, metavar=_PARAM_FIELDS[name].__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtvdenoise",
        description="Point cloud denoising by graph-total-variation "
                    "regularization of surface normals.",
        epilog=f"eval CSV schema: {CSV_HEADER}. bench CSV schema: {BENCH_CSV_HEADER} "
               "(runtime excluded so reruns are byte-identical).",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log detail (repeatable)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="log warnings and errors only")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="flat 'key = value' config file")

    p = sub.add_parser("noise", parents=[common],
                       help="add seeded Gaussian noise to a cloud")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--sigma", type=float, default=None,
                   help="noise standard deviation per axis (model units)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--input-format", choices=("xyz", "ply"), default=None)
    p.add_argument("--output-format", choices=("xyz", "ply"), default=None)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("denoise", parents=[common], help="denoise a cloud")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--diagnostics", default=None,
                   help="diagnostics path (default <output>.diag)")
    p.add_argument("--input-format", choices=("xyz", "ply"), default=None)
    p.add_argument("--output-format", choices=("xyz", "ply"), default=None)
    _add_param_flags(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", help="compare a cloud against ground truth")
    p.add_argument("ground")
    p.add_argument("test")
    p.add_argument("--k", type=int, default=8, help="plane-fit neighborhood size (at least 1)")
    p.add_argument("--model", default=None, help="label for the CSV row")
    p.add_argument("--sigma", type=float, default=0.0, help="label for the CSV row")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", parents=[common],
                       help="dump intermediate pipeline structures")
    p.add_argument("input")
    p.add_argument("what", choices=("graph", "bipartition", "normals"))
    p.add_argument("--which", choices=("red", "blue"), default="red",
                   help="node class for 'normals'")
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.add_argument("--input-format", choices=("xyz", "ply"), default=None)
    _add_param_flags(p, _INSPECT_PARAMS)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bench", parents=[common],
                       help="noise + denoise + evaluate a directory of models")
    p.add_argument("model_dir")
    p.add_argument("--sigmas", default=None,
                   help="comma-separated noise levels (default 0.1)")
    p.add_argument("--seed", type=int, default=None,
                   help="noise seed for all runs (default 0)")
    p.add_argument("--output-dir", default="bench_out")
    _add_param_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING if args.quiet else (
        logging.DEBUG if args.verbose else logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except GtvDenoiseError as exc:
        log.error("%s", exc)
        return exc.exit_code
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
