"""Command-line interface: synthesize, corrupt, denoise, score, and sweep.

Exit codes: 0 on success, 1 on runtime or numerical failure, 2 on usage or
schema errors (argparse errors, out-of-range or non-finite filter, window,
thread, noise or dispersion settings, non-positive wavelengths, malformed
manifests, shape mismatches, missing dispersion data).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import evaluate, synth
from .ccf import WindowSpec
from .cdbm3d import DenoiseConfig, Stages, Variant
from .cube import read_cube, write_cube
from .errors import (
    DimensionMismatch,
    DispersionRequired,
    HscubeError,
    InvalidConfig,
    ManifestError,
    NonPositiveWavelength,
)
from .evaluate import (
    AVERAGE_MODES,
    METHOD_NAMES,
    MethodDef,
    ObjectDef,
    apply_method,
    make_report,
    parse_manifest,
    write_csv,
)
from .parallel import resolve_threads
from .synth import DispersionModel, NoiseSpec, ObjectKind, add_noise

USAGE_ERRORS = (
    ManifestError, DimensionMismatch, DispersionRequired, InvalidConfig, NonPositiveWavelength
)


def _add_dispersion_flag(parser):
    parser.add_argument(
        "--dispersion",
        metavar="A0,B0[,C0]",
        help="comma-separated Cauchy coefficients (DispersionModel.a0/b0_um2/c0_um4); "
        "defaults to BK7 glass",
    )


def _model_from(args) -> DispersionModel:
    if args.dispersion is None:
        return DispersionModel()
    try:
        coeffs = [float(part) for part in args.dispersion.split(",")]
    except ValueError:
        raise ManifestError(f"--dispersion: not numeric: {args.dispersion!r}")
    if len(coeffs) not in (2, 3):
        raise ManifestError("--dispersion: expected A0,B0 or A0,B0,C0")
    return DispersionModel(*coeffs)


def _add_config_flags(parser):
    d = DenoiseConfig()
    parser.add_argument("--patch", nargs=2, type=int, default=[d.patch_rows, d.patch_cols],
                        metavar=("R", "C"),
                        help="patch size in pixels (DenoiseConfig.patch_rows/patch_cols)")
    parser.add_argument("--patch-step", type=int, default=d.patch_step,
                        help="reference-patch grid step (DenoiseConfig.patch_step)")
    parser.add_argument("--search-radius", type=int, default=d.search_radius,
                        help="half-size of the block-matching window (DenoiseConfig.search_radius)")
    parser.add_argument("--group-size", type=int, default=d.max_group_size,
                        help="maximum matched patches per group (DenoiseConfig.max_group_size)")
    parser.add_argument("--match-threshold", type=float, default=d.match_threshold,
                        help="per-pixel squared distance cutoff for matches "
                        "(DenoiseConfig.match_threshold); unset keeps the best K")
    parser.add_argument("--hard-threshold", type=float, default=d.hard_threshold_factor,
                        help="hard threshold in units of sigma (DenoiseConfig.hard_threshold_factor)")
    parser.add_argument("--variant", choices=[v.value for v in Variant], default=d.variant.value,
                        help="group tensor layout (DenoiseConfig.variant)")
    parser.add_argument("--stages", choices=[s.value for s in Stages], default=d.stages.value,
                        help="filtering stages to run (DenoiseConfig.stages)")


def _config_from(args, sigma=None) -> DenoiseConfig:
    return DenoiseConfig(
        patch_rows=args.patch[0],
        patch_cols=args.patch[1],
        patch_step=args.patch_step,
        search_radius=args.search_radius,
        max_group_size=args.group_size,
        match_threshold=args.match_threshold,
        hard_threshold_factor=args.hard_threshold,
        sigma=sigma,
        variant=Variant(args.variant),
        stages=Stages(args.stages),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hscube",
        description="Complex-valued hyperspectral cube denoising toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a phase-object truth cube and a noisy copy")
    p_synth.add_argument("--object", required=True, choices=sorted(k.value for k in ObjectKind))
    p_synth.add_argument("--size", nargs=3, type=int, required=True, metavar=("N", "M", "L"),
                         help="rows, columns, bands")
    p_synth.add_argument("--lambda", dest="lambda_nm", nargs=2, type=float,
                         default=[400.0, 798.0], metavar=("LO", "HI"),
                         help="wavelength range in nm")
    p_synth.add_argument("--sigma", type=float, default=0.0,
                         help="total std of the complex noise (NoiseSpec.sigma)")
    p_synth.add_argument("--seed", type=int, default=0, help="noise seed (NoiseSpec.seed)")
    p_synth.add_argument("--target-phase", type=float, default=ObjectDef.target_phase,
                         help="peak phase at the shortest wavelength for interferometric objects")
    p_synth.add_argument("--max-phase-400", dest="max_phase", type=float,
                         default=ObjectDef.max_phase,
                         help="peak phase at the shortest wavelength for the wrapped object")
    _add_dispersion_flag(p_synth)
    p_synth.add_argument("--out", default="truth.chsc", help="truth cube path")
    p_synth.add_argument("--noisy-out", default="noisy.chsc", help="noisy cube path")
    p_synth.set_defaults(func=cmd_synth)

    p_den = sub.add_parser("denoise", help="denoise a cube file")
    p_den.add_argument("--method", required=True,
                       choices=[name for name in METHOD_NAMES if name != "noop"])
    p_den.add_argument("--window", type=int, default=WindowSpec.width,
                       help="sliding window width in bands (WindowSpec.width)")
    p_den.add_argument("--step", type=int, default=WindowSpec.step,
                       help="sliding window center spacing (WindowSpec.step)")
    p_den.add_argument("--sigma", type=float, default=None,
                       help="noise std for per-slice methods (DenoiseConfig.sigma); "
                       "estimated per slice when omitted")
    p_den.add_argument("--average-mode", choices=AVERAGE_MODES,
                       default=MethodDef.average_mode,
                       help="thickness averaging span for --method average")
    _add_dispersion_flag(p_den)
    _add_config_flags(p_den)
    p_den.add_argument("--threads", type=int, default=None,
                       help="worker cap (HSCUBE_THREADS is the fallback); results do not depend on it")
    p_den.add_argument("--subspace-csv", default=None,
                       help="dump eigenvalues and subspace error curves to this CSV")
    p_den.add_argument("--timings", action="store_true",
                       help="record wall-clock seconds in the sidecar (off keeps outputs identical)")
    p_den.add_argument("input")
    p_den.add_argument("output")
    p_den.set_defaults(func=cmd_denoise)

    p_met = sub.add_parser("metrics", help="score an estimate against a truth cube")
    p_met.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_met.add_argument("estimate")
    p_met.add_argument("truth")
    p_met.set_defaults(func=cmd_metrics)

    p_sweep = sub.add_parser("sweep", help="run the experiment combinations of a manifest")
    p_sweep.add_argument("--threads", type=int, default=None,
                         help="worker cap (HSCUBE_THREADS is the fallback)")
    p_sweep.add_argument("--timings", action="store_true",
                         help="record wall-clock seconds in the CSV")
    p_sweep.add_argument("--out", default=None,
                         help="CSV path override (manifest output_csv, else stdout)")
    p_sweep.add_argument("manifest")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def cmd_synth(args) -> int:
    model = _model_from(args)
    (n, m, l), (lo, hi) = synth._check_geometry(args.size, args.lambda_nm)
    obj = ObjectDef(
        kind=ObjectKind(args.object),
        name=args.object,
        target_phase=args.target_phase,
        max_phase=args.max_phase,
    )
    noise = NoiseSpec(sigma=args.sigma, seed=args.seed)
    truth = obj.truth((n, m, l), (lo, hi), model)
    write_cube(truth, args.out)
    noisy = add_noise(truth, noise)
    write_cube(noisy, args.noisy_out)
    snr = evaluate.snr_db(noisy, truth)
    print(f"wrote {args.out} and {args.noisy_out} ({n}x{m}x{l})")
    print(f"noisy SNR: {snr:.2f} dB" if np.isfinite(snr) else "noisy SNR: inf dB")
    return 0


def _write_subspace_csv(path, windows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["window_center", "candidate_dim", "eigenvalue", "mse", "chosen_p"])
        for info in windows:
            center = info["center"] if info["center"] is not None else ""
            for k, (ev, mse) in enumerate(zip(info["eigenvalues"], info["mse_curve"]), start=1):
                writer.writerow([center, k, repr(ev), repr(mse), info["p"]])


def cmd_denoise(args) -> int:
    noisy = read_cube(args.input)
    threads = resolve_threads(args.threads)
    cfg = _config_from(args, sigma=args.sigma)
    model = _model_from(args) if args.dispersion is not None else None
    if args.method == "average" and model is None:
        raise DispersionRequired("--method average needs --dispersion coefficients")
    method = MethodDef(
        name=args.method,
        config=cfg,
        window=WindowSpec(width=args.window, step=args.step),
        average_mode=args.average_mode,
    )
    sidecar_path = args.output + ".json"
    try:
        t0 = time.perf_counter()
        est, diagnostics = apply_method(method, noisy, None, model, threads=threads)
        seconds = time.perf_counter() - t0
        write_cube(est, args.output)
        sidecar = {
            "schema_version": 1,
            "method": args.method,
            "input": args.input,
            "output": args.output,
            "config": evaluate.config_snapshot(cfg),
            "window": {"width": args.window, "step": args.step}
            if args.method == "ccf-sliding"
            else None,
            "average_mode": args.average_mode if args.method == "average" else None,
            "threads": threads,
            "seconds": seconds if args.timings else None,
            "windows": [
                {key: info[key] for key in
                 ("center", "band_lo", "band_hi", "kept_bands", "p", "sigma_eigen")}
                for info in diagnostics
            ],
        }
        with open(sidecar_path, "w") as f:
            json.dump(sidecar, f, indent=1)
            f.write("\n")
        if args.subspace_csv and diagnostics:
            _write_subspace_csv(args.subspace_csv, diagnostics)
    except Exception:
        for path in (args.output, sidecar_path):
            if os.path.exists(path):
                os.unlink(path)
        raise
    print(f"wrote {args.output} ({len(diagnostics)} window(s))")
    return 0


def cmd_metrics(args) -> int:
    est = read_cube(args.estimate)
    truth = read_cube(args.truth)
    if est.shape != truth.shape:
        raise DimensionMismatch(
            f"estimate shape {est.shape} does not match truth shape {truth.shape}"
        )
    report = make_report(
        est,
        truth,
        float("nan"),  # snr_db holds the input SNR, and metrics never sees the noisy cube
        object_name=os.path.basename(args.truth),
        method=os.path.basename(args.estimate),
        sigma=None,
        seed=None,
    )
    if args.out:
        write_csv([report], args.out)
        print(f"wrote {args.out}")
    else:
        write_csv([report], sys.stdout)
    return 0


def cmd_sweep(args) -> int:
    try:
        with open(args.manifest) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise ManifestError(f": not valid JSON ({exc})")
    manifest = parse_manifest(doc)
    threads = resolve_threads(args.threads)
    reports, failures = evaluate.run_experiment(
        manifest, threads=threads, measure_time=args.timings
    )
    target = args.out or manifest.output_csv
    if target:
        write_csv(reports, target)
        print(f"wrote {target} ({len(reports)} combination(s))")
    else:
        write_csv(reports, sys.stdout)
    for label, message in failures:
        print(f"FAILED {label}: {message}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HscubeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
