"""Command-line entry point wiring configs, pipelines, and artifacts.

One binary with a subcommand per pipeline.  Each handler takes the parsed
argparse namespace and the config mapping, and passes each library call only
the settings given (``_given``): the flag, else the config key, else the
called function's own default.  Every run writes its outputs plus a metadata
sidecar (config hash, seed, versions, the handler's extras) through one
helper, ``_save``; runtime failures exit 1 with a machine-readable error JSON
on stderr, while usage errors exit 2 through argparse.  Fixed (config, seed)
pairs give byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys


def _limit_threads(n):
    """Pin BLAS threads to n, else 1; without threadpoolctl nothing is pinned,
    so a given n, which could not take effect, is refused."""
    from .errors import ConfigError

    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        if n is None:
            return contextlib.nullcontext()
        raise ConfigError("--threads needs threadpoolctl, which is not installed")
    return threadpool_limits(limits=1 if n is None else n)


def _say(args, text):
    if not args.quiet:
        print(text)


def _given(args, cfg, **keys):
    """Keyword arguments from ``param="config_key"`` pairs: the flag parsed
    under the parameter's name, else the config key; a setting given neither
    way is left out, so the callee's default applies.  Only an absent flag
    (None) falls through, so an explicit zero or empty value is kept."""
    given = {}
    for param, key in keys.items():
        value = getattr(args, param, None)
        given[param] = cfg.get(key) if value is None else value
    return {p: v for p, v in given.items() if v is not None}


def _save(args, extra, write, *artifact):
    """Write the artifact to --out, then its sidecar with the extras."""
    from . import tableio

    write(args.out, *artifact)
    tableio.write_metadata(args.out, args.seed, args.config, extra=extra)


def _model(cfg):
    from .config import MODEL_KEYS, subset
    from .model import build_model

    return build_model(subset(cfg, MODEL_KEYS))


def _potential(args, cfg):
    from .model import PotentialSpec

    return PotentialSpec(**_given(args, cfg, c0="potential_const",
                                  c1="potential_shape", c2="potential_u_half"))


def _plan(args, cfg):
    from .birkhoff import SamplingPlan
    from .config import PLAN_KEYS, subset

    return SamplingPlan(seed=args.seed, **subset(cfg, PLAN_KEYS))


# per-band fields of the band-edges sidecar
_EDGE_DIAGNOSTICS = ("k", "converged", "gamma_plus_random", "gamma_plus_words",
                     "gamma_minus_random", "gamma_minus_words")


def _run_band_edges(args, cfg, model=None):
    from .birkhoff import band_edges_upto
    from .tableio import write_band_edges

    if model is None:
        model = _model(cfg)
    edges = band_edges_upto(model, _potential(args, cfg), plan=_plan(args, cfg),
                            **_given(args, cfg, k_max="k_band"))
    _save(args, {"diagnostics": [
        {f: getattr(e, f) for f in _EDGE_DIAGNOSTICS} for e in edges
    ]}, write_band_edges, edges)
    for e in edges:
        _say(args, "k=%d  [%.6f, %.6f]  err %.2e" % (
            e.k, e.gamma_minus, e.gamma_plus, e.extrapolation_error))
    return edges


def _run_resonances(args, cfg):
    from .catalog import resonances_from_laplacian, synthetic_weyl_spectrum
    from .tableio import read_spectrum, write_resonances

    if getattr(args, "spectrum", None) is None:
        spectrum = synthetic_weyl_spectrum(seed=args.seed, **_given(
            args, cfg, area="area", mu_max="mu_max", jitter="jitter"))
    else:
        spectrum = read_spectrum(args.spectrum)
    rl = resonances_from_laplacian(
        spectrum, **_given(args, cfg, k_max="k_max", n_max="n_max"))
    _save(args, {"area": spectrum.area, "source": spectrum.source,
                 "n_entries": len(rl)}, write_resonances, rl)
    _say(args, "%d resonances" % len(rl))
    return rl


def _run_correlate(args, cfg):
    from .config import parse_observable
    from .correlation import correlation_series, mean_zero_all, orbit_plan
    from .model import ObservableSpec
    from .tableio import write_series

    model = _model(cfg)
    u = ObservableSpec(c_bump=1.0) if args.u is None else parse_observable(args.u)
    # no --v is the autocorrelation of u, whose mean-zero shift runs once
    specs = [u] if args.v is None else [u, parse_observable(args.v)]
    if not args.raw_mean:
        specs = mean_zero_all(model, specs)
    u, v = specs[0], specs[-1]
    series = correlation_series(
        model, u, v, seed=args.seed,
        **_given(args, cfg, dt="dt", n_lags="n_lags", n_samples="n_samples"))
    n_orbits, stride, length = orbit_plan(len(series), series.n_samples)
    _save(args, {"n_samples": series.n_samples, "n_orbits": n_orbits,
                 "stride": stride, "orbit_length": length,
                 "volume": series.volume}, write_series, series)
    _say(args, "series of %d lags, C(0) = %.6g" % (
        len(series), series.values[0]))


def _run_invert(args, cfg):
    import numpy as np

    from .inversion import harmonic_inversion
    from .tableio import read_series, write_modes

    series = read_series(args.series)
    found = harmonic_inversion(series, **_given(
        args, cfg, max_modes="max_modes", sv_threshold="sv_threshold"))
    # modes at or below the series' noise floor are not resolved
    floor = 5.0 * float(np.median(series.stderr))
    modes = found.significant(floor)
    _save(args, {"n_modes": len(modes), "residual": modes.residual,
                 "noise_floor": floor, "n_dropped": len(found) - len(modes)},
          write_modes, modes)
    _say(args, "%d modes, residual %.3g" % (len(modes), modes.residual))


def _resonance_list(args, rl):
    """The catalogue handed over in memory, else the --resonances file."""
    from .tableio import read_resonances

    return read_resonances(args.resonances) if rl is None else rl


def _run_weyl(args, cfg, rl=None):
    from .stats import weyl_count
    from .tableio import write_csv

    rl = _resonance_list(args, rl)
    report = weyl_count(rl, k=args.k, **_given(
        args, cfg, b="weyl_b", eps_exponent="eps_exponent", b_max="weyl_b_max"))
    _save(args, {"k": report.k, "slope": report.slope,
                 "prefactor": report.prefactor,
                 "fit_omitted": report.fit_omitted},
          write_csv, ("b", "count"), zip(report.ladder, report.window_counts))
    _say(args, "slope %s over %d rungs" % (report.slope, len(report.ladder)))


def _run_bands(args, cfg, rl=None, edges=None):
    from .stats import band_membership
    from .tableio import read_band_edges, write_csv

    rl = _resonance_list(args, rl)
    if edges is None:
        edges = read_band_edges(args.edges)
    # default enlargement matches the accuracy contract of fitted edges
    report = band_membership(rl, edges, **{"eps": 1.0e-3, **_given(
        args, cfg, eps="band_eps", im_cutoff="im_cutoff")})
    labels = sorted(report.counts, key=str)
    _save(args, {"n_violations": report.n_violations,
                 "im_cutoff": report.im_cutoff, "eps": report.eps},
          write_csv, ("label", "count"),
          [(l, report.counts[l]) for l in labels])
    _say(args, "violations: %d of %d" % (
        report.n_violations, len(report.assignments)))


def _run_concentrate(args, cfg, rl=None):
    from .stats import concentration
    from .tableio import write_csv

    rl = _resonance_list(args, rl)
    given = _given(args, cfg, d_mean="d_mean", b_max="concentration_b_max")
    if "d_mean" not in given:
        raise _usage("concentrate needs --dmean or a d_mean config key")
    report = concentration(rl, **given)
    _save(args, {"d_mean": report.d_mean, "final": report.final,
                 "nonincreasing": report.nonincreasing},
          write_csv, ("b", "statistic"), zip(report.ladder, report.statistic))
    _say(args, "final statistic %s (nonincreasing: %s)" % (
        report.final, report.nonincreasing))


def _run_verify(args, cfg, model=None):
    """Hyperbolicity and energy checks, plus the volume test on an exact model.

    The closed-orbit seeds follow the plan keys band-edges seeds with
    (``word_length``, ``max_closed``); the volume seeds, ``verify_samples``.
    """
    import dataclasses

    from .flow import liouville_ks, verify_anosov
    from .tableio import write_json

    if model is None:
        model = _model(cfg)
    report = verify_anosov(model, seed=args.seed, **_given(
        args, cfg, n_samples="verify_samples", t_check="verify_time",
        word_length="word_length", max_closed="max_closed"))
    payload = dict(dataclasses.asdict(report), passed=report.passed)
    if model.is_exact:
        ks = liouville_ks(model, seed=args.seed, **_given(args, cfg, n="ks_samples"))
        payload["volume_ks"] = {k: float(v) for k, v in ks.items()}
    _save(args, None, write_json, payload)
    _say(args, "hyperbolicity check passed: %s (lambda %.4f)" % (
        report.passed, report.lambda_min))


def _run_orbit_dump(args, cfg):
    import numpy as np

    from .flow import _step_count, evaluate_observable, make_ensemble, sample_liouville
    from .model import damping_observable
    from .tableio import write_orbit_dump

    model = _model(cfg)
    damp = damping_observable(model, _potential(args, cfg))
    given = _given(args, cfg, t="horizon", dt="dt")
    span, dt = given.get("t", 50.0), given.get("dt", 0.1)
    n = _step_count(model, span, dt, "t" if args.t is not None else "horizon")
    rng = np.random.default_rng(args.seed)
    z, th = sample_liouville(model, 1, rng)
    ens = make_ensemble(model, z, th).burn_in()
    rows_t, rows_z, rows_th, rows_u, rows_d = [], [], [], [], []
    for i in range(n + 1):
        if i:
            ens.advance(dt)
        zz, tt, uu = ens.states()
        rows_t.append(i * dt)
        rows_z.append(zz[0])
        rows_th.append(tt[0])
        rows_u.append(uu[0])
        rows_d.append(float(evaluate_observable(model, damp, zz, u=uu)[0]))
    _save(args, {"span": span, "dt": dt}, write_orbit_dump,
          rows_t, rows_z, rows_th, rows_u, rows_d)


def _run_figure2(args, cfg):
    """verify -> edges -> synthetic catalog -> bands/weyl/concentrate.

    The model is built once for every stage that needs it.  The catalogue
    and the edges pass to the last three stages in memory; the files hold
    the same values, since floats are written to round-trip.  Edges run to
    k_band, else 3; the line is d_mean, else the volume average of D.
    """
    from .birkhoff import space_average
    from .model import damping_observable

    os.makedirs(args.out, exist_ok=True)

    def sub(name, **options):
        return argparse.Namespace(
            **dict(vars(args), out=os.path.join(args.out, name), **options))

    model = _model(cfg)
    given = {"k_max": 3, **_given(args, cfg, k_max="k_band", d_mean="d_mean")}
    _run_verify(sub("verify.json"), cfg, model)
    edges = _run_band_edges(sub("band_edges.csv", k_max=given["k_max"]), cfg,
                            model)
    rl = _run_resonances(sub("resonances.json"), cfg)
    _run_bands(sub("bands.csv"), cfg, rl, edges)
    _run_weyl(sub("weyl.csv", k=0), cfg, rl)
    d_mean = given.get("d_mean")
    if d_mean is None:
        d_mean, _ = space_average(
            model, damping_observable(model, _potential(args, cfg)),
            seed=args.seed)
    _run_concentrate(sub("concentration.csv", d_mean=d_mean), cfg, rl)


_HANDLERS = {
    "band-edges": _run_band_edges,
    "resonances": _run_resonances,
    "correlate": _run_correlate,
    "invert": _run_invert,
    "weyl": _run_weyl,
    "bands": _run_bands,
    "concentrate": _run_concentrate,
    "verify-anosov": _run_verify,
    "reproduce-fig2": _run_figure2,
    "orbit-dump": _run_orbit_dump,
}


class _usage(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anosovlab",
        description="resonance band structure of surface geodesic flows",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--seed", type=int, default=0,
                        help="random seed recorded in all artifacts")
    common.add_argument("--out", required=True,
                        help="output file (directory for reproduce-fig2)")
    common.add_argument("--threads", type=int,
                        help="linear-algebra worker threads (default 1; "
                        "given, it needs threadpoolctl)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")

    sub = parser.add_subparsers(dest="pipeline", required=True)

    p = sub.add_parser("band-edges", parents=[common],
                       help="extremal-average band edges up to --k")
    p.add_argument("--k", dest="k_max", type=int,
                   help="largest band index (default 0)")

    p = sub.add_parser("resonances", parents=[common],
                       help="analytic catalog from a Laplace spectrum")
    p.add_argument("--spectrum", help="CSV index,mu (else synthetic)")
    p.add_argument("--kmax", dest="k_max", type=int, help="largest band index")
    p.add_argument("--nmax", dest="n_max", type=int, help="largest integer resonance")

    p = sub.add_parser("correlate", parents=[common],
                       help="Monte Carlo correlation series")
    p.add_argument("--u", help="observable, e.g. 'bump=1,bump_sigma=0.5'")
    p.add_argument("--v", help="observable (default: the --u observable)")
    p.add_argument("--raw-mean", dest="raw_mean", action="store_true",
                   help="skip the mean-zero shift of u and v")

    p = sub.add_parser("invert", parents=[common],
                       help="harmonic inversion of a series CSV")
    p.add_argument("--series", required=True)
    p.add_argument("--max-modes", dest="max_modes", type=int)
    p.add_argument("--sv-threshold", dest="sv_threshold", type=float)

    p = sub.add_parser("weyl", parents=[common],
                       help="window counts along a height ladder")
    p.add_argument("--resonances", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--b", type=float)
    p.add_argument("--bmax", dest="b_max", type=float)

    p = sub.add_parser("bands", parents=[common],
                       help="membership of resonances in enlarged bands")
    p.add_argument("--resonances", required=True)
    p.add_argument("--edges", required=True, help="band-edge CSV")
    p.add_argument("--eps", type=float)
    p.add_argument("--im-cutoff", dest="im_cutoff", type=float)

    p = sub.add_parser("concentrate", parents=[common],
                       help="mean distance to the line Re z = <D>")
    p.add_argument("--resonances", required=True)
    p.add_argument("--dmean", dest="d_mean", type=float)
    p.add_argument("--bmax", dest="b_max", type=float)

    sub.add_parser("verify-anosov", parents=[common],
                   help="hyperbolicity, energy-drift, and volume checks")

    p = sub.add_parser("orbit-dump", parents=[common],
                       help="one sampled orbit as CSV (t,x,y,theta,u,D)")
    p.add_argument("--t", type=float, help="time span")

    sub.add_parser("reproduce-fig2", parents=[common],
                   help="chain the pipelines behind both figure panels")
    return parser


def run(args: argparse.Namespace) -> None:
    """Execute one pipeline, writing its artifacts and their sidecars."""
    from .config import parse_config

    cfg = {} if args.config is None else parse_config(args.config)
    with _limit_threads(args.threads):
        _HANDLERS[args.pipeline](args, cfg)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run(args)
    except _usage as exc:
        parser.error(str(exc))  # exits 2
    except Exception as exc:
        payload = {
            "error": type(exc).__name__,
            "message": str(exc),
            "pipeline": args.pipeline,
        }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
