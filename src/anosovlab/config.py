"""Flat key = value configuration files.

One namespace covers the model, sampling plans, correlation runs, catalog
generation, and statistics; each pipeline picks the keys it understands.
Lines are `key = value`, blank lines and # comments are skipped, keys are
validated against the schema below and values are coerced to the declared
type.  Unknown keys are errors, not warnings: a typo must not silently fall
back to a default.
"""
from __future__ import annotations

from typing import Dict, Mapping, Tuple

from .errors import ConfigError


def _parse_float_tuple(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError("bad float list %r" % text) from exc


# key -> (coercion, help)
SCHEMA: Dict[str, tuple] = {
    # model
    "model": (str, "constant_curvature or conformal_perturbation"),
    "epsilon": (float, "conformal perturbation strength"),
    "shape_sigma": (float, "width of the bump building the perturbation"),
    "orbit_depth": (int, "group-orbit truncation depth of the periodised bump"),
    "step": (float, "integrator step h"),
    "riccati_burn": (float, "relaxation time onto the unstable solution"),
    "horizon": (float, "longest allowed integration span"),
    "invariance_tol": (float, "acceptance bound on the periodisation defect"),
    # damping potential V = c0 + c1 psi + c2 u/2
    "potential_const": (float, "constant part of V"),
    "potential_shape": (float, "psi coefficient of V"),
    "potential_u_half": (float, "u/2 coefficient of V"),
    # orbit-ensemble sampling plan
    "n_orbits": (int, "random seeds in the averaging ensemble"),
    "seed_rule": (str, "liouville, words, or both"),
    "windows": (_parse_float_tuple, "increasing averaging windows"),
    "word_length": (int, "max word length for closed-geodesic seeds"),
    "max_closed": (int, "cap on closed-geodesic seeds"),
    "extrapolation_tol": (float, "edge convergence flag threshold"),
    "k_band": (int, "largest band index for band-edges"),
    # correlation runs
    "dt": (float, "correlation lag spacing"),
    "n_lags": (int, "number of lags"),
    "n_samples": (int, "Monte Carlo sample count"),
    "max_modes": (int, "inversion mode cap"),
    "sv_threshold": (float, "relative singular-value cutoff"),
    # synthetic catalog
    "area": (float, "surface area for synthetic spectra"),
    "mu_max": (float, "largest synthetic eigenvalue"),
    "jitter": (float, "synthetic spectrum jitter, in [0, 1/2)"),
    "k_max": (int, "largest band index in the catalog"),
    "n_max": (int, "largest integer resonance z = -n"),
    # statistics
    "im_cutoff": (float, "low-frequency exception cutoff c0"),
    "band_eps": (float, "band interval enlargement"),
    "eps_exponent": (float, "window growth exponent in the Weyl count"),
    "weyl_b": (float, "first counting height"),
    "weyl_b_max": (float, "last counting height"),
    "concentration_b_max": (float, "largest height in the concentration ladder"),
    "d_mean": (float, "damping average <D> for the concentration line"),
    # verification
    "verify_samples": (int, "orbit count for the hyperbolicity check"),
    "verify_time": (float, "check horizon for the hyperbolicity check"),
    "ks_samples": (int, "sample count for the volume invariance test"),
}

MODEL_KEYS = (
    "model", "epsilon", "shape_sigma", "orbit_depth", "step",
    "riccati_burn", "horizon", "invariance_tol",
)

PLAN_KEYS = (
    "n_orbits", "seed_rule", "windows", "word_length", "max_closed",
    "extrapolation_tol",
)


def parse_config_text(text: str) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if not value:
            raise ConfigError("line %d: empty value for %r" % (lineno, key))
        coerce = SCHEMA[key][0]
        try:
            out[key] = coerce(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                "line %d: bad value %r for %r" % (lineno, value, key)
            ) from exc
    return out


def parse_config(path) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc


def subset(cfg: Mapping, keys) -> Dict[str, object]:
    """The sub-mapping of cfg restricted to the given keys."""
    return {k: cfg[k] for k in keys if k in cfg}


def parse_observable(text: str):
    """Observable descriptors like 'bump=1.0,bump_sigma=0.5' or 'cos=1'.

    Terms: const, shape, u_half, cos, sin, bump, bump_center (complex, disk
    coordinates), bump_sigma.  Returns the coefficients as a dict suitable
    for ObservableSpec.
    """
    from .model import ObservableSpec

    fields = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" not in tok:
            raise ConfigError("observable term %r is not name=value" % tok)
        name, _, value = tok.partition("=")
        name = name.strip()
        value = value.strip()
        try:
            if name in ("const", "shape", "u_half", "cos", "sin", "bump"):
                fields["c_" + name] = float(value)
            elif name == "bump_center":
                fields[name] = complex(value)
            elif name == "bump_sigma":
                fields[name] = float(value)
            else:
                raise ConfigError("unknown observable term %r" % name)
        except ValueError as exc:
            raise ConfigError(
                "bad value %r for observable term %r" % (value, name)
            ) from exc
    return ObservableSpec(**fields)
