"""Ensemble ratio checks for the space-time inequalities behind the solver.

Every check has the same shape: draw randomized data, evaluate the left and
right side of one inequality, record the ratio.  A bounded, refinement-stable
max ratio is the numerical surrogate for the existence of a constant; the
reports never claim more than an empirical C at sampling resolution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .norms import (
    besov_norm,
    holder_conjugate,
    lebesgue_norm,
    lhat_norm,
    lhat_sup,
    weighted_norm,
    weighted_power_sum,
)
from .solver import (
    ALPHA_LOWER,
    ALPHA_UPPER,
    NonlinearityG,
    aux_smoothness,
    critical_exponent,
    retarded_integral,
)
from .spacetime import (
    TimeTrace,
    _sample_times,
    _shared_tables,
    _solve_exponents,
    classify_pair,
    free_evolution,
    mixed_norm,
    snorm,
    xnorm,
    ynorm,
)
from .spectral import (
    Grid1D,
    SpectralField,
    _map_items,
    _plan,
    _work_buffer,
    apply_pointwise_matrix,
    random_band_limited,
    riesz_weights,
)
from .traceio import atomic_write_text, jsonable as _jsonable

@dataclass(frozen=True)
class EstimateSpec:
    """One configured verification run."""

    estimate_id: str
    params: dict = field(default_factory=dict)
    half_length: float = 64.0
    size: int = 256
    interval: Tuple[float, float] = (0.0, 1.0)
    samples_per_unit: int = 128
    ensemble: int = 50
    seed: int = 0
    band: Optional[int] = None
    decays: Tuple[float, ...] = (0.6, 1.0, 1.6)
    amplitude: float = 1.0

    def __post_init__(self):
        _estimate(self.estimate_id)
        if self.ensemble < 1:
            raise ValueError("ensemble must be at least 1")
        a, b = self.interval
        if not b > a:
            raise ValueError(f"empty time interval {self.interval}")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        if not self.decays:
            raise ValueError("need at least one spectral decay rate")
        if self.samples_per_unit < 2:
            raise ValueError("samples_per_unit must be >= 2")
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "interval", (float(a), float(b)))
        object.__setattr__(self, "decays", tuple(float(d) for d in self.decays))

    def grid(self) -> Grid1D:
        return Grid1D(self.half_length, self.size)

    def resolved_band(self) -> int:
        return self.band if self.band is not None else self.size // 4

    def times(self) -> np.ndarray:
        return _sample_times(*self.interval, self.samples_per_unit)


@dataclass
class EstimateReport:
    estimate_id: str
    params: dict
    seed: int
    half_length: float
    size: int
    sample_count: int
    ensemble: int
    ratios: List[float]
    max_ratio: float
    mean_ratio: float
    refinement: List[dict]
    samples: List[dict]
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.refinement:
            raise ValueError("refinement trace must be nonempty")
        if not (self.max_ratio >= self.mean_ratio >= 0.0):
            raise ValueError("ratio statistics out of order")

    def to_dict(self) -> dict:
        doc = {
            "id": self.estimate_id,
            "params": self.params,
            "seed": self.seed,
            "N": self.size,
            "L": self.half_length,
            "M": self.sample_count,
            "ensemble": self.ensemble,
            "max_ratio": self.max_ratio,
            "mean_ratio": self.mean_ratio,
            "refinement": self.refinement,
        }
        if self.extras:
            doc["extras"] = self.extras
        return _jsonable(doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write_csv(self, path) -> None:
        lines = ["sample,decay,ratio"]
        for row in self.samples:
            lines.append(f"{row['sample']},{row['decay']:g},{row['ratio']:.17g}")
        atomic_write_text(path, "\n".join(lines) + "\n")


def _ensemble(spec: EstimateSpec, one: Callable,
              start: int = 0) -> Tuple[List[float], List[dict]]:
    """Ratios of samples start .. start + spec.ensemble - 1 of the seed's ensemble.

    Child seeds of a larger spawn begin with those of a smaller one, so the
    samples from start on are the ones a full ensemble of start +
    spec.ensemble would draw there.  The samples go through _map_items, by
    index: a leg shares phase tables, and each thread has its own work buffer.
    """
    grid = spec.grid()
    times = spec.times()
    band = spec.resolved_band()
    seeds = np.random.SeedSequence(spec.seed).spawn(start + spec.ensemble)[start:]
    rows: List[Optional[dict]] = [None] * spec.ensemble

    def sample(i):
        decay = spec.decays[i % len(spec.decays)]
        num, den = one(grid, times, band, decay, seeds[i - start])
        if not den > 0:
            raise ArithmeticError(f"degenerate right-hand side for sample {i}")
        rows[i - start] = {"sample": i, "decay": decay, "ratio": float(num / den)}

    with _shared_tables(), _work_buffer():
        _map_items(range(start, start + spec.ensemble), sample)
    return [row["ratio"] for row in rows], rows


def _datum(grid, band, decay, seed, amplitude) -> SpectralField:
    return amplitude * random_band_limited(grid, decay=decay, band=band, seed=seed)


# ---------------------------------------------------------------------------
# free-propagator bounds


def _check_stein_tomas(params: dict) -> dict:
    r = float(params.get("r", 6.0))
    if not r > 4.0:
        raise ValueError(f"the restriction-type space-time bound needs r > 4, got r = {r:g}")
    return {"r": r}


def _free_sample(spec, ratio) -> Callable:
    """One sample's work for an id whose ratio reads a random datum f and its free flow.

    ratio(f, u) gets the datum and its free trace on the sample's times and
    returns (num, den).
    """
    def one(grid, times, band, decay, child):
        f = _datum(grid, band, decay, child, spec.amplitude)
        return ratio(f, free_evolution(f, times))

    return one


def _run_stein_tomas(spec, rp):
    r = rp["r"]
    return _free_sample(spec, lambda f, u: (mixed_norm(u, r, r, 1.0 / r),
                                            lhat_norm(f, r / 3.0))), {}


def _check_kenig_ruiz(params: dict) -> dict:
    return {}


def _run_kenig_ruiz(spec, rp):
    # the time sup is a sample maximum, hence a certified lower bound
    return _free_sample(spec, lambda f, u: (mixed_norm(u, 4.0, math.inf, -0.25),
                                            lebesgue_norm(f, 2.0))), {}


def _check_kato(params: dict) -> dict:
    q = float(params.get("q", 2.0))
    if not (2.0 <= q):
        raise ValueError(f"the local-smoothing bound needs q in [2, inf], got q = {q:g}")
    return {"q": q}


def _run_kato(spec, rp):
    q = rp["q"]
    s = 0.0 if math.isinf(q) else 2.0 / q
    return _free_sample(spec, lambda f, u: (mixed_norm(u, math.inf, q, s), lhat_norm(f, q))), {}


def _check_strichartz(params: dict) -> dict:
    s = float(params.get("s", 1.0 / 6.0))
    r = float(params.get("r", 2.0))
    cls = classify_pair(s, r)
    if not cls.acceptable:
        raise ValueError(
            f"(s, r) = ({s:g}, {r:g}) is outside the admissible smoothness and "
            "integrability window for the homogeneous space-time bound"
        )
    p, q = cls.exponents
    return {"s": s, "r": r, "p": float(p), "q": float(q), "boundary": cls.boundary}


def _run_strichartz(spec, rp):
    s, r, p, q = rp["s"], rp["r"], rp["p"], rp["q"]
    one = _free_sample(spec, lambda f, u: (mixed_norm(u, p, q, s), lhat_norm(f, r)))
    return one, {"exponents": {"p": p, "q": q}, "boundary_pair": rp["boundary"]}


# ---------------------------------------------------------------------------
# retarded (Duhamel) bounds


def _require_duhamel_window(tag: str, s: float, inv_rho: float) -> Tuple[float, float]:
    """exponent_map's (p, q) at (s, 1/inv_rho), inside the retarded bounds' window."""
    (invp, invq), exponents = _solve_exponents(s, inv_rho)
    if not (0.0 <= invp < 0.25 and 0.0 <= invq < 0.5 - invp):
        raise ValueError(
            f"{tag}: derived exponents need 0 <= 1/p < 1/4 and 0 <= 1/q < 1/2 - 1/p, "
            f"got 1/p = {invp:g}, 1/q = {invq:g}"
        )
    return exponents


def _check_inhom_linf(params: dict) -> dict:
    r = float(params.get("r", 2.0))
    if not (4.0 / 3.0 < r < 4.0):
        raise ValueError(f"the retarded bounds need 4/3 < r < 4, got r = {r:g}")
    s2 = float(params.get("s2", 0.25))
    rprime = holder_conjugate(r)
    p2, q2 = _require_duhamel_window("forcing side", s2, 1.0 / rprime)
    return {"r": r, "s2": s2, "p2": p2, "q2": q2}


def _check_inhom_xy(params: dict) -> dict:
    rp = _check_inhom_linf(params)
    s1 = float(params.get("s1", 0.25))
    p1, q1 = _require_duhamel_window("output side", s1, 1.0 / rp["r"])
    rp.update({"s1": s1, "p1": p1, "q1": q1})
    return rp


def _forcing_trace(spec, grid, times, band, decay, child) -> TimeTrace:
    """Space-time forcing shaped as d_x of a modulated free wave.

    Band-limited with an empty zero mode by construction, so negative
    smoothing weights act on it without ambiguity.
    """
    kids = child.spawn(2)
    g = random_band_limited(grid, decay=decay, band=band, seed=kids[0])
    rng = np.random.default_rng(kids[1])
    omega = rng.uniform(1.0, 4.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    envelope = 1.0 + 0.5 * np.sin(omega * times + phase)
    rows = free_evolution(g, times).coeffs
    np.multiply(envelope[:, None], rows, out=rows)
    np.multiply(1j * _plan(grid.half_length, grid.size).xi, rows, out=rows)
    np.multiply(spec.amplitude, rows, out=rows)
    return TimeTrace(grid, times, rows)


def _retarded_sample(spec, rp, size) -> Callable:
    """One sample's work for a retarded bound: size(integral) over the forcing's dual norm.

    The retarded integral overwrites the forcing once its dual norm is
    taken, and size maps the integral's trace to the ratio's numerator.
    """
    pd, qd = holder_conjugate(rp["p2"]), holder_conjugate(rp["q2"])

    def one(grid, times, band, decay, child):
        forcing = _forcing_trace(spec, grid, times, band, decay, child)
        den = mixed_norm(forcing, pd, qd, -rp["s2"])
        return size(retarded_integral(forcing, out=forcing.coeffs)), den

    return one


def _run_inhom_linf(spec, rp):
    r = rp["r"]
    return _retarded_sample(spec, rp, lambda w: lhat_sup(w.coeffs, w.grid.dxi, r)), {}


def _run_inhom_xy(spec, rp):
    p1, q1, s1 = rp["p1"], rp["q1"], rp["s1"]
    return _retarded_sample(spec, rp, lambda w: mixed_norm(w, p1, q1, s1)), {}


# ---------------------------------------------------------------------------
# calculus inequalities on traces


def _open_exponents(params: dict, **defaults: float) -> dict:
    """The exponents named in defaults, from params or else the default, each in (1, inf)."""
    rp = {}
    for name, default in defaults.items():
        rp[name] = float(params.get(name, default))
        if not (1.0 < rp[name] < math.inf):
            raise ValueError(f"{name} must lie strictly between 1 and infinity, got {rp[name]:g}")
    return rp


def _check_interpolation(params: dict) -> dict:
    theta = float(params.get("theta", 0.5))
    if not (0.0 < theta < 1.0):
        raise ValueError(f"interpolation weight must satisfy 0 < theta < 1, got {theta:g}")
    s1 = float(params.get("s1", 0.0))
    s2 = float(params.get("s2", 1.0))
    rp = {"theta": theta, "s1": s1, "s2": s2,
          **_open_exponents(params, p1=4.0, q1=4.0, p2=8.0, q2=8.0)}
    rp["p"] = 1.0 / (theta / rp["p1"] + (1.0 - theta) / rp["p2"])
    rp["q"] = 1.0 / (theta / rp["q1"] + (1.0 - theta) / rp["q2"])
    rp["s"] = theta * s1 + (1.0 - theta) * s2
    return rp


def _run_interpolation(spec, rp):
    theta = rp["theta"]

    def ratio(f, u):
        num = mixed_norm(u, rp["p"], rp["q"], rp["s"])
        den = (
            mixed_norm(u, rp["p1"], rp["q1"], rp["s1"]) ** theta
            * mixed_norm(u, rp["p2"], rp["q2"], rp["s2"]) ** (1.0 - theta)
        )
        return num, den

    return _free_sample(spec, ratio), {}


def _check_leibniz(params: dict) -> dict:
    s = float(params.get("s", 0.5))
    if s < 0.0:
        raise ValueError(f"the product rule needs s >= 0, got s = {s:g}")
    rp = {"s": s, **_open_exponents(params, p=2.0, q=2.0, p1=4.0, q1=4.0, p2=4.0, q2=4.0,
                                    p3=4.0, q3=4.0, p4=4.0, q4=4.0)}
    for a, b in (("p1", "p2"), ("p3", "p4")):
        if abs(1.0 / rp[a] + 1.0 / rp[b] - 1.0 / rp["p"]) > 1e-12:
            raise ValueError(f"split 1/{a} + 1/{b} must equal 1/p")
    for a, b in (("q1", "q2"), ("q3", "q4")):
        if abs(1.0 / rp[a] + 1.0 / rp[b] - 1.0 / rp["q"]) > 1e-12:
            raise ValueError(f"split 1/{a} + 1/{b} must equal 1/q")
    return rp


def _product_trace(pair: np.ndarray, grid: Grid1D, times, pad: int = 2) -> TimeTrace:
    """Dealiased product of the real traces stacked in pair, (2, M, N/2 + 1): one
    map over all rows, formed in place of the first."""
    rows = apply_pointwise_matrix(pair, grid, lambda w: w[0] * w[1], pad=pad, out=pair[0])
    return TimeTrace(grid, times, rows)


def _run_leibniz(spec, rp):
    s = rp["s"]

    def one(grid, times, band, decay, child):
        # the free traces, built straight into the product's input, then overwritten by it
        pair = np.empty((2, times.size, grid.size // 2 + 1), dtype=complex)
        u, v = (free_evolution(_datum(grid, band, decay, kid, spec.amplitude), times, out=rows)
                for kid, rows in zip(child.spawn(2), pair))
        den = (
            mixed_norm(u, rp["p1"], rp["q1"], s) * mixed_norm(v, rp["p2"], rp["q2"])
            + mixed_norm(u, rp["p3"], rp["q3"]) * mixed_norm(v, rp["p4"], rp["q4"], s)
        )
        num = mixed_norm(_product_trace(pair, grid, times), rp["p"], rp["q"], s)
        return num, den

    return one, {}


def _check_chain_rule(params: dict) -> dict:
    mu = float(params.get("mu", 5.0))
    if not mu > 1.0:
        raise ValueError(f"the chain rule needs mu > 1, got mu = {mu:g}")
    s = float(params.get("s", 0.5))
    if not (0.0 < s < mu):
        raise ValueError(f"the chain rule needs s in (0, mu), got s = {s:g}")
    rp = {"mu": mu, "s": s, **_open_exponents(params, p1=16.0, q1=16.0, p2=4.0, q2=4.0)}
    invp = (mu - 1.0) / rp["p1"] + 1.0 / rp["p2"]
    invq = (mu - 1.0) / rp["q1"] + 1.0 / rp["q2"]
    if not (0.0 < invp < 1.0 and 0.0 < invq < 1.0):
        raise ValueError(
            "derived exponents leave the open (1, inf) range: "
            f"1/p = {invp:g}, 1/q = {invq:g}"
        )
    rp.update(p=1.0 / invp, q=1.0 / invq)
    return rp


def _apply_power(trace: TimeTrace, G: NonlinearityG, out=None) -> np.ndarray:
    """G of the trace's rows, dealiased at pad 3: degree-5 products need the wider margin."""
    return apply_pointwise_matrix(trace.coeffs, trace.grid, G.apply_values, pad=3, out=out)


def _run_chain_rule(spec, rp):
    mu, s = rp["mu"], rp["s"]
    G = NonlinearityG(alpha=mu, mu=1.0)
    lip = lip_norm_estimate(G, mu)

    def ratio(f, u):
        gu = TimeTrace(u.grid, u.times, _apply_power(u, G))
        num = mixed_norm(gu, rp["p"], rp["q"], s)
        den = (
            lip
            * mixed_norm(u, rp["p1"], rp["q1"]) ** (mu - 1.0)
            * mixed_norm(u, rp["p2"], rp["q2"], s)
        )
        return num, den

    return _free_sample(spec, ratio), {"lip_bound": lip}


# ---------------------------------------------------------------------------
# source-term bounds used by the contraction argument


def _check_nonlinear(params: dict) -> dict:
    alpha = float(params.get("alpha", 5.0))
    if not (ALPHA_LOWER < alpha < ALPHA_UPPER):
        raise ValueError(
            f"the source-term bounds need 21/5 < alpha < 23/3, got alpha = {alpha:g}"
        )
    s = float(params.get("s", aux_smoothness(alpha)))
    r = float(params.get("r", critical_exponent(alpha)))
    cls = classify_pair(s, r)
    if not (cls.acceptable and cls.conjugate_acceptable):
        raise ValueError(
            f"(s, r) = ({s:g}, {r:g}) must be usable on both sides of the duality "
            "(acceptable and conjugate-acceptable)"
        )
    return {"alpha": alpha, "s": s, "r": r, "boundary": cls.boundary}


def _run_nonlinear_i(spec, rp):
    alpha, s, r = rp["alpha"], rp["s"], rp["r"]
    rc = critical_exponent(alpha)
    G = NonlinearityG(alpha=alpha, mu=1.0)

    def ratio(f, u):
        gu = TimeTrace(u.grid, u.times, _apply_power(u, G))
        num = ynorm(gu, s, r)
        den = snorm(u, rc) ** (alpha - 1.0) * xnorm(u, s, r)
        return num, den

    return _free_sample(spec, ratio), {"boundary_pair": rp["boundary"]}


def _run_nonlinear_ii(spec, rp):
    alpha, s, r = rp["alpha"], rp["s"], rp["r"]
    rc = critical_exponent(alpha)
    G = NonlinearityG(alpha=alpha, mu=1.0)

    def one(grid, times, band, decay, child):
        u, v = (free_evolution(_datum(grid, band, decay, kid, spec.amplitude), times)
                for kid in child.spawn(2))
        sx = snorm(u, rc) + snorm(v, rc)
        uv = TimeTrace(grid, times, u.coeffs - v.coeffs)
        den = (
            (xnorm(u, s, r) + xnorm(v, s, r)) * sx ** (alpha - 2.0) * snorm(uv, rc)
            + sx ** (alpha - 1.0) * xnorm(uv, s, r)
        )
        del uv
        # each power map overwrites its input: two traces in flight, not five
        diff = _apply_power(u, G, out=u.coeffs)
        diff -= _apply_power(v, G, out=v.coeffs)
        return ynorm(TimeTrace(grid, times, diff), s, r), den

    return one, {"boundary_pair": rp["boundary"]}


# ---------------------------------------------------------------------------
# embedding checks and the sharpness families


_INCLUSION_CASES = ("hausdorff_young", "weighted", "besov")


def _check_inclusion(params: dict) -> dict:
    case = str(params.get("case", "hausdorff_young"))
    if case not in _INCLUSION_CASES:
        raise ValueError(f"inclusion case must be one of {_INCLUSION_CASES}, got {case!r}")
    r = float(params.get("r", 4.0))
    if case == "weighted":
        if not (1.0 < r < math.inf):
            raise ValueError(f"the weighted embedding needs 1 < r < inf, got r = {r:g}")
    elif not (1.0 <= r <= math.inf):
        raise ValueError(f"need 1 <= r <= inf, got r = {r:g}")
    return {"case": case, "r": r}


def _run_inclusion(spec, rp):
    case, r = rp["case"], rp["r"]
    small = r <= 2.0

    def one(grid, times, band, decay, child):
        f = _datum(grid, band, decay, child, spec.amplitude)
        if case == "hausdorff_young":
            return (lhat_norm(f, r), lebesgue_norm(f, r)) if small \
                else (lebesgue_norm(f, r), lhat_norm(f, r))
        if case == "weighted":
            s = 1.0 / r - 0.5
            return (lhat_norm(f, r), weighted_norm(f, s)) if small \
                else (weighted_norm(f, s), lhat_norm(f, r))
        s = 0.5 - 1.0 / r
        q = holder_conjugate(r)
        return (besov_norm(f, s, q), lhat_norm(f, r)) if small \
            else (lhat_norm(f, r), besov_norm(f, s, q))

    return one, {"case": case,
                 "direction": "into_fourier_lebesgue" if small else "out_of_fourier_lebesgue"}


_FAMILY_ALIASES = {"fn": "sharp_band", "gn": "log_tail"}


def _check_counterexample(params: dict) -> dict:
    family = str(params.get("family", "sharp_band"))
    family = _FAMILY_ALIASES.get(family, family)
    if family not in ("sharp_band", "log_tail"):
        raise ValueError(
            f"family must be sharp_band (alias fn) or log_tail (alias gn), got {family!r}"
        )
    r = float(params.get("r", 4.0))
    if not r > 2.0:
        raise ValueError(f"the sharpness families separate the spaces only for r > 2, got r = {r:g}")
    rp: Dict[str, object] = {"family": family, "r": r}
    if family == "sharp_band":
        ns = tuple(int(n) for n in params.get("n", (4, 16, 64)))
        # 1/8 frequency spacing is an exact binary float, so the unit band
        # holds exactly 8 lattice points and the lattice norm is exact
        rp["half_length"] = float(params.get("half_length", 8.0 * math.pi))
        rp["size"] = int(params.get("size", 2048))
    else:
        ns = tuple(int(n) for n in params.get("n", (8, 64, 512)))
        if any(n < 3 for n in ns):
            raise ValueError("the slow-tail family is defined for n >= 3")
        inv_rprime = 1.0 - 1.0 / r
        p = float(params.get("p", 0.5 * (0.5 + inv_rprime)))
        if not (0.5 < p < inv_rprime):
            raise ValueError(
                f"the slow-tail family needs p in (1/2, 1 - 1/r) = (0.5, {inv_rprime:g}), "
                f"got p = {p:g}"
            )
        rp["p"] = p
        rp["half_length"] = float(params.get("half_length", 4096.0 * math.pi))
        rp["size"] = int(params.get("size", 8192))
    if any(n <= 0 for n in ns) or list(ns) != sorted(set(ns)):
        raise ValueError("band indices must be positive and strictly increasing")
    rp["ns"] = ns
    return rp


def _run_counterexample(spec, rp):
    family, r = rp["family"], rp["r"]
    grid = Grid1D(rp["half_length"], rp["size"])
    xi = grid.frequencies
    s = 0.5 - 1.0 / r
    ratios, rows, table = [], [], []
    for n in rp["ns"]:
        if family == "sharp_band":
            if n + 1 > grid.max_frequency:
                raise ValueError(f"band [{n}, {n + 1}) exceeds the resolved frequencies")
            coeffs = ((xi >= n) & (xi < n + 1)).astype(np.complex128)
            predicted_lhat = 1.0
            predicted_sob = math.sqrt(
                ((n + 1.0) ** (2 * s + 1) - float(n) ** (2 * s + 1)) / (2 * s + 1)
            )
        else:
            lo = 1.0 / n
            if lo < grid.dxi:
                raise ValueError(f"band edge 1/{n} falls below the frequency spacing")
            p = rp["p"]
            rprime = holder_conjugate(r)
            support = (xi >= lo) & (xi <= 0.5)
            coeffs = np.zeros(grid.size, dtype=np.complex128)
            coeffs[support] = xi[support] ** (-1.0 / rprime) * np.abs(np.log(xi[support])) ** (-p)
            a, b = math.log(2.0), math.log(float(n))
            predicted_sob = math.sqrt((a ** (1 - 2 * p) - b ** (1 - 2 * p)) / (2 * p - 1))
            # p < 1/r' guarantees p * r' < 1, the divergent regime
            prp = p * rprime
            predicted_lhat = ((b ** (1 - prp) - a ** (1 - prp)) / (1 - prp)) ** (1.0 / rprime)
        # a one-sided band is not a real field: its norms are full-band sums
        band = spec.amplitude * coeffs
        lh = weighted_power_sum(np.abs(band), grid.dxi, holder_conjugate(r)) / spec.amplitude
        sob = weighted_power_sum(np.abs(riesz_weights(grid, s) * band), grid.dxi, 2.0) \
            / spec.amplitude
        ratio = sob / predicted_sob
        ratios.append(float(ratio))
        rows.append({"sample": n, "decay": 0.0, "ratio": float(ratio)})
        table.append({"n": n, "lhat": lh, "sobolev": sob,
                      "predicted_lhat": predicted_lhat, "predicted_sobolev": predicted_sob})
    extras = {"family": family, "smoothness": s, "table": table,
              "half_length": rp["half_length"], "size": rp["size"]}
    if family == "log_tail":
        extras["p"] = rp["p"]
    return ratios, rows, extras


# ---------------------------------------------------------------------------
# Lip-class membership certificate


def _power_derivative(alpha: float, j: int, z: np.ndarray) -> np.ndarray:
    coeff = 1.0
    for i in range(j):
        coeff *= alpha - i
    mag = coeff * np.abs(z) ** (alpha - j)
    # the map is odd, so even-order derivatives carry the sign of z
    return mag * np.sign(z) if j % 2 == 0 else mag


def lip_norm_estimate(G: NonlinearityG, mu: float, samples: int = 200) -> float:
    """Sampled upper envelope certifying membership in the Lip class of order mu.

    Writes mu = N + beta with beta in (0, 1], evaluates the growth quotients
    |G^(j)(z)| / |z|^(mu-j) for j = 0..N on a signed log-spaced grid, and
    the beta-Holder quotient of G^(N) over all sampled pairs; returns the
    maximum.  The grid reaches out to |z| = 10 and deepens toward zero as
    samples grows, so a genuinely unbounded quotient shows up as growth
    under refinement rather than a crash.  The derivatives of the power
    are taken in closed form, exact at every alpha.
    """
    if not mu > 0:
        raise ValueError(f"membership order must be positive, got {mu:g}")
    if samples < 8:
        raise ValueError("need at least 8 sample points")
    n_whole = math.ceil(mu) - 1
    beta = mu - n_whole
    decades = 0.03 * samples
    mags = 10.0 * np.logspace(-decades, 0.0, samples // 2)
    z = np.concatenate([-mags[::-1], mags])
    best = 0.0
    deriv = None
    for j in range(n_whole + 1):
        deriv = _power_derivative(G.alpha, j, z)
        if not np.all(np.isfinite(deriv)):
            raise ValueError("nonlinearity produced non-finite derivative samples")
        best = max(best, float(np.max(np.abs(deriv) / np.abs(z) ** (mu - j))))
    gap = np.abs(z[:, None] - z[None, :])
    num = np.abs(deriv[:, None] - deriv[None, :])
    mask = gap > 0
    best = max(best, float(np.max(num[mask] / gap[mask] ** beta)))
    return best


# ---------------------------------------------------------------------------
# dispatch


def _stats(ratios: List[float]) -> dict:
    return {"max_ratio": float(max(ratios)), "mean_ratio": float(np.mean(ratios))}


def _ensemble_legs(spec: EstimateSpec, row: "_Estimate", resolved: dict):
    """The base ensemble and its refinement legs.

    The legs double the grid, then the ensemble, then, for ids that widen,
    the time interval.  Returns the base ratios and samples, the run's
    extras, the refinement entries and the report's (L, N, ensemble).
    """
    one, extras = row.run(spec, resolved)
    ratios, rows = _ensemble(spec, one)
    entries = [{"size": spec.size, "ensemble": spec.ensemble, **_stats(ratios)}]
    fine = replace(spec, size=2 * spec.size, band=spec.resolved_band())
    fine_ratios, _ = _ensemble(fine, one)
    entries.append({"size": fine.size, "ensemble": fine.ensemble, **_stats(fine_ratios)})
    # the doubled ensemble begins with the base samples; draw only the rest
    tail, _ = _ensemble(spec, one, start=spec.ensemble)
    entries.append({"size": spec.size, "ensemble": 2 * spec.ensemble,
                    **_stats(ratios + tail)})
    if row.widen:
        a, b = spec.interval
        wide = replace(spec, interval=(a, a + 2.0 * (b - a)))
        wide_ratios, _ = _ensemble(wide, one)
        entries.append({"size": wide.size, "ensemble": wide.ensemble,
                        "interval": [a, a + 2.0 * (b - a)], **_stats(wide_ratios)})
    return ratios, rows, extras, entries, (spec.half_length, spec.size, spec.ensemble)


def _counterexample_legs(spec: EstimateSpec, row: "_Estimate", resolved: dict):
    """Both families at their own geometry, then with box and points doubled."""
    ratios, rows, extras = row.run(spec, resolved)
    finer = dict(resolved, half_length=2.0 * resolved["half_length"],
                 size=2 * resolved["size"])
    fine_ratios, _, _ = row.run(spec, finer)
    entries = [{"size": int(resolved["size"]), "ensemble": len(ratios), **_stats(ratios)},
               {"size": finer["size"], "ensemble": len(fine_ratios), **_stats(fine_ratios)}]
    geometry = (float(resolved["half_length"]), int(resolved["size"]), len(ratios))
    return ratios, rows, extras, entries, geometry


@dataclass(frozen=True)
class _Estimate:
    """Everything known about one estimate id.

    check validates the params and fills in their defaults; run turns them
    into the work of one sample, which legs repeats over the refinement
    legs.  gate is the refinement-stability threshold on the max-ratio
    drift, floor the ensemble the CLI uses when none is given.  static ids
    draw single fields, not time traces; widen ids have a constant that
    may grow with the interval, so their refinement doubles it once.
    """

    check: Callable[[dict], dict]
    run: Callable
    gate: float
    floor: int = 50
    static: bool = False
    widen: bool = False
    legs: Callable = _ensemble_legs


# Rougher data (products, compositions, the retarded integral) get a 15%
# gate.  The retarded-integral maxima saturate only at an ensemble of 100:
# at 50 the ensemble-doubling leg still finds new maxima.
_REGISTRY: Dict[str, _Estimate] = {
    "stein_tomas": _Estimate(_check_stein_tomas, _run_stein_tomas, 0.10),
    "kenig_ruiz": _Estimate(_check_kenig_ruiz, _run_kenig_ruiz, 0.10),
    "kato": _Estimate(_check_kato, _run_kato, 0.10),
    "strichartz": _Estimate(_check_strichartz, _run_strichartz, 0.10),
    "inhom_linf": _Estimate(_check_inhom_linf, _run_inhom_linf, 0.15, floor=100,
                            widen=True),
    "inhom_xy": _Estimate(_check_inhom_xy, _run_inhom_xy, 0.15, floor=100, widen=True),
    "interpolation": _Estimate(_check_interpolation, _run_interpolation, 0.10),
    "leibniz": _Estimate(_check_leibniz, _run_leibniz, 0.15),
    "chain_rule": _Estimate(_check_chain_rule, _run_chain_rule, 0.15),
    "nonlinear_i": _Estimate(_check_nonlinear, _run_nonlinear_i, 0.15),
    "nonlinear_ii": _Estimate(_check_nonlinear, _run_nonlinear_ii, 0.15),
    "inclusion": _Estimate(_check_inclusion, _run_inclusion, 0.10, static=True),
    "counterexample": _Estimate(_check_counterexample, _run_counterexample, 0.05,
                                static=True, legs=_counterexample_legs),
}

ESTIMATE_IDS = tuple(_REGISTRY)


def _estimate(estimate_id: str) -> _Estimate:
    """The registry row of an id; a ValueError naming the known ids otherwise."""
    row = _REGISTRY.get(estimate_id)
    if row is None:
        known = ", ".join(ESTIMATE_IDS)
        raise ValueError(f"unknown estimate id {estimate_id!r}; known ids: {known}")
    return row


def verify(spec: EstimateSpec) -> EstimateReport:
    """Run one configured check plus its refinement trace.

    Deterministic given (spec, seed): all randomness flows through spawned
    child seeds, one per sample, so growing the ensemble keeps the original
    samples and grid refinement re-draws the identical band-limited data.
    """
    row = _estimate(spec.estimate_id)
    resolved = row.check(spec.params)
    ratios, rows, extras, entries, (half_length, size, ensemble) = \
        row.legs(spec, row, resolved)
    return EstimateReport(
        estimate_id=spec.estimate_id,
        params=dict(resolved),
        seed=spec.seed,
        half_length=half_length,
        size=size,
        sample_count=1 if row.static else len(spec.times()),
        ensemble=ensemble,
        ratios=ratios,
        refinement=entries,
        samples=rows,
        extras=extras,
        **_stats(ratios),
    )
