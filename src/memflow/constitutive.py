"""Memory kernels, strain measures, and the model catalog.

A fading-memory material is described by a pair ``(m, S)``: a scalar memory
density ``m(s)`` over the age ``s`` and a tensor map ``S(G)`` converting the
accumulated deformation ``G`` into stress.  The admissibility conditions are

* kernel: measurable, decreasing, positive, with unit total mass;
* strain measure: C^1 with ``|S(G)| <= S_inf`` and ``|G| |S'(G)| <= Sp_inf``.

Separable measures take the damping-function form ``S(G) = h(I1) G^T G``
(optionally plus an isotropic offset), for which the two bounds are
equivalent to ``x |h(x)| <= C`` and ``x^2 |h'(x)| <= C'``.  The catalog
covers the linear (unbounded) model, the rational and exponential damping
families in raw and rest-state-normalized variants, a custom damping hook,
and the truncated mode-sum kernel with a power-law relaxation spectrum.

Both certification routines report failures instead of raising: they are
meant to run as part of a verification suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# Random-deformation sampler range for the empirical (H2) check: I1 stays
# >= 2 for determinant-one transported states, and the tail end exercises
# large deformations.  The scalar damping criteria x|h| and x^2|h'| are
# conditions over all x >= 0, so their grid extends below 2 to catch
# interior maxima of typical damping functions.
H2_GRID_LO = 2.0
H2_GRID_HI = 1e8
H_CRITERION_LO = 1e-2
H2_SAMPLES = 10_000  # random deformations per (H2) certification
H2_SEED = 2024
H2_TOL = 1e-6  # slack of a sampled supremum over its declared bound
H1_SAMPLES = 200  # log-spaced ages of the (H1) check
H1_MASS_TOL = 1e-12
H_BLOCK_POINTS = 8192  # points of a field the damping function takes at once in stress_stack: 64 KiB of float64

_SQRT6 = math.sqrt(6.0)


class SingularOriginError(ValueError):
    """Density evaluation requested at s = 0 for a kernel singular there."""


# ---------------------------------------------------------------------------
# memory kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryKernel:
    """Finite sum of exponential modes, density m(s) = sum g_k exp(-s/l_k)/l_k.

    Weights are normalized to unit total mass at construction.  ``singular``
    marks families whose continuum limit blows up at s = 0 (the truncated
    mode-sum spectrum): evaluation at the origin is refused and age grids
    lump the near-origin mass exactly instead of sampling the density.
    """

    family: str
    relaxation_times: np.ndarray
    weights: np.ndarray
    singular: bool = False

    def __post_init__(self):
        lam = np.asarray(self.relaxation_times, dtype=float)
        g = np.asarray(self.weights, dtype=float)
        if lam.ndim != 1 or lam.shape != g.shape:
            raise ValueError("relaxation times and weights must be 1-d and matched")
        if np.any(lam <= 0):
            raise ValueError("relaxation times must be positive")
        if np.any(g < 0) or g.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
        object.__setattr__(self, "relaxation_times", lam)
        object.__setattr__(self, "weights", g / g.sum())

    @property
    def max_relaxation_time(self) -> float:
        return float(self.relaxation_times.max())

    def density(self, s):
        """m(s) for s >= 0 (strictly s > 0 for singular families)."""
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("age must be nonnegative")
        if self.singular and np.any(s == 0.0):
            raise SingularOriginError(f"{self.family} kernel is singular at s=0")
        lam = self.relaxation_times
        out = np.tensordot(self.weights / lam, np.exp(-np.multiply.outer(1.0 / lam, s)), axes=(0, 0))
        return float(out) if out.ndim == 0 else out

    def interval_mass(self, a: float, b: float) -> float:
        """Closed-form integral of the density over [a, b] (b may be inf)."""
        if a < 0 or b < a:
            raise ValueError(f"bad interval [{a}, {b}]")
        lam = self.relaxation_times
        lo = np.exp(-a / lam)
        hi = np.zeros_like(lam) if math.isinf(b) else np.exp(-b / lam)
        return float(np.sum(self.weights * (lo - hi)))


def single_exponential_kernel(relaxation_time: float = 1.0) -> MemoryKernel:
    return MemoryKernel("single-exponential", np.array([relaxation_time]), np.array([1.0]))


def reptation_mode_kernel(relaxation_time: float = 1.0, max_mode: int = 31) -> MemoryKernel:
    """Truncated odd-mode relaxation spectrum: weights ~ 1/p^2, l_p = l/p^2.

    The infinite sum has a density singularity at the origin; the truncation
    is still treated as singular so the near-origin mass is handled by exact
    lumping rather than density sampling.
    """
    if relaxation_time <= 0:
        raise ValueError("relaxation time must be positive")
    if max_mode < 1:
        raise ValueError("need at least one mode")
    p = np.arange(1, max_mode + 1, 2, dtype=float)
    return MemoryKernel("doi-edwards", relaxation_time / p**2, 1.0 / p**2, singular=True)


# ---------------------------------------------------------------------------
# strain measures
# ---------------------------------------------------------------------------


def symmetric_tensor(tau: np.ndarray) -> np.ndarray:
    """A stress, S(G) too, is symmetric and held as its three distinct components (tau_11, tau_12, tau_22),
    (j, k) at index j + k before the two spatial axes; this is its 2 x 2 tensor, a new (..., 2, 2, ny, nx)."""
    return tau[..., [0, 1, 1, 2], :, :].reshape(tau.shape[:-3] + (2, 2) + tau.shape[-2:])


@dataclass(frozen=True)
class StrainMeasure:
    """Separable strain measure S(G) = h(I1) G^T G + iso_offset * I.

    ``h`` and ``hp`` must accept numpy arrays (``hp`` is dh/dx).  Declared
    bounds ``s_inf`` / ``sp_inf`` are the certified suprema of ``|S(G)|``
    and ``|G| |S'(G)|``; they are ``None`` exactly when ``h2_satisfied`` is
    False.  Instances are immutable and reentrant.
    """

    name: str
    h: Callable
    hp: Callable
    iso_offset: float = 0.0
    s_inf: float | None = None
    sp_inf: float | None = None
    h2_satisfied: bool = False

    def stress(self, g: np.ndarray) -> np.ndarray:
        """S(G) for a single 2x2 matrix."""
        g = np.asarray(g, dtype=float)
        b = g.T @ g
        i1 = float(np.sum(g * g))
        return float(self.h(i1)) * b + self.iso_offset * np.eye(2)

    def stress_stack(self, g, out=None, i1=None) -> np.ndarray:
        """Vectorized S(G) over arrays shaped (..., 2, 2, ny, nx), as its three
        distinct components (:func:`symmetric_tensor`), (..., 3, ny, nx).

        The spatial axes stay last and contiguous for FFT work elsewhere.
        ``out``, of the result's shape, and ``i1``, I1 = |G|^2 of ``g``, are used in place of new arrays.
        ``h``, pointwise, takes I1 in blocks of grid lines, about ``H_BLOCK_POINTS`` points of each field, so
        its temporaries stay small.
        """
        g = np.asarray(g)
        i1 = np.einsum("...ijyx,...ijyx->...yx", g, g) if i1 is None else i1
        out = np.empty(g.shape[:-4] + (3,) + g.shape[-2:]) if out is None else out
        for j, k in ((0, 0), (0, 1), (1, 1)):  # (G^T G)_jk = sum_l G_lj G_lk
            np.einsum("...lyx,...lyx->...yx", g[..., j, :, :], g[..., k, :, :], out=out[..., j + k, :, :])
        lines = max(1, H_BLOCK_POINTS // i1.shape[-1])
        for y in range(0, i1.shape[-2], lines):
            out[..., y : y + lines, :] *= self.h(i1[..., y : y + lines, :])[..., None, :, :]
        if self.iso_offset != 0.0:
            out[..., 0, :, :] += self.iso_offset
            out[..., 2, :, :] += self.iso_offset
        return out

    def directional_derivative(self, g, hmat) -> np.ndarray:
        """S'(G):H, the derivative of S at G in direction H.

        For the separable form this is
        ``2 h'(I1) (G:H) G^T G + h(I1) (H^T G + G^T H)``.  ``g`` and
        ``hmat`` are 2x2 matrices or stacks of them, shaped (..., 2, 2), that
        broadcast against each other.
        """
        g = np.asarray(g, dtype=float)
        hmat = np.asarray(hmat, dtype=float)
        i1 = np.sum(g * g, axis=(-2, -1))
        gh = np.sum(g * hmat, axis=(-2, -1))
        gt = np.swapaxes(g, -1, -2)
        return (
            2.0 * np.asarray(self.hp(i1))[..., None, None] * gh[..., None, None] * (gt @ g)
            + np.asarray(self.h(i1))[..., None, None] * (np.swapaxes(hmat, -1, -2) @ g + gt @ hmat)
        )


# ---------------------------------------------------------------------------
# certification of the admissibility conditions
# ---------------------------------------------------------------------------


@dataclass
class H1Report:
    positive: bool
    decreasing: bool
    unit_mass: bool
    mass: float

    @property
    def passed(self) -> bool:
        return self.positive and self.decreasing and self.unit_mass


def verify_h1(kernel) -> H1Report:
    """Check positivity, monotone decay, and unit mass (within
    ``H1_MASS_TOL``) on ``H1_SAMPLES`` log-spaced points spanning
    [1e-6, 50 * max relaxation time], the density evaluated in one call.
    Failures are reported, never raised.
    """
    grid = np.geomspace(1e-6, 50.0 * kernel.max_relaxation_time, H1_SAMPLES)
    vals = kernel.density(grid)
    positive = bool(np.all(vals > 0))
    decreasing = bool(np.all(np.diff(vals) <= 0))
    mass = kernel.interval_mass(0.0, math.inf)
    return H1Report(positive, decreasing, abs(mass - 1.0) <= H1_MASS_TOL, mass)


@dataclass
class H2Report:
    s_sup_est: float
    gsp_sup_est: float
    h_sup: float  # sup of x |h(x)|
    hp_sup: float  # sup of x^2 |h'(x)|
    h_sup_unbounded: bool
    passed: bool


def _log_grid_sup(fn, lo: float = H_CRITERION_LO, hi: float = H2_GRID_HI, n: int = 4096):
    """Supremum of fn over [lo, hi]: the largest finite value on a log grid
    of n points, refined on a second one of n points between the grid
    maximum's two neighbours; a non-finite value on the first grid makes the
    supremum infinite.

    Returns (sup, unbounded_heuristic).  The heuristic flags a maximum at
    the right edge whose log-log slope stays bounded away from zero there:
    a function creeping up to a finite supremum (slope -> 0) is bounded, a
    power-law growth is not.
    """
    x = np.geomspace(lo, hi, n)
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.asarray(fn(x), dtype=float)
        y = np.where(np.isfinite(y), y, np.inf)
        k = int(np.argmax(y))
        if not math.isfinite(y[k]):
            return math.inf, True
        growing = False
        if k == n - 1 and y[-1] > 0 and y[-2] > 0:
            end_slope = (math.log(y[-1]) - math.log(y[-2])) / (math.log(x[-1]) - math.log(x[-2]))
            growing = end_slope > 0.02
        fine = np.asarray(fn(np.geomspace(x[max(k - 1, 0)], x[min(k + 1, n - 1)], n)), dtype=float)
    return float(np.max(fine, where=np.isfinite(fine), initial=y[k])), growing


def separable_h2_bounds(c: float, cp: float) -> tuple[float, float]:
    """Map damping-function bounds (C, C') to measure bounds (S_inf, Sp_inf).

    |S| = |h| |G^T G| <= x |h(x)| <= C with x = I1, since the Frobenius norm
    of a symmetric PSD 2x2 matrix is at most its trace.  For the derivative,
    |S'| <= 2 |h'| |G| |G^T G| + sqrt(6) |h| |G| gives
    |G| |S'| <= 2 x^2 |h'| + sqrt(6) x |h| <= 2 C' + sqrt(6) C.
    """
    return c, 2.0 * cp + _SQRT6 * c


def verify_h2(measure: StrainMeasure) -> H2Report:
    """Empirical certification of the boundedness conditions.

    Draws ``H2_SAMPLES`` random deformations at once (seed ``H2_SEED``),
    with I1 log-uniform in [2, 1e8], and records the suprema of |S(G)|,
    through ``stress_stack``, and of |G| |S'(G)|, the Frobenius norm of the
    directional derivatives along the four unit directions.  The equivalent
    scalar conditions sup x|h| and sup x^2|h'| are evaluated on a refined
    log grid over the same range.  Passing requires finite suprema at or
    below the declared bounds (plus ``H2_TOL``); measures without declared
    bounds fail by definition.
    """
    rng = np.random.default_rng(H2_SEED)
    i1 = np.exp(rng.uniform(math.log(H2_GRID_LO), math.log(H2_GRID_HI), H2_SAMPLES))
    g = rng.standard_normal((H2_SAMPLES, 2, 2))
    g *= np.sqrt(i1 / np.sum(g * g, axis=(1, 2)))[:, None, None]
    s_norm = np.linalg.norm(symmetric_tensor(measure.stress_stack(g[..., None, None]))[..., 0, 0], axis=(1, 2))
    d = measure.directional_derivative(g[:, None], np.eye(4).reshape(4, 2, 2))  # d[:, 2i + j] = S'(G):E_ij
    gsp = np.sqrt(i1) * np.sqrt(np.sum(d * d, axis=(1, 2, 3)))
    s_sup, gsp_sup = float(s_norm.max()), float(gsp.max())

    h_sup, g1 = _log_grid_sup(lambda x: x * np.abs(measure.h(x)))
    hp_sup, g2 = _log_grid_sup(lambda x: x**2 * np.abs(measure.hp(x)))
    growing = g1 or g2
    passed = (
        measure.h2_satisfied
        and measure.s_inf is not None
        and measure.sp_inf is not None
        and not growing
        and math.isfinite(s_sup)
        and math.isfinite(gsp_sup)
        and s_sup <= measure.s_inf + H2_TOL
        and gsp_sup <= measure.sp_inf + H2_TOL
    )
    return H2Report(s_sup, gsp_sup, h_sup, hp_sup, growing, passed)


# ---------------------------------------------------------------------------
# model catalog
# ---------------------------------------------------------------------------

WAGNER_RAW_H_SUP = 4.0 * math.exp(-2.0)  # x e^{-sqrt x} maximized at x = 4
WAGNER_RAW_HP_SUP = 13.5 * math.exp(-3.0)  # x^2 |h'| = x^{3/2} e^{-sqrt x}/2 at x = 9


def _psm_measure(name: str, alpha: float, shift: float) -> StrainMeasure:
    """Rational damping h = alpha / (alpha - shift + x).

    For alpha > shift both x h and x^2 |h'| rise monotonically to alpha as
    x grows, so C = C' = alpha in closed form.
    """
    if alpha <= shift:
        raise ValueError(f"{name} needs alpha > {shift:g}")
    s_inf, sp_inf = separable_h2_bounds(alpha, alpha)
    return StrainMeasure(
        name=name,
        h=lambda x, a=alpha, c=alpha - shift: a / (c + x),
        hp=lambda x, a=alpha, c=alpha - shift: -a / (c + x) ** 2,
        s_inf=s_inf,
        sp_inf=sp_inf,
        h2_satisfied=True,
    )


def _wagner_measure(name: str, beta: float, scale: float) -> StrainMeasure:
    """Exponential damping h = scale exp(-beta sqrt x).

    Closed-form suprema: substituting t = beta sqrt(x) turns x h into
    scale t^2 e^{-t} / beta^2 (max at t = 2) and x^2 |h'| into
    scale t^3 e^{-t} / (2 beta^2) (max at t = 3).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    c = scale * 4.0 * math.exp(-2.0) / beta**2
    cp = scale * 13.5 * math.exp(-3.0) / beta**2
    s_inf, sp_inf = separable_h2_bounds(c, cp)
    return StrainMeasure(
        name=name,
        h=lambda x, b=beta, a=scale: a * np.exp(-b * np.sqrt(x)),
        hp=lambda x, b=beta, a=scale: -a * b * np.exp(-b * np.sqrt(x)) / (2.0 * np.sqrt(np.maximum(x, 1e-300))),
        s_inf=s_inf,
        sp_inf=sp_inf,
        h2_satisfied=True,
    )


def _oldroyd_measure(lam: float, mu_p: float) -> StrainMeasure:
    # S(G) = (mu_p/lam) (G^T G - I): linear in the Finger tensor, unbounded,
    # so no declared bounds.  Paired with the single-mode kernel exp(-s/lam)/lam
    # it reproduces the differential upper-convected law with modulus mu_p.
    k = mu_p / lam
    return StrainMeasure(
        name="oldroyd-b",
        h=lambda x, c=k: np.full_like(np.asarray(x, dtype=float), c) if np.ndim(x) else c,
        hp=lambda x: np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0,
        iso_offset=-k,
        s_inf=None,
        sp_inf=None,
        h2_satisfied=False,
    )


def _validate_custom_derivative(h, hp, tol: float = 1e-4):
    xs = np.geomspace(0.5, 1e4, 64)
    eps = 1e-6
    fd = (np.asarray(h(xs * (1 + eps))) - np.asarray(h(xs * (1 - eps)))) / (2 * eps * xs)
    given = np.asarray(hp(xs), dtype=float)
    scale = np.maximum(np.abs(fd), 1e-12)
    if np.max(np.abs(given - fd) / scale) > tol:
        raise ValueError("supplied damping derivative disagrees with finite differences")


def _kbkz_custom_measure(h, hp) -> StrainMeasure:
    if h is None:
        raise ValueError("kbkz-custom needs a damping function h")
    if hp is None:
        eps = 1e-6
        hp = lambda x: (np.asarray(h(np.asarray(x) * (1 + eps))) - np.asarray(h(np.asarray(x) * (1 - eps)))) / (2 * eps * np.asarray(x))
    else:
        _validate_custom_derivative(h, hp)
    c, grow_c = _log_grid_sup(lambda x: x * np.abs(np.asarray(h(x), dtype=float)))
    cp, grow_cp = _log_grid_sup(lambda x: x**2 * np.abs(np.asarray(hp(x), dtype=float)))
    bounded = math.isfinite(c) and math.isfinite(cp) and not (grow_c or grow_cp)
    s_inf, sp_inf = separable_h2_bounds(c, cp) if bounded else (None, None)
    return StrainMeasure(
        name="kbkz-custom", h=h, hp=hp, s_inf=s_inf, sp_inf=sp_inf, h2_satisfied=bounded
    )


class CatalogModel(NamedTuple):
    defaults: dict  # every parameter the model takes, with its default
    build: Callable  # (**parameters) -> (MemoryKernel, StrainMeasure)


# Raw variants use the damping functions exactly as commonly written; the
# normalized variants make h(2) = 1, so the rest state carries a purely
# isotropic stress (absorbed by the pressure gauge).  Normalized Wagner is
# h(x) = exp(-beta (sqrt x - sqrt 2)), C^1 on x > 0; the piecewise form
# exp(-beta sqrt(max(x-2, 0))) has an unbounded x^2 |h'| at x = 2+, so it
# cannot certify.  doi-edwards exercises the mode-sum spectrum and pairs it
# with the bounded rational damping so that the pair certifies.
CATALOG = {
    "oldroyd-b": CatalogModel(
        {"lam": 1.0, "mu_p": 1.0},
        lambda lam, mu_p: (single_exponential_kernel(lam), _oldroyd_measure(lam, mu_p)),
    ),
    "psm-raw": CatalogModel(
        {"lam": 1.0, "alpha": 1.0},
        lambda lam, alpha: (single_exponential_kernel(lam), _psm_measure("psm-raw", alpha, 0.0)),
    ),
    "psm-normalized": CatalogModel(
        {"lam": 1.0, "alpha": 3.0},
        lambda lam, alpha: (single_exponential_kernel(lam), _psm_measure("psm-normalized", alpha, 2.0)),
    ),
    "wagner-raw": CatalogModel(
        {"lam": 1.0, "beta": 1.0},
        lambda lam, beta: (single_exponential_kernel(lam), _wagner_measure("wagner-raw", beta, 1.0)),
    ),
    "wagner-normalized": CatalogModel(
        {"lam": 1.0, "beta": 1.0},
        lambda lam, beta: (
            single_exponential_kernel(lam),
            _wagner_measure("wagner-normalized", beta, math.exp(beta * math.sqrt(2.0))),
        ),
    ),
    "kbkz-custom": CatalogModel(
        {"lam": 1.0, "h": None, "hp": None},
        lambda lam, h, hp: (single_exponential_kernel(lam), _kbkz_custom_measure(h, hp)),
    ),
    "doi-edwards": CatalogModel(
        {"lam": 1.0, "alpha": 1.0, "max_mode": 31},
        lambda lam, alpha, max_mode: (reptation_mode_kernel(lam, max_mode), _psm_measure("psm-raw", alpha, 0.0)),
    ),
}

# the models whose parameters are all numbers, so that an INI file can set them
INI_MODELS = tuple(name for name, model in CATALOG.items() if None not in model.defaults.values())


def model_parameters(name: str, **params) -> dict:
    """Every parameter of a named model: the given ones, converted to the
    type of their default, over the defaults.  An unknown name or parameter
    raises ``ValueError``."""
    if name not in CATALOG:
        raise ValueError(f"unknown model {name!r}; choose from {tuple(CATALOG)}")
    defaults = CATALOG[name].defaults
    extra = params.keys() - defaults.keys()
    if extra:
        raise ValueError(f"unknown parameters for model {name!r}: {sorted(extra)}")
    return {key: value if defaults[key] is None else type(defaults[key])(value)
            for key, value in {**defaults, **params}.items()}


def model_catalog(name: str, **params) -> tuple[MemoryKernel, StrainMeasure]:
    """Configured (kernel, measure) pair for a named model of :data:`CATALOG`."""
    resolved = model_parameters(name, **params)  # first: it refuses an unknown name
    return CATALOG[name].build(**resolved)
