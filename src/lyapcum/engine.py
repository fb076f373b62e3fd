"""Steady-state cumulants of sparse VAR(1) processes.

The process ``X_t = A X_{t-1} + eps_t`` with Schur stable ``A`` and
independent diagonal noise has stationary cumulant tensors ``T_n`` solving
the order-n discrete Lyapunov equation

    T_n = T_n x_1 A ... x_n A + Omega_n.

This module solves that equation by squared-Smith doubling (Smith 1968,
"Matrix equation XA + BX = C"), cross-checks it with the truncated
mode-product series, recovers the noise cumulants from a solution, and
simulates the process for empirical estimates.  Every Tucker product here,
the series' terms included, runs on :func:`tensors._tucker`; one in-place
doubling kernel serves the solve and the forward-residual certificate of a
recovered A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import DirectedGraph
from .tensors import DimensionMismatch, SymmetricTensor, _tucker

# rho(A) must stay below 1 - STABILITY_MARGIN to certify stability
STABILITY_MARGIN = 1e-9

# doubling steps before giving up; rho < 1 - STABILITY_MARGIN needs about 35
MAX_DOUBLINGS = 64
# the solve doubles until its omitted tail is below machine epsilon
EPS = np.finfo(float).eps
# A recovery's residual is max|S|, S = sum_i R x_1 A^i ... x_n A^i for the
# off-diagonal rest R of T - T x_1 A ... x_n A.  Doubling R until q < 1/4 gives
# the exact partial sum P_k and a tail of at most q max|S|, so max|S| <= U =
# max|P_k| / (1 - q); as max|P_k| <= (1 + q) max|S|, U < 5/3 max|S|: under 2x.
CERTIFY_STOP = 0.25
# the default series stops once its last term is this small against the sum
SERIES_RTOL = 1e-16
SERIES_MAX_TERMS = 500
# batch means behind the simulator's standard errors
BATCHES = 40


class SingularSystem(Exception):
    """The Lyapunov solve turned non-finite or did not converge."""


class UnstableMatrix(Exception):
    """Spectral radius certificate failed (rho >= 1 - margin)."""


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


@dataclass(frozen=True)
class DiagonalCumulant:
    """Order-n noise cumulant stored as its p diagonal entries."""

    order: int
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if self.order < 2:
            raise ValueError("cumulant order must be at least 2")
        if self.w.ndim != 1:
            raise ValueError("diagonal entries must form a vector")

    @property
    def p(self) -> int:
        return len(self.w)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.p**self.order)
        dense[_diagonal_positions(self.p, self.order)] = self.w
        return dense.reshape((self.p,) * self.order)


@lru_cache(maxsize=32)
def _diagonal_positions(p: int, order: int) -> np.ndarray:
    """Cached, read-only flat positions of the entries (i, ..., i) in a (p,) * order array."""
    positions = np.arange(p) * ((p**order - 1) // (p - 1) if p > 1 else 0)
    positions.setflags(write=False)
    return positions


class ParameterMatrix:
    """Dense p x p matrix respecting a graph's sparsity pattern.

    The entry convention is ``entries[j, i]`` for the edge ``i -> j`` (row
    index = edge target).  Off-pattern entries must be exactly zero.
    """

    def __init__(self, g: DirectedGraph, entries: np.ndarray):
        entries = np.array(entries, dtype=float)  # own copy; frozen below
        if entries.shape != (g.p, g.p):
            raise DimensionMismatch(
                f"entries must be {g.p}x{g.p}, got {entries.shape}"
            )
        off_pattern = entries != 0.0
        if g.edges:
            tails, heads = zip(*g.sorted_edges)
            off_pattern[heads, tails] = False
        if off_pattern.any():
            j, i = np.argwhere(off_pattern)[0]  # row-major: the first offending entry
            raise ValueError(f"entry ({j},{i}) is nonzero but edge {i}->{j} is absent")
        self.g = g
        self.entries = entries
        self.entries.setflags(write=False)
        self._radius: float | None = None
        self._squares: tuple[tuple[np.ndarray, np.float64], ...] = ()

    @property
    def p(self) -> int:
        return self.g.p

    def radius(self) -> float:
        """Spectral radius, computed once per matrix."""
        if self._radius is None:
            if self.g.is_dag:  # triangular up to a relabeling: the eigenvalues are the a_jj
                self._radius = float(np.abs(self.entries.diagonal()).max())
            else:
                self._radius = spectral_radius(self.entries)
        return self._radius

    def squared_power(self, k: int) -> tuple[np.ndarray, np.float64]:
        """``(A^(2^k), ||A^(2^k)||_inf)``, each square computed once per matrix.

        Every doubling reads its step k from here, so the orders of one stack
        and the simulator share the squares.  The powers are read-only, and
        the norm stays a numpy float, so a huge ``norm ** n`` is inf rather
        than an ``OverflowError``.
        """
        squares = self._squares
        while len(squares) <= k:
            m = squares[-1][0] @ squares[-1][0] if squares else self.entries
            m.setflags(write=False)
            squares += ((m, np.abs(m).sum(axis=1).max()),)
        self._squares = squares  # replaced, never mutated: a racing thread only recomputes
        return squares[k]

    @property
    def stable(self) -> bool:
        return self.radius() < 1.0 - STABILITY_MARGIN

    def require_stable(self) -> None:
        if not self.stable:
            raise UnstableMatrix(
                f"spectral radius {self.radius():.6g} is not below "
                f"{1.0 - STABILITY_MARGIN}"
            )

    def __repr__(self) -> str:
        return f"ParameterMatrix(p={self.p}, radius={self.radius():.4g})"


def _double(flat: np.ndarray, a: ParameterMatrix, n: int, stop: float) -> float:
    """Squared-Smith doubling in place on the ``(p^(n-1), p)`` unfolding of T.

    Step k adds ``T x_1 M ... x_n M``, ``M = A^(2^k)``, by :func:`tensors._tucker`: then
    ``flat`` sums ``T x_1 A^i ... x_n A^i`` over ``i < 2^(k+1)``.  The omitted tail
    is at most ``q max|T_inf|``, ``q = ||M||_inf^n``; returns q at the first ``q < stop``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(MAX_DOUBLINGS):
            m, norm = a.squared_power(k)
            if not math.isfinite(norm):
                raise SingularSystem("doubling produced non-finite values")
            q = norm**n
            if q < stop:
                break
            flat += _tucker(flat, m, n).reshape(flat.shape)
    # a non-finite T stays non-finite, so one check at the end sees it
    if not np.isfinite(flat).all():
        raise SingularSystem("doubling produced non-finite values")
    if not q < stop:
        raise SingularSystem(f"doubling did not converge in {MAX_DOUBLINGS} steps")
    return q


def solve_cumulant(a: ParameterMatrix, omega: DiagonalCumulant) -> SymmetricTensor:
    """Steady-state cumulant by :func:`_double` to ``q < EPS``; unreached entries stay 0."""
    if omega.p != a.p:
        raise DimensionMismatch("noise cumulant dimension does not match matrix")
    a.require_stable()
    dense = omega.to_dense()
    _double(dense.reshape(-1, a.p), a, omega.order, EPS)
    return SymmetricTensor.from_dense(dense)


def default_series_terms(a: ParameterMatrix, omega: DiagonalCumulant) -> int:
    """Shortest default series: first L with rho^(n L) * ||Omega|| < 1e-14, capped."""
    rho = a.radius()
    norm = float(np.max(np.abs(omega.w)))
    if rho == 0.0 or norm == 0.0:
        return a.p + 1
    length = 1
    while rho ** (omega.order * length) * norm >= 1e-14 and length < SERIES_MAX_TERMS:
        length += 1
    return length


def series_cumulant(
    a: ParameterMatrix, omega: DiagonalCumulant, terms: int | None = None
) -> SymmetricTensor:
    """Partial sum of ``sum_i Omega x_1 A^i ... x_n A^i``, a term per :func:`tensors._tucker`.

    The independent oracle for :func:`solve_cumulant`.  With ``terms=None``
    the sum runs past the geometric tail bound of :func:`default_series_terms`
    until its last term is below ``SERIES_RTOL`` of the running sum (which
    catches transient growth of non-normal A), at most ``SERIES_MAX_TERMS``.
    """
    p, n = a.p, omega.order
    if omega.p != p:
        raise DimensionMismatch("noise cumulant dimension does not match matrix")
    if terms is None:
        a.require_stable()
        least, most = default_series_terms(a, omega), SERIES_MAX_TERMS
    elif terms < 1:
        raise ValueError("series needs at least one term")
    else:
        least = most = terms
    core = omega.to_dense()
    acc = np.zeros_like(core)
    power = np.eye(p)
    for length in range(1, most + 1):
        term = _tucker(core, power, n).reshape(acc.shape)
        acc += term
        if length >= least and np.max(np.abs(term)) <= SERIES_RTOL * np.max(np.abs(acc)):
            break
        power = a.entries @ power
    return SymmetricTensor.from_dense(acc)


def recursive_residual(
    t: SymmetricTensor, a: ParameterMatrix, omega: DiagonalCumulant
) -> float:
    """Max-norm of ``T - (T x_1 A ... x_n A + Omega)``.

    Zero certifies that T solves the order-n discrete Lyapunov equation.
    """
    if t.order != omega.order or t.p != a.p or omega.p != a.p:
        raise DimensionMismatch("orders or dimensions do not match")
    diagonal, rest = _defect(t.to_dense(), a)
    return float(max(np.max(np.abs(rest)), np.max(np.abs(diagonal - omega.w))))


def _defect(dense: np.ndarray, a: ParameterMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``T - T x_1 A ... x_n A`` as its diagonal and the unfolded off-diagonal rest."""
    p = a.p
    rest = dense.reshape(-1) - _tucker(dense, a.entries, dense.ndim).reshape(-1)
    on_diagonal = _diagonal_positions(p, dense.ndim)
    diag = rest[on_diagonal]
    rest[on_diagonal] = 0.0
    return diag, rest.reshape(-1, p)


def recover_noise(
    t: SymmetricTensor, a: ParameterMatrix
) -> tuple[DiagonalCumulant, float]:
    """Invert the recursion: ``Omega = T - T x_1 A ... x_n A``.

    Returns the diagonal together with the largest off-diagonal magnitude of
    the recovered tensor, which vanishes for model-consistent inputs.
    """
    if t.p != a.p:
        raise DimensionMismatch("tensor dimension does not match matrix")
    diag, rest = _defect(t.to_dense(), a)
    return DiagonalCumulant(t.order, diag), float(np.max(np.abs(rest)))


def _forward_residual(dense: np.ndarray, a: ParameterMatrix) -> tuple[np.ndarray, float]:
    """Recovered noise diagonal and the bound U of ``CERTIFY_STOP``; inf for an unstable A."""
    diag, rest = _defect(dense, a)
    if not a.stable:
        return diag, np.inf
    q = _double(rest, a, dense.ndim, CERTIFY_STOP)
    return diag, float(np.abs(rest).max()) / (1.0 - q)


def sample_stable_matrix(
    g: DirectedGraph, seed: int, target_radius: float = 0.6
) -> ParameterMatrix:
    """Random certified-stable matrix on the graph's sparsity pattern.

    Entries are drawn uniformly from [-1,1] excluding (-0.05, 0.05), then the
    matrix is rescaled to the target spectral radius.  Patterns whose draw is
    nilpotent keep radius zero, and diagonal-only patterns already inside the
    target are left unscaled.
    """
    if not 0.0 < target_radius < 1.0:
        raise ValueError("target radius must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    entries = np.zeros((g.p, g.p))
    for i, j in g.sorted_edges:
        magnitude = rng.uniform(0.05, 1.0)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        entries[j, i] = sign * magnitude
    rho = spectral_radius(entries)
    diagonal_only = all(i == j for i, j in g.edges)
    if rho > 1e-14 and not (diagonal_only and rho < target_radius):
        entries *= target_radius / rho
    pm = ParameterMatrix(g, entries)
    pm.require_stable()
    return pm


def random_omegas(
    rng: np.random.Generator, p: int, orders=(2, 3, 4)
) -> dict[int, DiagonalCumulant]:
    """Model-valid noise draws: even orders positive, odd orders sign-mixed.

    Magnitudes are uniform in [0.5, 2], matching the admissible parameter
    region (even-order diagonals positive, odd-order nonzero).
    """
    omegas = {}
    for n in orders:
        magnitude = rng.uniform(0.5, 2.0, p)
        if n % 2 == 1:
            magnitude = magnitude * np.where(rng.uniform(size=p) < 0.5, -1.0, 1.0)
        omegas[n] = DiagonalCumulant(n, magnitude)
    return omegas


# ---------------------------------------------------------------------------
# simulation and k-statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Independent diagonal noise: per-coordinate scale and distribution kind.

    Kinds: ``gaussian`` (scale = standard deviation), ``centered_exponential``
    (scale * (Exp(1) - 1)), and ``zero``.
    """

    kind: str
    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        if self.kind not in ("gaussian", "centered_exponential", "zero"):
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @property
    def p(self) -> int:
        return len(self.scale)

    def cumulant(self, order: int) -> DiagonalCumulant:
        """Exact noise cumulant of the given order."""
        s = self.scale
        if self.kind == "zero":
            w = np.zeros_like(s)
        elif self.kind == "gaussian":
            w = s**2 if order == 2 else np.zeros_like(s)
        else:  # centered exponential: all cumulants of Exp(1) equal (n-1)!
            factorial = 1
            for m in range(1, order):
                factorial *= m
            w = factorial * s**order
        return DiagonalCumulant(order, w)

    def draw(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros((steps, self.p))
        if self.kind == "gaussian":
            return rng.standard_normal((steps, self.p)) * self.scale
        return (rng.exponential(1.0, (steps, self.p)) - 1.0) * self.scale


def _k_statistics(window: np.ndarray, order: int) -> np.ndarray:
    """Dense k-statistic tensor (unbiased covariance / third k-statistic)."""
    n = window.shape[0]
    centered = window - window.mean(axis=0)
    if order == 2:
        return centered.T @ centered / (n - 1)
    if order == 3:
        m3 = np.einsum("ti,tj,tk->ijk", centered, centered, centered) / n
        return m3 * n * n / ((n - 1) * (n - 2))
    raise ValueError("sample cumulants are implemented for orders 2 and 3")


@dataclass(frozen=True)
class SimulationEstimate:
    estimate: SymmetricTensor
    stderr: SymmetricTensor
    nsamples: int


def simulate_and_estimate(
    a: ParameterMatrix,
    noise: NoiseSpec,
    t_max: int,
    burn_in: int,
    order: int,
    seed: int,
) -> SimulationEstimate:
    """Simulate the VAR(1) recursion and estimate a steady-state cumulant.

    Runs ``burn_in + t_max`` steps from ``x = 0``, keeps the last ``t_max``,
    and returns the k-statistic of the window.  Standard errors come from
    ``BATCHES`` batch means, which absorb the serial correlation of the
    trajectory.

    The trajectory ``x_t = sum_k A^k eps_(t-k)`` is a doubling scan over the
    drawn noise: after the step with shift s every row holds its first 2s
    terms, and ``M = A^(2s)``.  The scan stops once the shift covers every
    row, or once ``||M||_inf`` is below machine epsilon, where the omitted
    terms are at rounding level.
    """
    if order not in (2, 3):
        raise ValueError("simulation estimates support orders 2 and 3")
    if noise.p != a.p:
        raise DimensionMismatch("noise dimension does not match matrix")
    a.require_stable()
    rng = np.random.default_rng(seed)
    x = noise.draw(rng, burn_in + t_max)
    shift, k = 1, 0
    while shift < len(x):
        m, norm = a.squared_power(k)
        if norm < EPS:
            break
        x[shift:] += x[:-shift] @ m.T
        shift, k = 2 * shift, k + 1
    window = x[burn_in:]
    estimate = _k_statistics(window, order)
    batch_stats = np.stack(
        [_k_statistics(chunk, order) for chunk in np.array_split(window, BATCHES)]
    )
    stderr = batch_stats.std(axis=0, ddof=1) / np.sqrt(BATCHES)
    return SimulationEstimate(
        estimate=SymmetricTensor.from_dense(estimate),
        stderr=SymmetricTensor.from_dense(stderr),
        nsamples=t_max,
    )
