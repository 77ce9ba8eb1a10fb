"""Closed-form evaluation of the decentralized LQ game.

An n-player game over the symmetric linear system ``xdot = A x + u`` with
per-player scalar feedback ``u_i = -k_i x_i``.  Writing ``K = diag(k)``,
player i's infinite-horizon cost is

    J_i = (1 + rho_i k_i^2) / 2 * M_ii,    M = (K - A)^{-1},

valid whenever ``K - A`` is symmetric positive definite (a stable closed
loop).  Everything in this module is a pure function of a :class:`GameSpec`
and a gain profile: costs, own-action gradients, own-action curvatures, and
the Jacobian of the stacked gradient vector used for uniqueness analysis.
A report's curvatures are computed on first access, from the resolvent
diagonals, tradeoffs and gains it stores, so gradient play, which never
reads them, does not pay for them.

All of them are the single-profile case of one kernel that takes a
``(P, n)`` stack of profiles: it builds every ``K - A``, factors the whole
stack in one ``np.linalg.cholesky`` call (with a per-profile pivot check
that raises :class:`NotPositiveDefinite` naming the first failing profile),
and forms the stacked resolvents from the factors.  Sweeps over many
profiles call the kernel in blocks through :func:`_in_blocks`, whose one
bound, ``BLOCK_ENTRIES``, caps the array entries a block holds, so a block's
row count follows from n.  Every stability check, here and in
:mod:`nashlq.simulate`, uses the kernel's factor step.

:func:`evaluate`, which gradient play calls once per stage, is the kernel's
``P = 1`` case without the stack axis (:func:`_evaluate_one`): the same
operations on 2-D arrays, with the kernel's decisions and bits, and the
kernel's errors for a failed factorization.  The per-player formulas are
stated once, for both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "GameSpec",
    "ActionProfile",
    "CostGradientReport",
    "resolvent",
    "cost",
    "exact_gradient",
    "marginal_cost_from_cost",
    "second_derivative",
    "pseudogradient_jacobian",
    "stability_margin",
    "evaluate",
]

# Gershgorin slack added when lifting lower bounds to restore stability.
STABILITY_MARGIN = 1e-6

# Cholesky pivots below this fraction of ||K - A||_inf count as failure.
PIVOT_RTOL = 1e-12

# Array entries one stacked block holds, e.g. P profiles of n^2 entries each;
# bounds every blocked loop's work arrays, whatever n and the row count.
BLOCK_ENTRIES = 2**17

# Double precision's unit round-off, 2^-53.
_UNIT_ROUNDOFF = 2.0**-53

_FLOAT = np.dtype(float)


class NotPositiveDefinite(RuntimeError):
    """``K - A`` failed its positive-definite factorization.

    For a symmetric state matrix this signals an unstable closed loop:
    the game's costs are infinite at such a profile.
    """


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """Return ``a`` exactly symmetric, averaging away round-off only."""
    gap = np.max(np.abs(a - a.T)) if a.size else 0.0
    if gap == 0.0:
        return a
    scale = 1.0 + np.max(np.abs(a))
    if gap > 1e-8 * scale:
        raise ValueError(f"state matrix is not symmetric (max asymmetry {gap:g})")
    return (a + a.T) / 2.0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _is_int(value) -> bool:
    """True for Python and NumPy integers, but not for ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """True for integers as :func:`_is_int` takes them and floats, if finite as a float."""
    if not (_is_int(value) or isinstance(value, (float, np.floating))):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _require_int(value, name: str, low: int) -> None:
    """Refuse ``value`` unless it is an integer as :func:`_is_int` takes it, ``>= low``."""
    if not (_is_int(value) and value >= low):
        wanted = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
        raise ValueError(f"{name} must be {wanted}, got {value!r}")


def _require_finite(value, name: str, zero_ok: bool = False) -> None:
    """Refuse ``value`` unless it is a finite number as :func:`_is_finite` takes
    it, ``> 0``, or ``>= 0`` when ``zero_ok``."""
    if not (_is_finite(value) and (value >= 0 if zero_ok else value > 0)):
        wanted = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be a {wanted} finite number, got {value!r}")


def _real_array(value, name: str) -> np.ndarray:
    """A float copy of ``value``, every entry a finite number.

    Booleans and strings are refused, not converted; NumPy would turn
    ``[True, 0.5]`` into ``[1.0, 0.5]``.  Float and integer arrays, which
    internal callers pass, skip the per-entry type check.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        finite = np.all(np.isfinite(value))
    else:
        value = np.array(value, dtype=object)
        finite = all(map(_is_finite, value.flat))
    if not finite:
        raise ValueError(f"{name} must hold only finite numbers")
    return np.array(value, dtype=float)


def _vector(value, n: int, name: str) -> np.ndarray:
    value = _real_array(value, name)
    if value.ndim == 0:
        value = np.full(n, float(value))
    if value.shape != (n,):
        raise ValueError(f"{name} must be a scalar or length-{n} vector, got shape {value.shape}")
    return value


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Immutable game: state matrix, tradeoff weights, and the action box.

    Every entry must be a finite number; booleans and strings are refused.
    ``a`` must be symmetric (tiny asymmetries are averaged away, larger ones
    rejected).  If the stability check at the lower corner of the box fails,
    the lower bounds are lifted to
    ``max(0, a_ii + sum_j|a_ij| + margin)``, which makes ``K - A`` strictly
    diagonally dominant with positive diagonal for every profile in the box,
    hence positive definite.  Positive definite on the whole box does not
    mean every box profile passes the kernel: its relative pivot test
    (``PIVOT_RTOL``) still refuses a profile whose ``K - A`` is numerically
    singular, such as ``k = (1, 1e14)`` for ``A = -I`` and ``k_upper = 1e14``.

    Two read-only values are computed on first use and kept, for
    :func:`evaluate`'s single-profile path: ``_neg_a``, ``-A`` in C order,
    and ``_norm_a``, ``||A||_inf`` rounded up.
    """

    a: np.ndarray
    rho: np.ndarray
    k_upper: np.ndarray
    k_lower: np.ndarray | None = None

    def __post_init__(self):
        a = np.atleast_2d(_real_array(self.a, "state matrix"))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"state matrix must be square, got shape {a.shape}")
        a = _symmetrized(a)
        n = a.shape[0]

        rho = _vector(self.rho, n, "rho")
        if np.any(rho < 0):
            raise ValueError("tradeoff coefficients rho must be nonnegative")

        k_upper = _vector(self.k_upper, n, "k_upper")
        k_lower = np.zeros(n) if self.k_lower is None else _vector(self.k_lower, n, "k_lower")

        # Stability must hold on the whole box; K - A is smallest (in the
        # Loewner order) at the lower corner, so one check there suffices.
        if not _is_stable(a, k_lower):
            offdiag = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
            lift = np.maximum(0.0, np.diag(a) + offdiag + STABILITY_MARGIN)
            k_lower = np.maximum(k_lower, lift)
            if not _is_stable(a, k_lower):
                raise NotPositiveDefinite(
                    "stability lift failed; state matrix is numerically degenerate"
                )
        if np.any(k_lower >= k_upper):
            raise ValueError(
                "empty action box: need k_lower < k_upper componentwise "
                f"(after any stability lift, k_lower={k_lower})"
            )

        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "rho", _frozen(rho))
        object.__setattr__(self, "k_upper", _frozen(k_upper))
        object.__setattr__(self, "k_lower", _frozen(k_lower))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def contains(self, k) -> bool:
        """True when the profile lies in the action box."""
        k = profile_array(k)
        return bool(np.all(k >= self.k_lower) and np.all(k <= self.k_upper))

    def clip(self, k) -> np.ndarray:
        """Project a profile onto the action box componentwise."""
        return np.minimum(np.maximum(profile_array(k), self.k_lower), self.k_upper)

    @functools.cached_property
    def _neg_a(self) -> np.ndarray:
        """``-A``, C-ordered and read-only, the start of every single-profile ``K - A``."""
        return _frozen(np.negative(self.a, order="C"))

    @functools.cached_property
    def _norm_a(self) -> float:
        """``||A||_inf`` rounded up: each row's correctly rounded ``fsum``, one ulp higher."""
        rows = (math.nextafter(math.fsum(map(abs, row)), math.inf) for row in self.a.tolist())
        return max(rows, default=0.0)


@dataclass(frozen=True, eq=False)
class ActionProfile:
    """Joint gain vector, one scalar action per player."""

    k: np.ndarray

    def __post_init__(self):
        k = np.atleast_1d(np.array(self.k, dtype=float))
        if k.ndim != 1:
            raise ValueError(f"action profile must be a vector, got shape {k.shape}")
        object.__setattr__(self, "k", _frozen(k))

    def __len__(self) -> int:
        return self.k.shape[0]


@dataclass(frozen=True, eq=False)
class CostGradientReport:
    """Per-player closed-form quantities at one profile, or a stack of them.

    ``resolvent_diag`` holds the diagonal of ``(K - A)^{-1}`` (always
    positive on the stable region), ``cost`` the player costs, ``grad`` the
    stacked own-action partial derivatives, and ``k`` and ``rho`` the gains
    and tradeoffs they were evaluated at.  ``curvature``, the strictly
    positive second derivatives of each cost in its own action, is computed
    on first access from these fields and then kept.  ``rho`` is the spec's
    read-only array.  A single profile's ``resolvent_diag`` is a read-only
    view of a diagonal; a stack's is a writable copy.
    """

    resolvent_diag: np.ndarray
    cost: np.ndarray
    grad: np.ndarray
    k: np.ndarray
    rho: np.ndarray

    @functools.cached_property
    def curvature(self) -> np.ndarray:
        f, k = self.resolvent_diag, self.k
        return f * (self.rho * (1.0 - k * f) ** 2 + f**2)


def profile_array(k) -> np.ndarray:
    """Coerce an :class:`ActionProfile` or array-like to a float vector.

    A float64 ``np.ndarray`` of at least one dimension is returned as it
    is, which is what the coercion would return for it.
    """
    if isinstance(k, ActionProfile):
        return k.k
    if type(k) is np.ndarray and k.dtype is _FLOAT and k.ndim:
        return k
    return np.atleast_1d(np.asarray(k, dtype=float))


def _profile(spec: GameSpec, k) -> np.ndarray:
    k = profile_array(k)
    if k.shape != (spec.n,):
        raise ValueError(f"profile has shape {k.shape}, expected ({spec.n},)")
    return k


def _diagonals(x: np.ndarray) -> np.ndarray:
    """Diagonals of the last two axes; a writable view when ``x`` is C-ordered."""
    return x.reshape(x.shape[:-2] + (-1,))[..., :: x.shape[-1] + 1]


def _closed_loop(a: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """``K - A``, C-ordered, for one profile or each row of a ``(P, n)`` stack."""
    s = np.empty(ks.shape + ks.shape[-1:])
    np.negative(a, out=s)
    diagonal = _diagonals(s)
    diagonal += ks
    return s


def _closed_loop_one(spec: GameSpec, k: np.ndarray) -> np.ndarray:
    """:func:`_closed_loop` of one profile, from the spec's cached ``-A``.

    A C-ordered copy of ``-A`` with ``k`` added to its diagonal view: the
    negation and the addition :func:`_closed_loop` makes, so the bits are the
    same for any memory layout of ``A``, without negating ``A`` again.
    """
    s = spec._neg_a.copy()
    diagonal = s.ravel()[:: len(k) + 1]
    diagonal += k
    return s


def _pivot_check(chol: np.ndarray, s: np.ndarray):
    """Whether each factor passes, with its squared smallest pivot and ``||K - A||_inf``.

    ``chol`` holds lower Cholesky factors of ``s``, one matrix or a stack;
    a factor passes when its squared smallest pivot exceeds ``PIVOT_RTOL``
    times the infinity norm of its matrix.
    """
    pivots = chol.diagonal(0, -2, -1).min(axis=-1) ** 2
    scale = abs(s).sum(axis=-1).max(axis=-1)
    return pivots > PIVOT_RTOL * scale, pivots, scale


def _passes_pivot_test(chol: np.ndarray, s: np.ndarray, bound: float) -> bool:
    """:func:`_pivot_check`'s decision for one factor ``chol`` of ``s``, on Python scalars.

    Cholesky pivots are nonnegative or NaN, so every squared pivot exceeds
    the limit exactly when the squared smallest one does, NaN and inf
    included.  ``bound``, which must be NaN or no smaller than the computed
    ``||s||_inf``, decides first: its limit is no smaller than the norm's, as
    rounding ``PIVOT_RTOL * x`` is monotone in ``x``, so passing it implies
    passing the norm's.  An infinite or NaN bound passes no pivot.  When it
    does not decide, the norm is computed and its limit decides.
    """
    pivots = chol.diagonal().tolist()
    limit = PIVOT_RTOL * bound
    if all(p * p > limit for p in pivots):
        return True
    limit = PIVOT_RTOL * float(abs(s).sum(axis=-1).max())
    return all(p * p > limit for p in pivots)


def _cholesky(s: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a ``(P, n, n)`` stack of symmetric matrices.

    One ``np.linalg.cholesky`` call factors the whole stack.  A matrix fails
    when its factorization breaks down or a squared pivot falls to
    ``PIVOT_RTOL`` times its infinity norm; the first failure raises
    :class:`NotPositiveDefinite`, naming its index when the stack holds more
    than one matrix.
    """
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        # Refactor one at a time up to the first breakdown; NaN marks it.
        chol = np.full_like(s, np.nan)
        for i, matrix in enumerate(s):
            try:
                chol[i] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                break
    passed, pivots, scale = _pivot_check(chol, s)
    if passed.all():
        return chol
    i = int(np.argmin(passed))
    where = f" at profile {i}" if len(s) > 1 else ""
    lam_min = float(np.linalg.eigvalsh(s[i]).min())
    if np.isnan(pivots[i]):
        raise NotPositiveDefinite(
            f"K - A is not positive definite{where} (smallest eigenvalue {lam_min:g}); "
            "the closed loop is not stable at this profile"
        )
    raise NotPositiveDefinite(
        f"K - A is numerically singular{where} (pivot {pivots[i]:g} vs scale {scale[i]:g}, "
        f"smallest eigenvalue {lam_min:g})"
    )


def _is_stable(a: np.ndarray, k: np.ndarray) -> bool:
    """True when ``K - A`` at the profile ``k`` passes the kernel's factor check."""
    try:
        _cholesky(_closed_loop(a, k[None]))
    except NotPositiveDefinite:
        return False
    return True


def _fields(rho: np.ndarray, k: np.ndarray, f: np.ndarray) -> CostGradientReport:
    """Costs and gradients from the resolvent diagonals ``f``; curvatures on demand.

    ``k`` and ``f`` are one profile or a ``(P, n)`` stack of them.  The
    report keeps a copy of ``k``, so a caller that later changes its profile
    in place does not change the report's curvatures.
    """
    weight = 1.0 + rho * k**2
    j = 0.5 * weight * f
    # grad = rho*k*f - weight*f^2/2, factored so the same (rho*k - J) term
    # appears here and in marginal_cost_from_cost; the two stay within a few
    # ulp of each other even where the gradient crosses zero.
    g = f * (rho * k - j)
    return CostGradientReport(resolvent_diag=f, cost=j, grad=g, k=k.copy(), rho=rho)


def _evaluate_stack(spec: GameSpec, ks: np.ndarray) -> tuple[np.ndarray, CostGradientReport]:
    """The profile kernel: resolvents and per-player fields of a ``(P, n)`` stack.

    Returns ``M = (K - A)^{-1}`` for every profile, shape ``(P, n, n)``, and a
    report whose fields have shape ``(P, n)``.  With ``K - A = L L^T`` from
    one stacked Cholesky call, ``M = L^{-T} L^{-1}``, averaged with its
    transpose so it is exactly symmetric.  Every public profile function is
    the ``P = 1`` case of this kernel (:func:`evaluate` through
    :func:`_evaluate_one`); numpy's stacked factorizations and products work
    matrix by matrix, so a profile gets the same bits alone or inside a stack.
    """
    l_inv = np.linalg.inv(_cholesky(_closed_loop(spec.a, ks)))
    m = l_inv.transpose(0, 2, 1) @ l_inv
    m = (m + m.transpose(0, 2, 1)) / 2.0
    return m, _fields(spec.rho, ks, _diagonals(m).copy())


def _in_blocks(fn, rows: np.ndarray, entries_per_row: int) -> np.ndarray:
    """``fn`` over blocks of ``rows``, joined along the first axis (empty for no rows).

    A block holds ``max(1, BLOCK_ENTRIES // entries_per_row)`` rows, so at most
    ``BLOCK_ENTRIES`` entries unless one row alone holds more; a row is never
    split.  The kernel gives each row the same bits at any block size.
    """
    step = max(1, BLOCK_ENTRIES // entries_per_row)
    return np.concatenate([fn(rows[i : i + step]) for i in range(0, len(rows), step)] or [[]])


def _pivot_bound(spec: GameSpec, k: np.ndarray) -> float:
    """A bound, for :func:`_passes_pivot_test`, on the kernel's computed ``||K - A||_inf``.

    ``B = (max|k_i| + ||A||_inf) (1 + 4 n u)``, with ``u = 2^-53`` and the
    spec's upward-rounded norm.  ``B`` is never below the computed norm: each
    row of ``|K - A|`` sums terms no larger than ``|k_i| + |a_ij|``, and each
    of its at most ``n`` roundings (the diagonal's subtraction, then the
    additions) grows a sum of nonnegative terms by a factor of at most
    ``1 + u``, so the computed norm is at most
    ``(max|k_i| + ||A||_inf) (1 + u)^n``; ``B``'s factor covers that after
    ``B``'s own two roundings, each losing at most a factor ``1 - u``.  A
    product below ``2^-1022`` may round by more, but then every one of these
    sums lies below ``2^-1021``, where floats are evenly spaced, and is
    exact, so the computed norm is at most ``max|k_i| + ||A||_inf``, and so
    at most ``B``, as ``1 + 4 n u >= 1``.  An overflow makes ``B``
    infinite.  A NaN in ``k`` may be missed by ``max``, but it
    makes a pivot NaN, or the factorization break down.
    """
    return (max(map(abs, k.tolist())) + spec._norm_a) * (1.0 + 4 * len(k) * _UNIT_ROUNDOFF)


def _evaluate_one(spec: GameSpec, k: np.ndarray) -> CostGradientReport:
    """:func:`_evaluate_stack` of one validated profile, without the stack axis.

    ``K - A`` comes from :func:`_closed_loop_one`, with the kernel's bits for
    any memory layout of ``A``.  The pivot test, :func:`_passes_pivot_test`
    on :func:`_pivot_bound`, makes the kernel's decision on Python scalars;
    why it is the same decision is stated there.  Each further step is
    the kernel's operation on a 2-D array, which numpy computes as it does
    each matrix of a stack, so the report has the kernel's bits.  Only the
    resolvent's diagonal is formed, and it needs no symmetrization: the
    kernel's ``(m + m^T) / 2`` leaves a diagonal entry unchanged, since
    doubling and halving a finite double below ``DBL_MAX / 2`` are exact.
    A factorization that breaks down or fails the pivot test goes to
    :func:`_cholesky`, which raises the kernel's
    :class:`NotPositiveDefinite` for it.
    """
    s = _closed_loop_one(spec, k)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or not _passes_pivot_test(chol, s, _pivot_bound(spec, k)):
        chol = _cholesky(s[None])[0]
    l_inv = np.linalg.inv(chol)
    return _fields(spec.rho, k, (l_inv.T @ l_inv).diagonal())


def _jacobian_stack(spec: GameSpec, ks: np.ndarray) -> np.ndarray:
    """:func:`pseudogradient_jacobian` of a ``(P, n)`` stack, shape ``(P, n, n)``.

    The row factor ``(1 + rho_i k_i^2) M_ii - rho_i k_i`` is ``2 J_i - rho_i k_i``
    and the diagonal is the report's curvature, so neither formula is repeated.
    """
    m, report = _evaluate_stack(spec, ks)
    coeff = 2.0 * report.cost - spec.rho * ks
    g = coeff[:, :, None] * m**2
    _diagonals(g)[:] = report.curvature
    return g


def resolvent(spec: GameSpec, k) -> np.ndarray:
    """Return ``M = (K - A)^{-1}``, symmetric positive definite.

    The full inverse is cheap at game sizes and houses every player's
    diagonal entry plus the cross terms needed by
    :func:`pseudogradient_jacobian`.
    """
    return _evaluate_stack(spec, _profile(spec, k)[None])[0][0]


def evaluate(spec: GameSpec, k) -> CostGradientReport:
    """Costs, gradients, and curvatures from a single factorization."""
    return _evaluate_one(spec, _profile(spec, k))


def cost(spec: GameSpec, k) -> np.ndarray:
    """Per-player infinite-horizon costs ``(1 + rho k^2)/2 * M_ii``."""
    return evaluate(spec, k).cost


def exact_gradient(spec: GameSpec, k) -> np.ndarray:
    """Stacked vector of each player's own-action cost derivative."""
    return evaluate(spec, k).grad


def second_derivative(spec: GameSpec, k) -> np.ndarray:
    """Own-action second derivatives, strictly positive on the stable region."""
    return evaluate(spec, k).curvature


def marginal_cost_from_cost(cost_value, gain, tradeoff):
    """Own-action cost derivative recovered from the cost value alone.

    Implements ``2 J / (1 + rho k^2) * (rho k - J)``, which lets a player
    turn a sampled cost estimate into a gradient estimate without any model
    knowledge.  Fed the closed-form cost, it reproduces
    :func:`exact_gradient` to round-off.
    """
    cost_value = np.asarray(cost_value, dtype=float)
    gain = np.asarray(gain, dtype=float)
    tradeoff = np.asarray(tradeoff, dtype=float)
    return 2.0 * cost_value / (1.0 + tradeoff * gain**2) * (tradeoff * gain - cost_value)


def pseudogradient_jacobian(spec: GameSpec, k) -> np.ndarray:
    """Jacobian G of the stacked gradient vector, ``G_ij = d grad_i / d k_j``.

    The diagonal equals :func:`second_derivative`.  Off the diagonal,
    ``d M_ii / d k_j = -M_ij^2`` gives
    ``G_ij = ((1 + rho_i k_i^2) M_ii - rho_i k_i) * M_ij^2``.
    """
    return _jacobian_stack(spec, _profile(spec, k)[None])[0]


def stability_margin(spec: GameSpec, k) -> float:
    """Smallest eigenvalue of ``K - A``; positive iff the closed loop is stable."""
    return float(np.linalg.eigvalsh(_closed_loop(spec.a, _profile(spec, k)[None])).min())
