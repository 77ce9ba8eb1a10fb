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

All of them run through one kernel, :func:`_evaluate_stack`, which takes
one profile of shape ``(n,)`` or a ``(P, n)`` stack of them: it builds
every ``K - A`` from the spec's cached ``-A``, factors and inverts them in
one call each of the LAPACK gufuncs behind numpy's public ``cholesky`` and
``inv`` (:func:`_cholesky`), makes the pivot decision once (a failure
raises :class:`NotPositiveDefinite`, naming the first failing profile of a
stack), and forms the resolvents from the inverse factors.  A breakdown is
read from the NaN the gufunc writes into that matrix's factor, not from an
exception.  The gufuncs' module, ``numpy.linalg._umath_linalg``, is
private, but ships in every numpy from 1.25 on, and ``tests/test_game.py``
holds the public route as the reference its bits must equal.  Costs and
gradients come from one formula, :func:`_fields`, on arrays for a stack and
on Python floats for one profile (:func:`_lone_fields`), with the same bits;
:func:`evaluate` wraps the lone path's floats in a report, and a lone start
of gradient play takes them as they are, once per stage.  Sweeps over many
profiles call the kernel in blocks through :func:`_in_blocks`, whose one
bound, ``BLOCK_ENTRIES``, caps the array entries a block holds, so a
block's row count follows from n.  A block's rows may belong to different
games of one ``n``: :func:`_game_rows` gives the kernel a row-wise view of
them, so an ensemble shares one kernel call per block and each row keeps
the bits it gets with its own game.  Every
stability decision is made here: by the kernel's factor step, or, for
:mod:`nashlq.simulate`, by :func:`_stable_modes`, which certifies a stack
from the eigenvalues of the one ``eigh`` of ``A - K`` its costs need
anyway and hands a stack those cannot certify to the same factor step.
Every ``simulate`` entry, ``simulate_state`` included, takes its modes
from :func:`_stable_modes`, so ``K - A`` is formed and decomposed only in
this module.  :func:`stability_margin`, which reports the smallest
eigenvalue of ``K - A`` whatever its sign, is by design the one public
function that reads an uncertified ``K - A``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from numpy.linalg import _umath_linalg

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

# Slack per unit of a matrix's infinity norm on a computed eigenvalue;
# _eigenvalue_slack states why it suffices.
PRUNE_SLACK = 2.0**-26

# Array entries one stacked block holds, e.g. P profiles of n^2 entries each;
# bounds every blocked loop's work arrays, whatever n and the row count.
# An ensemble sweep's blocks span a chunk's games, and at 2^17 they raised its
# peak memory by ~3.5 MiB and ran slower.
BLOCK_ENTRIES = 2**14

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


def _require_choice(value, name: str, choices: tuple) -> None:
    """Refuse ``value`` unless it equals one of ``choices``; a JSON list is compared, not hashed."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}")


def _require_each(values: dict, rules: dict) -> None:
    """Apply each of ``rules``, a name's ``rule(value, name)``, to the value ``values`` holds
    for that name, if any, in the order of ``rules``."""
    for name, rule in rules.items():
        if name in values:
            rule(values[name], name)


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
    A box on which some player with ``rho_i > 0`` has ``rho_i k_i^2`` beyond
    the float range at a corner is refused, as its costs would overflow.

    Two read-only values are computed on first use and kept: ``_neg_a``,
    ``-A`` in C order, for the kernel's ``K - A``, and ``_norm_a``,
    ``||A||_inf`` rounded up, for :func:`_pivot_bound`.  Two are set at
    construction: ``n``, the number of players, and ``_square_overflows``,
    whether ``k_i^2`` overflows at a corner of the box for some player,
    necessarily one with ``rho_i = 0`` (:func:`_weighted_gains`).
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
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "n", n)

        # Stability must hold on the whole box; K - A is smallest (in the
        # Loewner order) at the lower corner, so one check there suffices.
        if not _is_stable(self, k_lower):
            offdiag = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
            lift = np.maximum(0.0, np.diag(a) + offdiag + STABILITY_MARGIN)
            k_lower = np.maximum(k_lower, lift)
            if not _is_stable(self, k_lower):
                raise NotPositiveDefinite(
                    "stability lift failed; state matrix is numerically degenerate"
                )
        if np.any(k_lower >= k_upper):
            raise ValueError(
                "empty action box: need k_lower < k_upper componentwise "
                f"(after any stability lift, k_lower={k_lower})"
            )
        # Costs weigh each player's state by 1 + rho_i k_i^2, largest at a corner.
        square_overflows = False
        for r, low, high in zip(rho.tolist(), k_lower.tolist(), k_upper.tolist()):
            square = max(low * low, high * high)
            if r > 0 and not math.isfinite(r * square):
                raise ValueError(f"action box too wide: rho * k^2 overflows at a corner for rho = {r:g}")
            square_overflows = square_overflows or not math.isfinite(square)
        object.__setattr__(self, "_square_overflows", square_overflows)
        object.__setattr__(self, "rho", _frozen(rho))
        object.__setattr__(self, "k_upper", _frozen(k_upper))
        object.__setattr__(self, "k_lower", _frozen(k_lower))

    def contains(self, k) -> bool:
        """True when the profile lies in the action box."""
        k = profile_array(k)
        return bool(np.all(k >= self.k_lower) and np.all(k <= self.k_upper))

    def clip(self, k) -> np.ndarray:
        """Project a profile onto the action box componentwise."""
        return np.minimum(np.maximum(profile_array(k), self.k_lower), self.k_upper)

    @functools.cached_property
    def _neg_a(self) -> np.ndarray:
        """``-A``, C-ordered and read-only, the start of every ``K - A`` the kernel forms."""
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
    read-only array.  ``resolvent_diag`` is a read-only view of the
    diagonal of the kernel's ``(K - A)^{-1}``: shape ``(n,)`` for one
    profile, and ``(P, n)``, one row per profile, for a stack.
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


def _closed_loop(spec: GameSpec, ks: np.ndarray) -> np.ndarray:
    """``K - A``, C-ordered, for one profile or each row of a ``(P, n)`` stack.

    A copy of the spec's cached ``-A``, or ``P`` of them, with each profile
    added to its diagonal; negation is exact, so the bits are those of ``-A``
    formed from ``A`` in any memory layout.  A :func:`_game_rows` view's
    ``-A`` is already ``(P, n, n)`` and its own, and becomes ``K - A`` in place.
    """
    lone = ks.ndim == 1
    if lone:
        s = spec._neg_a.copy()
    else:
        s = spec._neg_a if spec._neg_a.ndim == 3 else np.repeat(spec._neg_a[None], len(ks), axis=0)
    diagonal = s.ravel()[:: len(ks) + 1] if lone else _diagonals(s)  # the first is cheaper
    diagonal += ks
    return s


def _pivot_check(chol: np.ndarray, s: np.ndarray):
    """Whether each factor passes, with its squared smallest pivot and ``||K - A||_inf``.

    ``chol`` holds lower Cholesky factors of ``s``, one matrix or a stack;
    a factor passes when its squared smallest pivot exceeds ``PIVOT_RTOL``
    times the infinity norm of its matrix.
    """
    # np.square multiplies; a numpy scalar's ** 2 calls libm's pow, which may round otherwise
    pivots = np.square(chol.diagonal(0, -2, -1).min(axis=-1))
    scale = abs(s).sum(axis=-1).max(axis=-1)
    return pivots > PIVOT_RTOL * scale, pivots, scale


def _passes_pivot_test(chol: np.ndarray, s: np.ndarray, bound: float) -> bool:
    """:func:`_pivot_check`'s decision for the factor ``chol`` of ``s``, one
    matrix (on Python scalars) or a stack (every factor passes).

    ``bound``, NaN or no smaller than each computed ``||s||_inf``
    (:func:`_pivot_bound`), decides a pass: its limit is no smaller than the
    norm's, as rounding ``PIVOT_RTOL * x`` is monotone in ``x``, and as
    Cholesky pivots are nonnegative or NaN, every squared pivot exceeds a
    limit exactly when the smallest does.  A NaN or infinite bound passes no
    pivot.  Otherwise :func:`_pivot_check` decides.
    """
    limit = PIVOT_RTOL * bound
    if chol.ndim == 2:
        passed = all(p * p > limit for p in chol.diagonal().tolist())
    else:
        passed = bool(np.square(chol.diagonal(0, -2, -1).min()) > limit)
    return passed or bool(_pivot_check(chol, s)[0].all())


def _cholesky(s: np.ndarray, bound: float = math.nan, inverse: bool = False) -> np.ndarray:
    """Lower Cholesky factors ``L`` of one symmetric matrix or a ``(P, n, n)``
    stack, or their inverses ``L^{-1}`` when ``inverse``.

    One call of numpy's ``cholesky_lo`` gufunc factors the whole stack, and
    one of its ``inv`` gufunc inverts the factors when ``inverse``, both under
    one ``np.errstate`` that ignores every floating-point flag.  They are the
    gufuncs behind numpy's public ``cholesky`` and ``inv``, giving their bits
    without their per-call Python work.  Their module,
    ``numpy.linalg._umath_linalg``, is private but ships in every numpy from
    1.25 on, and ``tests/test_game.py`` checks the bits against the public
    route.  A breakdown shows as the NaN the gufunc writes into that matrix's
    factor; the other matrices keep their own bits.  A matrix fails when its
    factor holds such a NaN or a squared pivot falls to
    ``PIVOT_RTOL`` times its infinity norm, as :func:`_passes_pivot_test`
    decides on ``bound`` (NaN leaves it to :func:`_pivot_check`).  The first
    failure raises :class:`NotPositiveDefinite`, naming its index when the
    stack holds more than one matrix.  A failing matrix with a NaN or an
    infinite entry, which a NaN, infinite or overflowing gain puts there, is
    named with that entry, not an eigenvalue: ``eigvalsh`` of it means nothing.
    """
    with np.errstate(all="ignore"):
        chol = _umath_linalg.cholesky_lo(s)
        result = _umath_linalg.inv(chol) if inverse else chol
    if _passes_pivot_test(chol, s, bound):
        return result
    s = s.reshape((-1,) + s.shape[-2:])
    passed, pivots, scale = _pivot_check(chol.reshape(s.shape), s)
    i = int(np.argmin(passed))
    where = f" at profile {i}" if len(s) > 1 else ""
    bad = np.argwhere(~np.isfinite(s[i]))
    if bad.size:
        row, col = bad[0].tolist()
        raise NotPositiveDefinite(
            f"K - A has a non-finite entry{where} ({s[i, row, col]:g} at ({row}, {col})); "
            "a gain is NaN, infinite or too large"
        )
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


def _is_stable(spec: GameSpec, k: np.ndarray) -> bool:
    """True when ``K - A`` at the profile ``k`` passes the kernel's factor check."""
    try:
        _cholesky(_closed_loop(spec, k))
    except NotPositiveDefinite:
        return False
    return True


def _pivot_bound(spec: GameSpec, gain: float) -> float:
    """A bound on the kernel's computed ``||K - A||_inf`` at every profile whose
    gains are at most ``gain`` in magnitude, for the pivot test.

    ``B = (gain + ||A||_inf) (1 + 4 n u)``, with ``u = 2^-53`` and the
    spec's upward-rounded norm.  ``B`` is never below the computed norm: each
    row of ``|K - A|`` sums terms no larger than ``|k_i| + |a_ij|``, and each
    of its at most ``n`` roundings (the diagonal's subtraction, then the
    additions) grows a sum of nonnegative terms by a factor of at most
    ``1 + u``, so the computed norm is at most ``(gain + ||A||_inf) (1 +
    u)^n``; ``B``'s factor covers that after ``B``'s own two roundings, each
    losing at most a factor ``1 - u``.  A product below ``2^-1022`` may round
    by more, but then every one of these sums lies below ``2^-1021``, where
    floats are evenly spaced, and is exact, so the computed norm is at most
    ``gain + ||A||_inf``, and so at most ``B``, as ``1 + 4 n u >= 1``.  An
    overflow makes ``B`` infinite, and a NaN ``gain`` makes it NaN.
    """
    return (gain + spec._norm_a) * (1.0 + 4 * spec.n * _UNIT_ROUNDOFF)


def _eigenvalue_slack(norm: float | np.ndarray) -> float | np.ndarray:
    """``PRUNE_SLACK * norm + 2^-1022``, the round-off slack of a test on a computed
    eigenvalue of a symmetric matrix of infinity norm ``norm`` (a float or an array).

    LAPACK computes each eigenvalue within ``e(n) u ||H||_2 <= e(n) u ||H||_inf``
    of the stored matrix's, ``u = 2^-53``, with ``e(n)`` "a modestly growing
    function of n" (LAPACK Users' Guide, section 4.7).  A test whose own
    roundings add at most ``c(n) u ||H||_inf`` stays sound while
    ``PRUNE_SLACK (1 - n u) > (e(n) + c(n)) u``, which ``PRUNE_SLACK = 2^27 u``
    meets for ``e(n) = n^2``: at every ``n <= 11000`` for ``c(n) = n + 3``
    (:func:`analysis._rosen_values`), and at every ``n <= 8000`` for
    ``c(n) = n^2 + 2 n + 8`` (:func:`_stable_modes`).  The ``2^-1022`` covers
    the at most ``2^-1075`` that each rounding may lose below the normal range.
    """
    return PRUNE_SLACK * norm + 2.0**-1022


def _stable_modes(spec: GameSpec, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of ``A - K`` at one profile or each row of
    an ``(R, n)`` stack, once the whole stack is certified stable.

    One ``eigh`` of ``-S``, ``S = K - A``, gives both.  The stack passes when
    ``-max(lam) - slack > PIVOT_RTOL B``, with ``B`` the :func:`_pivot_bound`
    at its largest gain (numpy's max keeps a NaN, which passes nothing) and
    the slack :func:`_eigenvalue_slack` of ``B``.  Otherwise, an eigensolver
    failure included, :func:`_cholesky` decides, and raises its
    :class:`NotPositiveDefinite`.

    A pass is sound: every pivot would pass ``_cholesky``'s test.  A Cholesky
    factorization that runs to completion has ``L L^T = S + E`` with
    ``||E||_2 <= n gamma_{n+1} ||S + E||_2``, ``gamma_m = m u / (1 - m u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, section
    10.1), and it runs to completion when ``lambda_min(S) > 20 n^{3/2} u
    ||S||_2``.  Each squared pivot is a pivot of ``S + E``, so at least
    ``lambda_min(S) - ||E||_2``; as ``||S||_2 <= ||S||_inf <= B``, this bound
    and the test's roundings lose at most ``(n^2 + 2 n + 8) u B``, which the
    slack covers.
    """
    s = _closed_loop(spec, ks)
    try:
        lam, q = np.linalg.eigh(-s)
    except ValueError:  # numpy's error for an eigensolver that does not converge is one
        _cholesky(s)
        raise
    bound = _pivot_bound(spec, float(abs(ks).max()))
    if not -float(lam.max()) - _eigenvalue_slack(bound) > PIVOT_RTOL * bound:
        _cholesky(s)
    return lam, q


def _weighted_gains(spec: GameSpec, k: np.ndarray) -> np.ndarray:
    """``k``, one profile or a stack, as the cost weight ``1 + rho_i k_i^2`` reads it.

    A ``rho_i = 0`` player's gain is read as 0, so that its weight is exactly
    1 also where ``k_i^2`` overflows and ``0 * inf`` would give NaN; it is 1
    for any other gain anyway.  Only a spec whose box reaches such a gain
    (``GameSpec._square_overflows``) pays for the substitution, so the
    guarantee covers gains inside the box; profiles are not checked against it.
    """
    return np.where(spec.rho > 0, k, 0.0) if spec._square_overflows else k


def _weight(rho, weighted):
    """The cost weight ``1 + rho k^2``: of one player on Python floats, or of
    a profile or a stack on arrays, with the same bits.

    ``weighted`` is ``k`` as :func:`_weighted_gains` reads it.  Its square is
    ``weighted * weighted``, the product numpy's ``** 2`` forms; ``**`` on a
    Python float calls libm's ``pow``, which may round otherwise.
    """
    return 1.0 + rho * (weighted * weighted)


def _fields(rho, k, weighted, f):
    """Costs ``J = (1 + rho k^2) f / 2`` and gradients ``f (rho k - J)`` from the
    resolvent diagonals ``f``: of one player on Python floats, or of a
    ``(P, n)`` stack on arrays, with the same bits (:func:`_weight`).
    """
    j = 0.5 * _weight(rho, weighted) * f
    # grad = rho*k*f - weight*f^2/2, factored so the same (rho*k - J) term
    # appears here and in marginal_cost_from_cost; the two stay within a few
    # ulp of each other even where the gradient crosses zero.
    return j, f * (rho * k - j)


def _resolvent_stack(spec: GameSpec, ks: np.ndarray, gain: float) -> np.ndarray:
    """``M = L^{-T} L^{-1}`` for one profile ``(n,)`` or each row of a ``(P, n)``
    stack, whose largest gain magnitude is ``gain``.

    :func:`_closed_loop` forms ``K - A``, and :func:`_cholesky` factors and
    inverts it, on the :func:`_pivot_bound` of ``gain``: ``K - A = L L^T``.
    Numpy's stacked factorizations and products work matrix by matrix, so a
    profile gets the same bits alone or inside a stack.
    """
    l_inv = _cholesky(_closed_loop(spec, ks), _pivot_bound(spec, gain), inverse=True)
    # A lone profile's 2-D views, cheaper than numpy's generic ones.
    return (l_inv.T if ks.ndim == 1 else l_inv.swapaxes(-1, -2)) @ l_inv


def _lone_fields(spec: GameSpec, k: np.ndarray) -> tuple[np.ndarray, tuple, tuple]:
    """The kernel on one profile ``k`` of shape ``(n,)``: ``M``, and each
    player's cost and gradient as Python floats, by :func:`_fields` on M's
    diagonal read once with ``tolist``.

    Exact play's lone stage takes these as they are, with no report.
    """
    gains = k.tolist()
    # Python's max, faster here than numpy's, may miss a NaN gain, but that
    # makes a pivot NaN or the factorization break down.
    m = _resolvent_stack(spec, k, max(map(abs, gains)))
    weighted = _weighted_gains(spec, k)
    costs, grads = zip(*map(
        _fields, spec.rho.tolist(), gains, gains if weighted is k else weighted.tolist(), m.diagonal().tolist()
    ))
    return m, costs, grads


def _evaluate_stack(spec: GameSpec, ks: np.ndarray) -> tuple[np.ndarray, CostGradientReport]:
    """The profile kernel: ``L^{-T} L^{-1}`` and the per-player fields of one
    profile, shape ``(n,)``, or of each row of a ``(P, n)`` stack.

    :func:`_resolvent_stack` gives ``M``, and :func:`_fields` the costs and
    gradients from its diagonal: on Python floats for one profile
    (:func:`_lone_fields`), on arrays for a stack, with the same bits, so a
    profile's fields are the same alone or inside a stack.  The report reads
    M's diagonal as it is, since the ``(M + M^T) / 2`` of :func:`resolvent`
    and :func:`_jacobian`, which read all of M, leaves a diagonal entry
    unchanged: doubling and halving a finite double below ``DBL_MAX / 2``
    are exact.  The report keeps a copy of the profiles, so a caller that
    later changes them in place does not change its curvatures.
    """
    if ks.ndim == 1:
        m, costs, grads = _lone_fields(spec, ks)
        f, costs, grads = m.diagonal(), np.array(costs), np.array(grads)
    else:
        m = _resolvent_stack(spec, ks, float(abs(ks).max()))
        f = m.diagonal(0, -2, -1)
        costs, grads = _fields(spec.rho, ks, _weighted_gains(spec, ks), f)
    return m, CostGradientReport(resolvent_diag=f, cost=costs, grad=grads, k=ks.copy(), rho=spec.rho)


def _game_rows(specs: list, owner: np.ndarray) -> SimpleNamespace:
    """A row-wise view of games of one ``n`` for the kernel: row ``p`` of a
    ``(P, n)`` stack is a profile of ``specs[owner[p]]``.

    It holds what the kernel reads of a spec: ``n``; ``_neg_a`` and ``rho``
    gathered per row, shapes ``(P, n, n)`` and ``(P, n)``; the largest of the
    games' ``_norm_a``, which bounds every row's ``||K - A||_inf`` as
    :func:`_pivot_bound` needs, while :func:`_passes_pivot_test` falls back to
    each matrix's own test, so every decision is the row's game's; and
    ``_square_overflows`` if any game's is, as :func:`_weighted_gains` gives
    the same bits either way.  Its ``-A`` rows are gathered fresh and become
    ``K - A`` in place (:func:`_closed_loop`), so a view serves one kernel call.
    """
    first = int(owner.min())
    games = specs[first : int(owner.max()) + 1]
    rows = owner - first
    return SimpleNamespace(
        n=games[0].n,
        _neg_a=np.stack([spec._neg_a for spec in games])[rows],
        rho=np.stack([spec.rho for spec in games])[rows],
        _norm_a=max(spec._norm_a for spec in games),
        _square_overflows=any(spec._square_overflows for spec in games),
    )


def _in_blocks(fn, rows: np.ndarray, entries_per_row: int, *aligned: np.ndarray) -> np.ndarray:
    """``fn`` over blocks of ``rows``, joined along the first axis (empty for no rows);
    ``fn`` also gets the same block of each of the ``aligned`` arrays, such as the
    rows' games.

    A block holds ``max(1, BLOCK_ENTRIES // entries_per_row)`` rows, so at most
    ``BLOCK_ENTRIES`` entries unless one row alone holds more; a row is never
    split.  The kernel gives each row the same bits at any block size.
    """
    step = max(1, BLOCK_ENTRIES // entries_per_row)
    blocks = (slice(i, i + step) for i in range(0, len(rows), step))
    return np.concatenate([fn(rows[b], *(a[b] for a in aligned)) for b in blocks] or [[]])


def _jacobian(rho: np.ndarray, ks: np.ndarray, m: np.ndarray, cost: np.ndarray,
              curvature: np.ndarray) -> np.ndarray:
    """:func:`pseudogradient_jacobian` from kernel results that already exist:
    the profiles ``ks``, one ``(n,)`` or a ``(P, n)`` stack, their tradeoffs
    ``rho`` (a spec's, or one row per profile), and their C-ordered
    ``L^{-T} L^{-1}``, costs and curvatures.

    The row factor ``(1 + rho_i k_i^2) M_ii - rho_i k_i`` is ``2 J_i - rho_i k_i``
    and the diagonal is the report's curvature, so neither formula is repeated.
    """
    coeff = 2.0 * cost - rho * ks
    g = m + m.swapaxes(-1, -2)  # then in place: one (P, n, n) array at a time
    g /= 2.0
    np.square(g, out=g)
    g *= coeff[..., None]
    _diagonals(g)[:] = curvature
    return g


def _jacobian_stack(spec: GameSpec, ks: np.ndarray) -> np.ndarray:
    """:func:`pseudogradient_jacobian` of one profile ``(n,)`` or of each row of a
    ``(P, n)`` stack, shape ``(n, n)`` or ``(P, n, n)``: one kernel call, on the
    kernel's lone path for one profile, then :func:`_jacobian`."""
    m, report = _evaluate_stack(spec, ks)
    return _jacobian(report.rho, ks, m, report.cost, report.curvature)


def resolvent(spec: GameSpec, k) -> np.ndarray:
    """Return ``M = (K - A)^{-1}``, symmetric positive definite.

    The full inverse is cheap at game sizes and houses every player's
    diagonal entry plus the cross terms needed by
    :func:`pseudogradient_jacobian`.
    """
    m = _evaluate_stack(spec, _profile(spec, k))[0]
    return (m + m.T) / 2.0


def evaluate(spec: GameSpec, k) -> CostGradientReport:
    """Costs, gradients, and curvatures from a single factorization."""
    return _evaluate_stack(spec, _profile(spec, k))[1]


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
    return 2.0 * cost_value / _weight(tradeoff, gain) * (tradeoff * gain - cost_value)


def pseudogradient_jacobian(spec: GameSpec, k) -> np.ndarray:
    """Jacobian G of the stacked gradient vector, ``G_ij = d grad_i / d k_j``.

    The diagonal equals :func:`second_derivative`.  Off the diagonal,
    ``d M_ii / d k_j = -M_ij^2`` gives
    ``G_ij = ((1 + rho_i k_i^2) M_ii - rho_i k_i) * M_ij^2``.  One kernel
    call on its lone path, whose bits a stack's row shares.
    """
    return _jacobian_stack(spec, _profile(spec, k))


def stability_margin(spec: GameSpec, k) -> float:
    """Smallest eigenvalue of ``K - A``; positive iff the closed loop is stable."""
    return float(np.linalg.eigvalsh(_closed_loop(spec, _profile(spec, k))).min())
