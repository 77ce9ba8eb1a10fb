import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashlq import (
    ActionProfile,
    GameSpec,
    LearnConfig,
    NotPositiveDefinite,
    SimConfig,
    cost,
    evaluate,
    exact_gradient,
    five_player_game,
    marginal_cost_from_cost,
    monte_carlo_cost,
    pseudogradient_jacobian,
    resolvent,
    rosen_check,
    run_gradient_play,
    second_derivative,
    simulate_batch,
    simulate_state,
    stability_margin,
    substream,
    trajectory_cost,
)
from nashlq.game import (
    PIVOT_RTOL, _cholesky, _closed_loop, _diagonals, _evaluate_stack, _jacobian_stack, _lone_fields,
    _passes_pivot_test, _pivot_bound, _pivot_check, _stable_modes, _weight, _weighted_gains, profile_array,
)
from util import fd_gradient, fd_hessian_diag, fd_jacobian, random_game, rel_gap

# Costs at the published round-1 stage-250 gains of the 5-player benchmark,
# frozen from a dense-solve oracle (np.linalg.solve on K - A).
TABLE_POINT = np.array([1.31, 1.89, 1.46, 3.85, 1.03])
F_GOLDEN = np.array([
    0.7440706685115461,
    0.5123148101651842,
    0.6693802084342813,
    0.2575929682083571,
    0.8786490094439168,
])
J_GOLDEN = np.array([
    0.7258642339856444,
    0.4979056538635504,
    0.6575864520922943,
    0.2555597869102885,
    0.8117219190025193,
])


def scalar_spec(rho):
    return GameSpec(a=[[-1.0]], rho=rho, k_upper=5.0)


class TestResolvent:
    def test_diagonal_decoupled(self):
        spec = GameSpec(a=np.diag([-2.0, -3.0]), rho=0.0, k_upper=5.0)
        m = resolvent(spec, [0.0, 0.0])
        assert np.allclose(m, np.diag([0.5, 1.0 / 3.0]), rtol=1e-14, atol=0)

    def test_two_by_two_adjugate(self):
        spec = GameSpec(a=[[-2.0, -0.5], [-0.5, -2.0]], rho=0.0, k_upper=5.0)
        m = resolvent(spec, [0.0, 0.0])
        expected = np.array([[2.0, -0.5], [-0.5, 2.0]]) / 3.75
        assert np.allclose(m, expected, rtol=1e-14, atol=0)

    def test_identity_case(self):
        spec = GameSpec(a=-np.eye(3), rho=0.0, k_upper=5.0)
        assert np.allclose(resolvent(spec, np.zeros(3)), np.eye(3), rtol=1e-14, atol=1e-15)

    def test_inverse_and_symmetry(self):
        spec, k = random_game(11)
        m = resolvent(spec, k)
        s = np.diag(k) - spec.a
        assert np.max(np.abs(s @ m - np.eye(spec.n))) < 1e-10
        assert np.array_equal(m, m.T)
        assert np.linalg.eigvalsh(m).min() > 0

    def test_unstable_profile_raises(self):
        spec = GameSpec(a=[[1.0, 0.0], [0.0, -1.0]], rho=0.0, k_upper=5.0)
        with pytest.raises(NotPositiveDefinite, match="eigenvalue"):
            resolvent(spec, [0.0, 0.0])


def cho_resolvent(spec, k):
    """The retired per-profile resolvent: scipy ``cho_factor`` + ``cho_solve``."""
    linalg = pytest.importorskip("scipy.linalg")
    s = np.diag(k) - spec.a
    c = linalg.cho_factor(s, lower=True, check_finite=False)
    m = linalg.cho_solve(c, np.eye(spec.n), check_finite=False)
    return (m + m.T) / 2.0


def cho_fields(spec, k):
    """Cost, gradient, curvature and Jacobian by the retired formulas."""
    m = cho_resolvent(spec, k)
    f = np.diag(m)
    weight = 1.0 + spec.rho * k**2
    j = 0.5 * weight * f
    grad = f * (spec.rho * k - j)
    curvature = f * (spec.rho * (1.0 - k * f) ** 2 + f**2)
    jac = (weight * f - spec.rho * k)[:, None] * m**2
    np.fill_diagonal(jac, curvature)
    return m, f, j, grad, curvature, jac


def _outcome(call):
    """The bits of the report ``call`` returns, or the NotPositiveDefinite message it raises."""
    try:
        report = call()
    except NotPositiveDefinite as err:
        return str(err)
    fields = (report.resolvent_diag, report.cost, report.grad, report.curvature)
    return [field.tobytes() for field in fields]


def eager_curvature(spec, k, f):
    """The retired eager curvature, computed with every report's fields."""
    return f * (spec.rho * (1.0 - k * f) ** 2 + f**2)


def retired_resolvent_diag(spec, k):
    """The single path's retired resolvent diagonal, symmetrized as ``(d + d) / 2``."""
    l_inv = np.linalg.inv(np.linalg.cholesky(_closed_loop(spec, k)))
    d = (l_inv.T @ l_inv).diagonal()
    return (d + d) / 2.0


def spd_case(n, seed, scale):
    """A random SPD matrix of order ``n`` scaled by ``2^scale``, its Cholesky
    factor, and the stream that drew it."""
    rng = substream(seed)
    x = rng.standard_normal((n, n))
    s = (x @ x.T + n * np.eye(n)) * 2.0**scale
    return s, np.linalg.cholesky(s), rng


@st.composite
def pivot_edge_case(draw):
    """A :func:`spd_case` ``s``, its Cholesky factor, and the factor's pivot index to move.

    Some cases set pivots of the factor to NaN, inf or zero, or an entry of
    ``s`` to inf or NaN.
    """
    n = draw(st.integers(1, 8))
    s, chol, rng = spd_case(n, draw(st.integers(0, 2**32 - 1)), draw(st.integers(-500, 500)))
    specials = st.tuples(st.integers(0, n - 1), st.sampled_from([np.nan, np.inf, 0.0]))
    for i, value in draw(st.lists(specials, max_size=2)):
        chol[i, i] = value
    entry = draw(st.sampled_from([None, np.inf, np.nan]))
    if entry is not None:
        s[rng.integers(n), rng.integers(n)] = entry
    return s, chol, draw(st.integers(0, n - 1))


def stacked_game(seed, n, count):
    """A random SDD game with ``n <= 20`` players and ``count`` box profiles."""
    spec, k = random_game(seed, n=n)
    rng = np.random.default_rng(seed)
    ks = spec.k_lower + rng.random((count, n)) * (spec.k_upper - spec.k_lower)
    return spec, np.vstack([k, ks])


@st.composite
def lone_case(draw):
    """A random SDD game with 1-12 players, some of them with ``rho_i = 0``,
    whose box, for a wide case, lets those players' gains reach past
    ``sqrt(DBL_MAX)`` (``GameSpec._square_overflows``), and a profile with each
    gain on its lower face, on its upper face or inside the box."""
    n, seed = draw(st.integers(1, 12)), draw(st.integers(0, 10**6))
    base, _ = random_game(seed, n=n)
    zero = np.array(draw(st.one_of(st.just([True] * n), st.lists(st.booleans(), min_size=n, max_size=n))))
    rho = np.where(zero, 0.0, base.rho)
    upper = base.k_upper
    if draw(st.booleans()):
        upper = np.where(rho > 0, upper, draw(st.sampled_from([2.0**512, 1e200, 1e300, 1.7e308])))
    spec = GameSpec(a=base.a, rho=rho, k_upper=upper)
    # All gains on one face often pass the pivot test where huge and small gains mix.
    sides = st.sampled_from([0, 1, 2])
    faces = np.array(draw(st.one_of(sides.map(lambda side: [side] * n), st.lists(sides, min_size=n, max_size=n))))
    inside = spec.k_lower + substream(seed).random(n) * (spec.k_upper - spec.k_lower)
    return spec, np.choose(faces, [spec.k_lower, spec.k_upper, inside])


def retired_fields(spec, k, f):
    """The retired array formulas for costs and gradients, ``** 2`` included."""
    weighted = np.where(spec.rho > 0, k, 0.0) if spec._square_overflows else k
    j = 0.5 * (1.0 + spec.rho * weighted**2) * f
    return j, f * (spec.rho * k - j)


class TestProfileKernel:
    @given(st.integers(0, 10**6), st.integers(1, 20))
    def test_matches_cho_solve_reference(self, seed, n):
        spec, ks = stacked_game(seed, n, 2)
        for k in ks:
            m, f, j, grad, curvature, jac = cho_fields(spec, k)
            report = evaluate(spec, k)
            assert rel_gap(resolvent(spec, k), m) <= 1e-12
            assert rel_gap(report.resolvent_diag, f) <= 1e-12
            assert rel_gap(report.cost, j) <= 1e-12
            assert rel_gap(report.grad, grad) <= 1e-12
            assert rel_gap(report.curvature, curvature) <= 1e-12
            assert rel_gap(pseudogradient_jacobian(spec, k), jac) <= 1e-12

    @given(st.integers(0, 10**6), st.integers(1, 20), st.integers(1, 9))
    def test_stack_element_equals_single_call(self, seed, n, count):
        spec, ks = stacked_game(seed, n, count)
        m, report = _evaluate_stack(spec, ks)
        jac = _jacobian_stack(spec, ks)
        for i, k in enumerate(ks):
            single = evaluate(spec, k)
            assert np.array_equal(m[i], resolvent(spec, k))
            assert np.array_equal(report.resolvent_diag[i], single.resolvent_diag)
            assert np.array_equal(report.cost[i], single.cost)
            assert np.array_equal(report.grad[i], single.grad)
            assert np.array_equal(report.curvature[i], single.curvature)
            assert np.array_equal(jac[i], pseudogradient_jacobian(spec, k))
        # The same game stored Fortran-ordered (as a transpose or a scipy
        # result would be) gives the same bits.
        spec_f = GameSpec(
            a=np.asfortranarray(spec.a), rho=spec.rho, k_upper=spec.k_upper, k_lower=spec.k_lower
        )
        assert not spec_f.a.flags.c_contiguous or n == 1
        # The Jacobian and the Rosen check take the kernel's lone path.
        rosen = np.linalg.eigvalsh(jac + jac.transpose(0, 2, 1)).min(axis=1)
        for i, k in enumerate(ks):
            single = evaluate(spec_f, k)
            assert np.array_equal(report.resolvent_diag[i], single.resolvent_diag)
            assert np.array_equal(report.cost[i], single.cost)
            assert np.array_equal(report.grad[i], single.grad)
            assert np.array_equal(report.curvature[i], single.curvature)
            assert pseudogradient_jacobian(spec_f, k).tobytes() == jac[i].tobytes()
            assert rosen_check(spec_f, k) == rosen[i]
        # Shifted down by the smallest eigenvalue of K - A, a profile is
        # singular to round-off, which fails the pivot check or the
        # factorization; shifted one further, the factorization breaks down.
        lam = stability_margin(spec, ks[0])
        for bad in (ks[0] - lam, ks[0] - lam - 1.0):
            kernel = _outcome(lambda: _evaluate_stack(spec, bad[None])[1])
            assert _outcome(lambda: evaluate(spec, bad)) == kernel
        assert isinstance(kernel, str) and "at profile" not in kernel

    @pytest.mark.parametrize(
        "a, k, message",
        [
            ([[1.0, 0.0], [0.0, -1.0]], [0.5, 0.0], "not positive definite .*eigenvalue -0.5"),
            ([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], "not positive definite .*eigenvalue -1"),
            ([[1.0, 0.0], [0.0, -1.0]], [1.0 + 1e-13, 0.5], "numerically singular \\(pivot"),
            # Pivot 1.5e-12 is under PIVOT_RTOL times the row-sum norm 2, not
            # times the largest entry 1.
            ([[0.0, -1.0], [-1.0, 0.0]], [1.0, 1.0 + 1.5e-12], "numerically singular \\(pivot"),
        ],
    )
    def test_single_call_raises_the_kernel_message(self, a, k, message):
        spec = GameSpec(a=a, rho=0.0, k_upper=5.0)
        kernel = _outcome(lambda: _evaluate_stack(spec, np.array([k])))
        single = _outcome(lambda: evaluate(spec, k))
        assert isinstance(kernel, str) and re.match("K - A is " + message, kernel)
        assert single == kernel

    # A one-matrix factor, whose smallest pivot is a numpy scalar: its ** 2
    # would call libm's pow, which rounds 3.995286157371701e-07 ** 2 down.
    @example(spd_case(1, 184, -3)[:2] + (0,), 1.0)
    @given(pivot_edge_case(), st.floats(1.0, 4.0))
    def test_scalar_pivot_test_makes_the_kernel_decision(self, case, stretch):
        s, chol, index = case
        # The moved pivot walks across the edge one ulp at a time, so its square
        # lands on both sides of PIVOT_RTOL * ||s||_inf and, in some cases, on it.
        norm = float(abs(s).sum(axis=-1).max())
        edge = np.sqrt(PIVOT_RTOL * norm)
        pivots = {edge}
        for direction in (0.0, np.inf):
            pivot = edge
            for _ in range(4):
                pivot = np.nextafter(pivot, direction)
                pivots.add(pivot)
        # Every bound the test may be given: the computed norm itself, one ulp
        # above it, stretched, infinite, or NaN (which leaves the norm to decide).
        bounds = (norm, math.nextafter(norm, math.inf), norm * stretch, math.inf, math.nan)
        drawn = chol.copy()
        outcomes = set()
        for pivot in pivots:
            chol[index, index] = pivot
            # The drawn factor and the moved one as a stack, whose norms are both ||s||_inf.
            chols, ss = np.stack([drawn, chol]), np.stack([s, s])
            # the largest finite pivot overflows its square, also where the scalar
            # test defers to the kernel's
            with np.errstate(all="ignore"):
                kernel = bool(_pivot_check(chol, s)[0])
                decisions = [_passes_pivot_test(chol, s, bound) for bound in bounds]
                stacked = bool(_pivot_check(chols, ss)[0].all())
                stack_decisions = [_passes_pivot_test(chols, ss, bound) for bound in bounds]
            for decision in decisions:
                assert decision is kernel
                outcomes.add(decision)
            for decision in stack_decisions:
                assert decision is stacked
        others = np.delete(np.diagonal(chol), index)
        if np.isfinite(s).all() and (others > 2.0 * edge).all():
            assert outcomes == {True, False}

    @settings(max_examples=300)
    @given(
        st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(-500, 450),
        st.one_of(st.integers(-500, 500), st.integers(40, 56)),
        st.lists(st.sampled_from([math.inf, -math.inf]), max_size=1),
        st.integers(1, 4), st.lists(st.integers(0, 3), max_size=2),
    )
    def test_pivot_bound_is_never_below_the_computed_norm(self, n, seed, a_scale, gap, specials,
                                                          rows, nan_rows):
        # Entries with full mantissas, so the diagonal's subtraction and the row
        # sums round, up as often as down.  Gains of one magnitude put max|k_i|
        # in every row, and gains ~2^40-2^56 times the entries of A make every
        # addition to a diagonal term round at the gain's ulp.
        rng = substream(seed)
        x = rng.uniform(-1.0, 1.0, (n, n)) * 2.0**a_scale
        a = x + x.T - np.diag(abs(x).sum(axis=1) * 2.0 + 2.0**a_scale)
        spec = GameSpec(a=a, rho=0.0, k_upper=2.0**600)
        ks = rng.choice([-1.0, 1.0], (rows, n)) * rng.uniform(0.5, 1.0, (rows, 1)) * 2.0 ** (a_scale + gap)
        ks[0, : len(specials)] = specials
        nan_rows = [r for r in nan_rows if r < rows]
        ks[nan_rows, rng.integers(n)] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            norms = abs(_closed_loop(spec, ks)).sum(axis=-1).max(axis=-1)
        # The lone profile's bound, from Python's max; then the stack's, from
        # numpy's, which keeps a NaN, as the stability certificate takes it.
        if not nan_rows:
            assert _pivot_bound(spec, max(map(abs, ks[0].tolist()))) >= norms[0]
        stack = _pivot_bound(spec, float(abs(ks).max()))
        assert math.isnan(stack) if nan_rows else stack >= norms.max()

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @given(st.integers(0, 10**6), st.integers(1, 20))
    def test_cached_negation_gives_the_closed_loop_bits(self, layout, seed, n):
        spec, ks = stacked_game(seed, n, 2)
        if layout == "F":
            a = np.asfortranarray(spec.a)
        elif layout == "strided":
            a = np.zeros((2 * n, 3 * n))[::2, ::3]
            a[...] = spec.a
        else:
            a = spec.a.copy()
        # A fresh spec holding ``a`` as it is, so its cached -A is formed from that layout.
        spec = GameSpec(a=spec.a, rho=spec.rho, k_upper=spec.k_upper, k_lower=spec.k_lower)
        object.__setattr__(spec, "a", a)
        spec.__dict__.pop("_neg_a", None)  # formed again, from ``a`` as it is
        # The kernel's K - A, each profile alone and then the stack, against the
        # retired formula: -A negated from ``a`` into a C-ordered array, then K added.
        for k in (*ks, ks):
            expected = np.empty(k.shape + k.shape[-1:])
            np.negative(a, out=expected)
            _diagonals(expected)[...] += k
            s = _closed_loop(spec, k)
            assert s.flags.c_contiguous
            assert s.tobytes() == expected.tobytes()
        assert not spec._neg_a.flags.writeable

    @settings(max_examples=300)
    @given(lone_case())
    def test_lone_float_path_equals_the_stacked_kernel_and_the_report(self, case):
        """The kernel's lone path forms costs and gradients on Python floats,
        and a stack on arrays: both, and evaluate's report, have the same bits,
        which are the retired array formulas', or raise the same message.  The
        weight the sampled costs share, ``_weight``, has the retired bits too."""
        spec, k = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                m, costs, grads = _lone_fields(spec, k)
            except NotPositiveDefinite as err:
                for call in (lambda: evaluate(spec, k), lambda: _evaluate_stack(spec, k[None])):
                    with pytest.raises(NotPositiveDefinite) as raised:
                        call()
                    assert str(raised.value) == str(err)
                return
            report = evaluate(spec, k)
            stacked = _evaluate_stack(spec, k[None])[1]
        assert all(type(x) is float for x in costs + grads)
        lone = [m.diagonal(), np.array(costs), np.array(grads)]
        for fields in (report, stacked):
            assert [x.tobytes() for x in lone] == [
                fields.resolvent_diag.tobytes(), fields.cost.tobytes(), fields.grad.tobytes()
            ]
        with np.errstate(all="ignore"):
            retired = retired_fields(spec, k, m.diagonal())
        assert [x.tobytes() for x in lone[1:]] == [x.tobytes() for x in retired]
        weighted = _weighted_gains(spec, k)
        assert _weight(spec.rho, weighted).tobytes() == (1.0 + spec.rho * weighted**2).tobytes()

    @given(st.integers(0, 10**6), st.integers(1, 20), st.integers(1, 9))
    def test_resolvent_diag_equals_the_retired_symmetrization(self, seed, n, count):
        spec, ks = stacked_game(seed, n, count)
        for k in ks:
            assert evaluate(spec, k).resolvent_diag.tobytes() == retired_resolvent_diag(spec, k).tobytes()

    @pytest.mark.parametrize(
        "value",
        [
            np.array([1.5, 2.0]),
            np.array([[1.5, 2.0]]),
            np.array([1.5, 2.0])[::-1],
            np.array(1.5),
            np.array([1, 2]),
            np.array([1.5, 2.0], dtype=np.float32),
            np.array([1.5, 2.0], dtype=">f8"),
            np.array([1.5, 2.0]).view(np.matrix),
            [1.5, 2.0],
            2.5,
        ],
    )
    def test_profile_array_is_the_float_coercion(self, value):
        coerced = np.atleast_1d(np.asarray(value, dtype=float))
        result = profile_array(value)
        assert type(result) is np.ndarray and result.dtype == np.float64
        assert result.shape == coerced.shape and result.tobytes() == coerced.tobytes()
        assert (result is value) == (coerced is value)

    def test_unstable_profile_named_in_stack(self):
        spec = GameSpec(a=[[1.0, 0.0], [0.0, -1.0]], rho=0.0, k_upper=5.0)
        ks = np.array([[2.0, 0.0], [3.0, 1.0], [1.5, 0.2], [0.5, 0.0], [0.0, 0.0]])
        with pytest.raises(NotPositiveDefinite, match="at profile 3 .*eigenvalue -0.5"):
            _evaluate_stack(spec, ks)

    def test_tiny_pivot_named_in_stack(self):
        spec = GameSpec(a=[[1.0, 0.0], [0.0, -1.0]], rho=0.0, k_upper=5.0)
        ks = np.array([[2.0, 0.0], [3.0, 1.0], [1.5, 0.2], [1.0 + 1e-13, 0.5], [2.0, 2.0]])
        with pytest.raises(NotPositiveDefinite, match="singular at profile 3 .*eigenvalue"):
            _jacobian_stack(spec, ks)

    def test_single_profile_message_has_no_index(self):
        spec = GameSpec(a=[[1.0, 0.0], [0.0, -1.0]], rho=0.0, k_upper=5.0)
        with pytest.raises(NotPositiveDefinite) as err:
            evaluate(spec, [0.5, 0.0])
        assert "profile 0" not in str(err.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_named_without_an_eigenvalue(self, value):
        spec = GameSpec(a=[[1.0, 0.0], [0.0, -1.0]], rho=0.0, k_upper=5.0)
        entry = re.escape(f"({value:g} at (1, 1))")
        lone = np.array([2.0, value])
        stack = np.array([[2.0, 0.5], [3.0, 1.0], [2.0, value], [0.5, 0.0]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for call in (lambda: evaluate(spec, lone), lambda: _evaluate_stack(spec, lone[None])):
                with pytest.raises(NotPositiveDefinite, match=r"^K - A has a non-finite entry " + entry):
                    call()
            with pytest.raises(NotPositiveDefinite, match="non-finite entry at profile 2 " + entry):
                _evaluate_stack(spec, stack)
            with pytest.raises(NotPositiveDefinite, match="non-finite entry at profile 2 " + entry):
                _jacobian_stack(spec, stack)


def public_cholesky(s, bound=math.nan, inverse=False):
    """The factor step's success path through numpy's public ``cholesky`` and
    ``inv`` wrappers: the reference whose bits the kernel's gufunc calls give."""
    chol = np.linalg.cholesky(s)
    return np.linalg.inv(chol) if inverse else chol


def spd_stack(seed, n, count, scale):
    """``count`` random SPD matrices of order ``n``, scaled by ``2^scale``."""
    x = substream(seed).standard_normal((count, n, n))
    return (x @ x.swapaxes(-1, -2) + n * np.eye(n)) * 2.0**scale


def kernel_outputs(spec, ks):
    """Every kernel result on the stack ``ks`` and on each of its rows alone, as bytes."""
    m, report = _evaluate_stack(spec, ks)
    outputs = [m, report.resolvent_diag, report.cost, report.grad, report.curvature,
               _jacobian_stack(spec, ks)]
    for k in ks:
        single = evaluate(spec, k)
        outputs += [resolvent(spec, k), single.resolvent_diag, single.cost, single.grad,
                    single.curvature, pseudogradient_jacobian(spec, k)]
    return [output.tobytes() for output in outputs]


# A diagonal game whose failing profiles have exact eigenvalues and pivots.
SPLIT_GAME = {"a": [[1.0, 0.0], [0.0, -1.0]], "rho": 0.0, "k_upper": 5.0}
UNSTABLE = ("K - A is not positive definite{} (smallest eigenvalue {}); "
            "the closed loop is not stable at this profile")
NON_FINITE = "K - A has a non-finite entry{} ({} at ({}, {})); a gain is NaN, infinite or too large"
SINGULAR = "K - A is numerically singular{} (pivot 9.99201e-14 vs scale 1.5, smallest eigenvalue 9.99201e-14)"


class TestFactorStep:
    """The kernel's factor step calls numpy's LAPACK gufuncs directly, once per
    factor and inverse, and reads a breakdown from the NaN they write."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 50), st.integers(-200, 200))
    def test_gufuncs_give_the_public_route_bits(self, seed, n, count, scale):
        s = spd_stack(seed, n, count, scale)
        for matrices in (s, *s):  # the stack, then each matrix alone
            for inverse in (False, True):
                factor = _cholesky(matrices, inverse=inverse)
                assert factor.tobytes() == public_cholesky(matrices, inverse=inverse).tobytes()
        spec, ks = stacked_game(seed, n, count - 1)
        outputs = kernel_outputs(spec, ks)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("nashlq.game._cholesky", public_cholesky)
            assert outputs == kernel_outputs(spec, ks)

    @pytest.mark.parametrize(
        "ks, message",
        [
            ([[2.0, 0.5], [3.0, 1.0], [0.5, 0.0], [2.0, 2.0]], UNSTABLE.format(" at profile 2", -0.5)),
            ([0.5, 0.0], UNSTABLE.format("", -0.5)),
            # a breakdown ahead of a numerically singular profile is the one named
            ([[2.0, 0.5], [0.0, 0.0], [1.0 + 1e-13, 0.5]], UNSTABLE.format(" at profile 1", -1)),
            ([2.0, math.nan], NON_FINITE.format("", "nan", 1, 1)),
            ([math.inf, 1.0], NON_FINITE.format("", "inf", 0, 0)),
            ([[2.0, 0.5], [2.0, math.inf], [0.5, 0.0]], NON_FINITE.format(" at profile 1", "inf", 1, 1)),
            ([[2.0, 0.5], [0.5, 0.0], [math.nan, 1.0]], UNSTABLE.format(" at profile 1", -0.5)),
            ([1.0 + 1e-13, 0.5], SINGULAR.format("")),
            ([[2.0, 0.5], [3.0, 1.0], [1.0 + 1e-13, 0.5], [0.0, 0.0]], SINGULAR.format(" at profile 2")),
        ],
        ids=["unstable-in-stack", "unstable-lone", "breakdown-before-singular", "nan-gain", "inf-gain",
             "inf-gain-in-stack", "unstable-before-nan", "singular-lone", "singular-in-stack"],
    )
    def test_failure_raises_the_retired_message_without_a_warning(self, ks, message):
        """Each failure raises the message the retired route (numpy's public
        wrappers, then a one-matrix-at-a-time refactor) gave, and no warning."""
        spec = GameSpec(**SPLIT_GAME)
        ks = np.array(ks)
        calls = [lambda: _evaluate_stack(spec, ks), lambda: _jacobian_stack(spec, ks),
                 lambda: _cholesky(_closed_loop(spec, ks)), lambda: _stable_modes(spec, ks)]
        if ks.ndim == 1:
            sim, x0 = SimConfig(batch_size=3, horizon=1.0, dt=0.5), np.ones(spec.n)
            calls += [lambda: evaluate(spec, ks), lambda: pseudogradient_jacobian(spec, ks),
                      lambda: cost(spec, ks), lambda: exact_gradient(spec, ks),
                      lambda: second_derivative(spec, ks), lambda: resolvent(spec, ks),
                      lambda: rosen_check(spec, ks), lambda: trajectory_cost(spec, ks, x0, sim),
                      lambda: simulate_batch(spec, ks, sim), lambda: monte_carlo_cost(spec, ks, sim),
                      lambda: simulate_state(spec, ks, x0, 1.0)]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(NotPositiveDefinite) as err:
                    call()
                assert str(err.value) == message


class TestCost:
    def test_scalar_unit_tradeoff(self):
        report = evaluate(scalar_spec(1.0), [1.0])
        assert report.resolvent_diag[0] == pytest.approx(0.5, rel=1e-14)
        assert report.cost[0] == pytest.approx(0.5, rel=1e-14)

    def test_scalar_zero_tradeoff(self):
        # J = 1/(2(k - a)) when rho = 0
        assert cost(scalar_spec(0.0), [1.0])[0] == pytest.approx(0.25, rel=1e-14)

    def test_five_player_golden_values(self):
        spec = five_player_game()
        report = evaluate(spec, TABLE_POINT)
        assert rel_gap(report.resolvent_diag, F_GOLDEN) < 1e-13
        assert rel_gap(report.cost, J_GOLDEN) < 1e-13

    def test_golden_values_match_dense_solve(self):
        spec = five_player_game()
        m = np.linalg.solve(np.diag(TABLE_POINT) - spec.a, np.eye(5))
        f = np.diag(m)
        assert np.array_equal(0.5 * (1 + spec.rho * TABLE_POINT**2) * f, J_GOLDEN)

    def test_report_cost_identity_bitwise(self):
        spec, k = random_game(3)
        report = evaluate(spec, k)
        weight = 1.0 + spec.rho * k**2
        assert np.array_equal(report.cost, 0.5 * weight * report.resolvent_diag)


class TestGradient:
    def test_scalar_unit_tradeoff(self):
        assert exact_gradient(scalar_spec(1.0), [1.0])[0] == pytest.approx(0.25, rel=1e-14)

    def test_scalar_zero_tradeoff(self):
        assert exact_gradient(scalar_spec(0.0), [1.0])[0] == pytest.approx(-0.125, rel=1e-14)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_central_differences(self, seed):
        spec, k = random_game(seed)
        assert rel_gap(fd_gradient(spec, k), exact_gradient(spec, k)) < 1e-6

    def test_resolvent_diag_self_derivative(self):
        # d f_i / d k_i = -f_i^2, the i = j case of the cross-derivative rule
        spec, k = random_game(7)
        f = np.diag(resolvent(spec, k))
        h = 1e-5
        for i in range(spec.n):
            bump = np.zeros(spec.n)
            bump[i] = h
            fd = (
                resolvent(spec, k + bump)[i, i] - resolvent(spec, k - bump)[i, i]
            ) / (2 * h)
            assert abs(fd + f[i] ** 2) / f[i] ** 2 < 1e-6


class TestMarginalCost:
    def test_unit_tradeoff(self):
        assert marginal_cost_from_cost(0.5, 1.0, 1.0) == 0.25

    def test_zero_tradeoff(self):
        assert marginal_cost_from_cost(0.25, 1.0, 0.0) == -0.125

    @given(st.integers(0, 10**6))
    def test_identity_within_ulps(self, seed):
        spec, k = random_game(seed)
        g = exact_gradient(spec, k)
        m = marginal_cost_from_cost(cost(spec, k), k, spec.rho)
        assert np.all(np.abs(m - g) <= 4 * np.spacing(np.abs(g)))


class TestSecondDerivative:
    def test_scalar_zero_tradeoff_at_origin(self):
        # rho = 0 reduces to f^3; f = 1 at k = 0
        assert second_derivative(scalar_spec(0.0), [0.0])[0] == pytest.approx(1.0, rel=1e-14)

    def test_scalar_unit_tradeoff(self):
        assert second_derivative(scalar_spec(1.0), [1.0])[0] == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_second_differences(self, seed):
        spec, k = random_game(seed + 100)
        assert rel_gap(fd_hessian_diag(spec, k), second_derivative(spec, k)) < 1e-4

    @given(st.integers(0, 10**6), st.integers(1, 20), st.integers(1, 9))
    def test_on_demand_curvature_equals_eager_formula(self, seed, n, count):
        spec, ks = stacked_game(seed, n, count)
        _, report = _evaluate_stack(spec, ks)
        expected = eager_curvature(spec, ks, report.resolvent_diag)
        assert report.curvature.tobytes() == expected.tobytes()
        assert _diagonals(_jacobian_stack(spec, ks)).tobytes() == expected.tobytes()
        for k in ks:
            profile = k.copy()
            single = evaluate(spec, profile)
            profile[:] = spec.k_upper  # the report keeps its own copy of the gains
            expected = eager_curvature(spec, k, single.resolvent_diag)
            assert single.curvature.tobytes() == expected.tobytes()
            assert second_derivative(spec, k).tobytes() == expected.tobytes()
            assert np.diag(pseudogradient_jacobian(spec, k)).tobytes() == expected.tobytes()

    @given(st.integers(0, 10**6))
    def test_strictly_positive(self, seed):
        spec, k = random_game(seed)
        report = evaluate(spec, k)
        assert np.all(report.resolvent_diag > 0)
        assert np.all(report.cost > 0)
        assert np.all(report.curvature > 0)


class TestJacobian:
    def test_diagonal_system_decouples(self):
        spec = GameSpec(a=np.diag([-1.0, -2.0, -3.0]), rho=[0.3, 0.0, 1.0], k_upper=5.0)
        g = pseudogradient_jacobian(spec, [0.5, 1.0, 2.0])
        off = g - np.diag(np.diag(g))
        assert np.array_equal(off, np.zeros((3, 3)))

    def test_diagonal_equals_second_derivative(self):
        spec, k = random_game(5)
        g = pseudogradient_jacobian(spec, k)
        assert np.array_equal(np.diag(g), second_derivative(spec, k))

    @pytest.mark.parametrize("seed", range(20))
    def test_columns_match_differenced_gradients(self, seed):
        spec, k = random_game(seed + 300)
        g = pseudogradient_jacobian(spec, k)
        fd = fd_jacobian(spec, k)
        for j in range(spec.n):
            assert rel_gap(fd[:, j], g[:, j]) < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_two_player_closed_form(self, seed):
        # For two players with zero tradeoffs, G + G^T has the closed form
        # (1/nu^3) [[2 d2^3, a12^2 (d1 + d2)], [a12^2 (d1 + d2), 2 d1^3]]
        # with d_i = k_i - a_ii and nu = d1 d2 - a12^2.
        spec, k = random_game(seed + 600, n=2, rho_zero=True)
        a11, a12, a22 = spec.a[0, 0], spec.a[0, 1], spec.a[1, 1]
        d1, d2 = k[0] - a11, k[1] - a22
        nu = d1 * d2 - a12**2
        expected = np.array(
            [
                [2 * d2**3, a12**2 * (d1 + d2)],
                [a12**2 * (d1 + d2), 2 * d1**3],
            ]
        ) / nu**3
        g = pseudogradient_jacobian(spec, k)
        assert np.allclose(g + g.T, expected, rtol=1e-12, atol=0)


class TestDecoupledEquilibrium:
    def test_stationary_gain_formula(self):
        # With diagonal A each player solves alone: the interior stationary
        # point of 2 rho k (k - a) = 1 + rho k^2 is k = a + sqrt(a^2 + 1/rho).
        diag = np.array([-1.0, -2.0, -0.5])
        rho = np.array([1.0, 0.5, 2.0])
        spec = GameSpec(a=np.diag(diag), rho=rho, k_upper=10.0)
        k_star = diag + np.sqrt(diag**2 + 1.0 / rho)
        assert spec.contains(k_star)
        assert np.max(np.abs(exact_gradient(spec, k_star))) < 1e-15

    def test_zero_tradeoff_has_no_interior_stationary_point(self):
        spec = GameSpec(a=np.diag([-1.0, -2.0]), rho=0.0, k_upper=10.0)
        assert np.all(exact_gradient(spec, spec.k_upper) < 0)


class TestStabilityMargin:
    def test_identity(self):
        spec = GameSpec(a=-np.eye(2), rho=0.0, k_upper=5.0)
        assert stability_margin(spec, [0.0, 0.0]) == 1.0

    def test_sign_flip(self):
        spec = GameSpec(a=[[1.0, 0.0], [0.0, -1.0]], rho=0.0, k_upper=5.0)
        assert stability_margin(spec, [0.0, 0.0]) == -1.0

    def test_five_player_matrix_is_negative_definite(self):
        spec = five_player_game()
        assert stability_margin(spec, np.zeros(5)) > 0
        assert np.linalg.eigvalsh(spec.a).max() < 0


class TestGameSpec:
    def test_roundoff_asymmetry_is_averaged(self):
        a = np.array([[-2.0, 0.3], [0.3 + 1e-12, -2.0]])
        spec = GameSpec(a=a, rho=0.0, k_upper=5.0)
        assert np.array_equal(spec.a, spec.a.T)

    def test_large_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GameSpec(a=[[-2.0, 0.5], [-0.5, -2.0]], rho=0.0, k_upper=5.0)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            GameSpec(a=[[-1.0]], rho=-0.5, k_upper=5.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"a": [[float("nan")]]}, "state matrix"),
            ({"a": [[-2.0, float("inf")], [float("inf"), -2.0]]}, "state matrix"),
            ({"rho": float("nan")}, "rho"),
            ({"rho": float("inf")}, "rho"),
            ({"k_upper": float("inf")}, "k_upper"),
            ({"k_upper": float("nan")}, "k_upper"),
            ({"k_lower": float("-inf")}, "k_lower"),
            ({"k_lower": float("nan")}, "k_lower"),
            ({"a": [[True]]}, "state matrix"),
            ({"a": [["-1"]]}, "state matrix"),
            ({"a": [[-2.0, True], [True, -2.0]], "rho": 0.5}, "state matrix"),
            ({"rho": True}, "rho"),
            ({"rho": "0.5"}, "rho"),
            ({"a": -np.eye(2), "rho": [True, 0.5]}, "rho"),
            ({"rho": np.array([True])}, "rho"),
            ({"k_upper": [True]}, "k_upper"),
            ({"k_lower": "0"}, "k_lower"),
        ],
    )
    def test_non_finite_input_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            GameSpec(**{"a": [[-1.0]], "rho": 0.5, "k_upper": 5.0, **kwargs})

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError, match="box"):
            GameSpec(a=[[-1.0]], rho=0.0, k_upper=1.0, k_lower=2.0)

    def test_failed_stability_lift_raises(self):
        # the lifted corner K - A is singular in floating point
        with pytest.raises(NotPositiveDefinite, match="^stability lift failed; state matrix is numerically"):
            GameSpec(a=[[1e20, 1e20], [1e20, 1e20]], rho=0.0, k_upper=1e22)

    def test_profile_must_be_a_vector(self):
        with pytest.raises(ValueError, match=re.escape("action profile must be a vector, got shape (1, 2)")):
            ActionProfile([[1.0, 2.0]])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": 1.0, "k_upper": 1e200},
            {"rho": 1.0, "k_upper": 1.4e154},
            {"rho": 1e-300, "k_upper": 1e160},  # k^2 overflows before rho scales it, as in the kernel
            {"a": [[-1e201]], "rho": 1.0, "k_lower": -1e200, "k_upper": 1.0},
            {"a": -np.eye(2), "rho": [0.0, 1.0], "k_upper": [1.0, 1e155]},
        ],
    )
    def test_overflowing_box_rejected(self, kwargs):
        with pytest.raises(ValueError, match="overflows at a corner"):
            GameSpec(**{"a": [[-1.0]], **kwargs})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": 0.0, "k_upper": 2.0**600},
            {"a": -np.eye(2), "rho": [0.0, 1.0], "k_upper": [1e200, 1.0]},
        ],
    )
    def test_overflow_check_skips_players_without_tradeoff(self, kwargs):
        GameSpec(**{"a": [[-1.0]], **kwargs})

    def test_widest_finite_box_has_finite_costs(self):
        spec = GameSpec(a=[[-1.0]], rho=1.0, k_upper=1.3e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate(spec, spec.k_upper)
        assert np.all(np.isfinite(report.cost)) and np.all(np.isfinite(report.grad))

    def test_zero_tradeoff_weight_is_one_across_the_box(self):
        """A ``rho_i = 0`` gain inside the box whose square overflows is weighted
        by exactly 1, without a warning, in every cost path; gains whose squares
        are finite keep the bits of a box that reaches no such gain."""
        sim = SimConfig(batch_size=20, horizon=5.0, dt=0.1)
        a = [[-1.0, 0.3], [0.3, -2.0]]
        cases = [
            (GameSpec(a=[[-1.0]], rho=0.0, k_upper=2.0**600), k, None) for k in ([2.0**600], [2.0**599])
        ] + [
            (GameSpec(a=a, rho=[0.0, 0.5], k_upper=[2.0**600, 4.0]), k,
             GameSpec(a=a, rho=[0.0, 0.5], k_upper=[1e150, 4.0]))
            for k in ([0.7, 1.5], [3.0, 4.0])
        ]
        for wide, k, narrow in cases:
            assert wide._square_overflows
            with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
                warnings.simplefilter("error")
                report = evaluate(wide, k)
                jacobian = pseudogradient_jacobian(wide, k)
                sampled = monte_carlo_cost(wide, k, sim)
                closed = cost(wide, k)
                single = trajectory_cost(wide, k, np.ones(wide.n), sim)
                run = run_gradient_play(wide, k, LearnConfig(stages=2, mode="model-free", sim=sim))
            assert report.cost[0] == 0.5 * report.resolvent_diag[0]
            assert closed.tobytes() == report.cost.tobytes()
            assert all(np.all(np.isfinite(x)) for x in (report.grad, jacobian, sampled, single, run.grads))
            if narrow is not None:
                assert not narrow._square_overflows
                assert report.cost.tobytes() == evaluate(narrow, k).cost.tobytes()
                assert report.grad.tobytes() == evaluate(narrow, k).grad.tobytes()
                assert jacobian.tobytes() == pseudogradient_jacobian(narrow, k).tobytes()
                assert sampled.tobytes() == monte_carlo_cost(narrow, k, sim).tobytes()
                assert single.tobytes() == trajectory_cost(narrow, k, np.ones(wide.n), sim).tobytes()
                expected = run_gradient_play(narrow, k, LearnConfig(stages=2, mode="model-free", sim=sim))
                assert run.grads.tobytes() == expected.grads.tobytes()

    def test_unstable_matrix_lifts_lower_bounds(self):
        spec = GameSpec(a=[[1.0, 0.0], [0.0, -1.0]], rho=0.0, k_upper=5.0)
        assert np.allclose(spec.k_lower, [1.0 + 1e-6, 0.0], rtol=0, atol=1e-12)
        assert stability_margin(spec, spec.k_lower) > 0

    def test_lift_accounts_for_coupling(self):
        spec = GameSpec(a=[[0.5, 0.2], [0.2, -3.0]], rho=0.0, k_upper=5.0)
        assert np.allclose(spec.k_lower, [0.7 + 1e-6, 0.0], rtol=0, atol=1e-12)
        assert stability_margin(spec, spec.k_lower) > 0

    def test_lift_failure_when_box_empties(self):
        with pytest.raises(ValueError, match="box"):
            GameSpec(a=[[1.0, 0.0], [0.0, -1.0]], rho=0.0, k_upper=0.5)

    def test_scalar_broadcasting(self):
        spec = GameSpec(a=[[-1.0]], rho=1.0, k_upper=3.0)
        assert spec.rho.shape == (1,) and spec.k_upper.shape == (1,)

    def test_wrong_profile_shape_rejected(self):
        spec = five_player_game()
        with pytest.raises(ValueError, match="shape"):
            cost(spec, [1.0, 2.0])

    def test_accepts_action_profile_objects(self):
        spec = scalar_spec(1.0)
        assert cost(spec, ActionProfile([1.0]))[0] == pytest.approx(0.5, rel=1e-14)
