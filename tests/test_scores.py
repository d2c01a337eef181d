import dataclasses
import itertools
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import float_bound
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import decompose_by_bases, gram_schmidt_fsum, iv_moments, orthonormal_basis

import asymlab.instances as instances
from asymlab.config import build_experiment, build_instance, build_instance_and_score, load_raw
from asymlab.dist import expectation, make_distribution, same_distribution
from asymlab.errors import (
    DistributionMismatch,
    MomentNotSatisfied,
    NullModelViolated,
    SingularInstrumentGram,
    SingularSigma,
)
from asymlab.instances import (
    GmmInstance,
    IvInstance,
    decompose_score,
    linear_iv_moment_model,
    overidentified_mean_model,
    tangent_bases,
)
from asymlab.models import IVModel, MomentModel
from asymlab.predict import build_prediction
from asymlab.scores import (
    IvDesign,
    MomentDesign,
    ScoreFunction,
    _split_span,
    centered_score,
    check_iv_null_model,
    inner_product,
    iv_design,
    moment_design,
    project,
)


def x_score(dist):
    return centered_score(dist, dist.column(0))


def quad_score(dist):
    x = dist.column(0)
    return centered_score(dist, x**2)


class TestInnerProduct:
    def test_x_with_itself(self, g1):
        # oracle: the expectation operation applied to x^2
        g = x_score(g1.dist)
        oracle = expectation(g1.dist, g1.dist.column(0) ** 2)
        assert inner_product(g1.dist, g, g) == pytest.approx(oracle, abs=1e-14)
        assert oracle == pytest.approx(1.2, abs=1e-14)

    def test_with_zero_function(self, g1):
        zero = ScoreFunction(g1.dist, np.zeros(5))
        assert inner_product(g1.dist, x_score(g1.dist), zero) == 0.0

    def test_odd_even_orthogonality(self, g1):
        # oracle: E[x^3] = 0 by symmetry
        assert inner_product(g1.dist, x_score(g1.dist), quad_score(g1.dist)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_distribution_mismatch(self, g1):
        other = make_distribution([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(DistributionMismatch):
            inner_product(g1.dist, x_score(g1.dist), centered_score(other, [1.0, -1.0]))

    def test_score_must_be_mean_zero(self, g1):
        with pytest.raises(ValueError):
            ScoreFunction(g1.dist, np.ones(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_score_must_be_finite(self, g1, bad):
        # a NaN mean once passed the mean-zero check, and NaN scores reached
        # every prediction
        with pytest.raises(ValueError, match="finite"):
            ScoreFunction(g1.dist, [bad, 0.0, 0.0, 0.0, 0.0])


class TestOrthonormalBasis:
    """The fsum Gram-Schmidt oracle behind ``oracles.orthonormal_basis``."""

    def test_collinear_pair_collapses(self, g1):
        # oracle: the 2x2 Gram matrix of {x, 2x} has rank one
        g = x_score(g1.dist)
        basis = orthonormal_basis(g1.dist, [g, 2.0 * g])
        assert basis.dim == 1
        expected = g1.dist.column(0) / math.sqrt(1.2)
        agree = min(
            np.max(np.abs(ScoreFunction(basis.dist, basis.values[0]).values - expected)),
            np.max(np.abs(ScoreFunction(basis.dist, basis.values[0]).values + expected)),
        )
        assert agree < 1e-12

    def test_independent_pair_kept(self, g1):
        # oracle: Gram determinant of {x, x^2 - 1.2} is positive
        f, g = x_score(g1.dist), quad_score(g1.dist)
        gram = np.array(
            [
                [inner_product(g1.dist, f, f), inner_product(g1.dist, f, g)],
                [inner_product(g1.dist, g, f), inner_product(g1.dist, g, g)],
            ]
        )
        assert np.linalg.det(gram) > 0
        assert orthonormal_basis(g1.dist, [f, g]).dim == 2

    def test_zero_vector_empty_span(self, g1):
        zero = ScoreFunction(g1.dist, np.zeros(5))
        assert orthonormal_basis(g1.dist, [zero]).dim == 0

    def test_output_orthonormal_for_random_spans(self, g1, rng):
        for _ in range(10):
            spanning = [centered_score(g1.dist, rng.standard_normal(5)) for _ in range(3)]
            basis = orthonormal_basis(g1.dist, spanning)
            mat = basis.values
            gram = (mat * g1.dist.probs) @ mat.T
            assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-12

    def test_sign_convention_deterministic(self, g1, rng):
        spanning = [centered_score(g1.dist, rng.standard_normal(5)) for _ in range(2)]
        a = orthonormal_basis(g1.dist, spanning).values
        b = orthonormal_basis(g1.dist, spanning).values
        assert np.array_equal(a, b)
        for row in a:
            lead = row[np.abs(row) > 1e-8 * np.max(np.abs(row))][0]
            assert lead > 0


def nested_span_case(n_atoms, k_a, k_b, seed):
    """A random weighted support on ``n_atoms`` points, ``a``: ``k_a``
    centered Gaussian columns of mixed scale, and ``b``: ``k_b``
    combinations of the unscaled columns, so span(b) lies in span(a) and
    both have full column rank; all drawn from rng ``seed``."""
    rng = np.random.default_rng(seed)
    dist = make_distribution(np.arange(n_atoms, dtype=float), rng.uniform(0.05, 1.0, n_atoms))
    cols = rng.standard_normal((n_atoms, k_a))
    cols -= expectation(dist, cols)
    scale = 10.0 ** rng.integers(-3, 4, k_a)
    return dist, cols * scale, cols @ rng.standard_normal((k_a, k_b))


@st.composite
def nested_spans(draw):
    """``nested_span_case`` of random sizes and seed."""
    n_atoms = draw(st.integers(3, 24))
    k_a = draw(st.integers(1, n_atoms - 1))
    k_b = draw(st.integers(0, k_a))
    return nested_span_case(n_atoms, k_a, k_b, draw(st.integers(0, 2**32 - 1)))


def oracle_projector(dist, cols):
    """The whitened projector on the span of ``cols`` (S, k), from the fsum
    Gram-Schmidt oracle."""
    if not cols.shape[1]:
        return np.zeros((dist.n_atoms, dist.n_atoms))
    rows = gram_schmidt_fsum(dist.probs, list(cols.T), 1e-9) * np.sqrt(dist.probs)
    return rows.T @ rows


def whitened_cond(dist, cols):
    """The condition number of ``cols`` (S, k) whitened by sqrt(p), each
    column scaled to unit norm; 1 for no columns."""
    if not cols.shape[1]:
        return 1.0
    white = np.sqrt(dist.probs)[:, None] * cols
    return float(np.linalg.cond(white / np.linalg.norm(white, axis=0)))


def split_span_errors(dist, a, b, move=0.0):
    """How far ``_split_span`` of ``a`` and ``b`` is from the fsum oracle: its
    frame from orthonormal, and the projectors of its head and its rest from
    P_b and P_a - P_b, the head's moved by ``move`` in every entry."""
    root_p = np.sqrt(dist.probs)[:, None]
    frame = _split_span(dist, a * root_p, b * root_p)
    head, rest = frame[:, : b.shape[1]], frame[:, b.shape[1] :]
    p_b = oracle_projector(dist, b)
    return (
        np.max(np.abs(frame.T @ frame - np.eye(a.shape[1]))),
        np.max(np.abs(head @ head.T + move - p_b)),
        np.max(np.abs(rest @ rest.T - (oracle_projector(dist, a) - p_b))),
    )


# n_atoms 6, k_a 5, k_b 5, rng seed 21786: whitened condition numbers 7.6e4
# for a and 5.5e5 for b; the exact P_a - P_b of these float inputs is itself
# 3.9e-12 from the library's, which reads 4e-12 to 7e-12 from the oracle's
ILL_CONDITIONED_SPANS = nested_span_case(6, 5, 5, 21786)


class TestSplitSpanAgainstFsumOracle:
    # a projector is within eps times its columns' condition number of the
    # oracle's, so its bound scales with those of a and b (``float_bound``);
    # the frame's orthonormality does not depend on them
    @settings(max_examples=100, deadline=None)
    @example(case=ILL_CONDITIONED_SPANS)
    @given(case=nested_spans())
    def test_span_a_minus_span_b(self, case):
        dist, a, b = case
        frame_error, *projector_errors = split_span_errors(dist, a, b)
        assert frame_error <= 1e-12
        assert max(projector_errors) <= float_bound(whitened_cond(dist, a), whitened_cond(dist, b))

    @settings(max_examples=100, deadline=None)
    @example(case=ILL_CONDITIONED_SPANS)
    @given(case=nested_spans())
    def test_whole_space_minus_span_b(self, case):
        dist, _, b = case
        root_p = np.sqrt(dist.probs)[:, None]
        rest = _split_span(dist, None, b * root_p)[:, b.shape[1] :]
        want = np.eye(dist.n_atoms) - root_p @ root_p.T - oracle_projector(dist, b)
        assert np.max(np.abs(rest.T @ rest - np.eye(rest.shape[1])), initial=0.0) <= 1e-12
        assert np.max(np.abs(rest @ rest.T - want)) <= float_bound(whitened_cond(dist, b))

    def test_a_well_conditioned_draw_keeps_the_absolute_bound(self):
        # its bound stays 1e-12, which a projector moved by 1e-11 fails
        dist, a, b = nested_span_case(6, 3, 2, 0)
        conds = whitened_cond(dist, a), whitened_cond(dist, b)
        assert float_bound(*conds) == 1e-12
        assert max(split_span_errors(dist, a, b)[1:]) <= 1e-12
        assert split_span_errors(dist, a, b, move=1e-11)[1] > 1e-12


@st.composite
def uncentered_spans(draw):
    """``nested_spans`` with a constant of random sign and scale (1e-3 to
    1e3) added to every column of ``a`` and of ``b``."""
    dist, a, b = draw(nested_spans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def offsets(k):
        return rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3.0, 3.0, k)

    return dist, a + offsets(a.shape[1]), b + offsets(b.shape[1])


class TestSplitSpanOwnsTheConstant:
    @settings(max_examples=100, deadline=None)
    @given(case=uncentered_spans())
    def test_every_column_is_mean_zero(self, case):
        # the QR leads with sqrt(p), so no caller centers its columns
        dist, a, b = case
        root_p = np.sqrt(dist.probs)[:, None]
        for frame in (
            _split_span(dist, a * root_p, b * root_p),
            _split_span(dist, None, b * root_p),
        ):
            assert np.max(np.abs(root_p.T @ frame)) <= 1e-14


BENCH = Path(__file__).resolve().parent.parent / "bench"


class TestBasesDoNotDependOnThreads:
    def test_iv_wide_bases_agree_across_blas_thread_counts(self, run_python, tmp_path):
        # 256-atom IV designs: the nuisance spaces are complements of 129 and
        # 3 constraints, and T_perp_cap_M is read off 255 M vectors spanning
        # 126 dimensions; no basis vector may depend on how BLAS splits sums
        saved = {}
        for threads in ("1", "2"):
            path = tmp_path / f"threads{threads}.npz"
            code = (
                "import sys\n"
                "import numpy as np\n"
                f"sys.path.insert(0, {str(BENCH)!r})\n"
                "from workloads import iv_wide_design\n"
                "from asymlab.config import build_instance\n"
                "from asymlab.instances import tangent_bases\n"
                "out = {}\n"
                "for seed in (1, 2, 3):\n"
                "    instance = build_instance(iv_wide_design(seed)['instance'])\n"
                "    for basis in tangent_bases(instance):\n"
                "        out[f'{seed}_{basis.label}'] = basis.values\n"
                f"np.savez({str(path)!r}, **out)\n"
            )
            run_python(code, OPENBLAS_NUM_THREADS=threads)
            saved[threads] = np.load(path)
        one, two = saved["1"], saved["2"]
        assert sorted(one.files) == sorted(two.files) and len(one.files) == 9
        for name in one.files:
            assert one[name].shape == two[name].shape
            if one[name].size:
                assert np.max(np.abs(one[name] - two[name])) <= 1e-10, name


def iv_grid_design(seed, z_counts, w_count, zero_level=False):
    """(rows, probabilities, bump, model) of an IV design on a grid of
    q = len(z_counts) instrument values z, shocks w and errors e = -1, +1
    with x1 = z'a + w.  Each (x1, z) cell gives its two errors one mass, so
    the conditional null holds whatever the cell masses, and the bump (one
    factor per atom, equal within a cell) moves them while it keeps holding.
    With q = 2 the maintained model is overidentified and M_perp is a line.
    ``zero_level`` sets the first instrument's level nearest 0 to 0.0.
    """
    rng = np.random.default_rng(seed)
    z_levels = [np.sort(rng.uniform(-2.0, 2.0, count)) for count in z_counts]
    if zero_level:
        z_levels[0][np.argmin(np.abs(z_levels[0]))] = 0.0
    w_levels = np.sort(rng.uniform(-1.0, 1.0, w_count))
    q = len(z_counts)
    a = rng.uniform(0.5, 1.5, q)
    beta = rng.uniform(-1.0, 1.0, 2)
    rows = []
    for z in itertools.product(*z_levels):
        for w in w_levels:
            x1 = float(np.dot(a, z)) + w
            for e in (-1.0, 1.0):
                rows.append([beta[0] * x1 + beta[1] + e, x1, 1.0, *z])
    cells = rng.uniform(0.5, 1.5, len(rows) // 2)
    bump = np.repeat(rng.uniform(-1.0, 1.0, cells.shape[0]), 2)
    model = IVModel(beta0=beta, sigma0_sq=1.0, dims=(1, 1, q))
    return np.array(rows), np.repeat(cells, 2), bump, model


def refused(rows, weights, model) -> bool:
    """Whether ``iv_design`` refuses the grid design: two nearly equal levels
    of an instrument make E[ZZ'] singular to its Cholesky rule
    (``test_nearly_equal_instrument_levels_are_refused``).  The strategies
    below skip such a design."""
    try:
        iv_design(make_distribution(rows, weights), model)
    except SingularInstrumentGram:
        return True
    return False


def moment_instance(seed, n_atoms):
    """(make, probabilities, bump) of an overidentified-mean instance on
    ``n_atoms`` random support points: ``make`` builds the instance from its
    probabilities, with theta0 and the variance restriction recomputed for
    each probability vector, so the model stays exactly true whatever the
    bump (one factor per atom) moves them by."""
    rng = np.random.default_rng(seed)
    support = np.sort(rng.uniform(-3.0, 3.0, n_atoms))
    weights = rng.uniform(0.05, 1.0, n_atoms)
    bump = rng.uniform(-1.0, 1.0, n_atoms)

    def make(w):
        dist = make_distribution(support, w)
        theta0 = expectation(dist, dist.column(0))
        v = expectation(dist, (dist.column(0) - theta0) ** 2)
        model, theta0 = overidentified_mean_model(v), np.array([theta0])
        return GmmInstance(name="random", dist=dist, model=model, theta0=theta0)

    return make, weights, bump


@st.composite
def random_instances(draw):
    """A builder of a random instance from its probabilities, the
    probabilities as drawn, and a direction (one factor per atom) in which
    they can be moved while the model stays exactly true.

    Half are overidentified-mean instances (``moment_instance``) on 3 to 12
    atoms.  Half are IV designs from ``iv_grid_design`` with q = 1 or 2
    instruments and two to four levels of each instrument and of w.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        make, weights, bump = moment_instance(seed, draw(st.integers(3, 12)))
    else:
        z_counts = [draw(st.integers(2, 4)) for _ in range(draw(st.integers(1, 2)))]
        rows, weights, bump, model = iv_grid_design(seed, z_counts, draw(st.integers(2, 4)))
        assume(not refused(rows, weights, model))

        def make(w):
            return IvInstance(name="random", dist=make_distribution(rows, w), model=model)

    return make, weights, bump


@st.composite
def perturbed_instances(draw):
    """A builder of a random instance from its probabilities, and two
    probability vectors: as drawn, and with every probability moved by a
    relative 1e-14 in a way that keeps the model exactly true (see
    ``random_instances``)."""
    make, weights, bump = draw(random_instances())
    return make, weights, weights * (1.0 + 1e-14 * bump)


def largest_projector_move(make, weights, moved):
    """``make(weights)``, and the largest entry by which a whitened projector
    of its tangent bases moves from ``make(weights)`` to ``make(moved)``,
    once every basis has the same dimension in both."""
    pair = [make(w) for w in (weights, moved)]
    bases, bases_moved = (tangent_bases(instance) for instance in pair)
    assert [b.dim for b in bases] == [b.dim for b in bases_moved]
    moves = [0.0]
    for basis, other in zip(bases, bases_moved):
        a = basis.values * np.sqrt(pair[0].dist.probs)
        b = other.values * np.sqrt(pair[1].dist.probs)
        moves.append(np.max(np.abs(a.T @ a - b.T @ b), initial=0.0))
    return pair[0], max(moves)


def spanning_cond(instance):
    """The condition number of the moment columns, whitened by sqrt(p), that
    the tangent bases are split from: m at theta0 on a moment instance, and
    the larger of those of x e and z e on an IV instance."""
    sqp = np.sqrt(instance.dist.probs)[:, None]
    if instance.kind == "gmm":
        columns = [instance.model.moments_at(instance.theta0, instance.dist.support)]
    else:
        _, x, z = instance.model.design_matrices(instance.dist.support)
        e = instance.model.errors_on(instance.dist.support)[:, None]
        columns = [x * e, z * e]
    return max(np.linalg.cond(sqp * c) for c in columns)


def projector_bound(instance):
    """How far a projector of ``largest_projector_move`` may move when every
    probability moves by a relative 1e-14: ``float_bound`` of
    ``spanning_cond``, the instance's first-order sensitivity to its
    probabilities.  Over 3000 generated moment instances and 3000 IV
    designs the move stayed below 0.064 and 0.021 of this bound, and a
    projector entry moved by 1e-10 exceeded it on all of them."""
    return float_bound(spanning_cond(instance))


class TestBasesUnderPerturbation:
    @settings(max_examples=40, deadline=None)
    @given(case=perturbed_instances())
    def test_projectors_move_no_more_than_the_instance(self, case):
        instance, move = largest_projector_move(*case)
        assert move <= projector_bound(instance)

    def test_nearly_coincident_support_points(self):
        # Hypothesis seed 101 drew this instance: support 2.5317, 2.97195579
        # and 2.97195846, so spanning_cond = 4.6e5 (cond(E[mm']) = 2.1e11);
        # the T projector moves by 5.7e-12, 0.012 of its bound
        make, weights, bump = moment_instance(21575, 3)
        instance, move = largest_projector_move(make, weights, weights * (1.0 + 1e-14 * bump))
        assert spanning_cond(instance) > 1e5
        assert 1e-12 < move <= projector_bound(instance)

    def test_ill_conditioned_design_moves_the_projectors_by_rounding(self):
        # instrument levels 1.9433 and 1.9490, cond(E[ZZ']) = 2.9e6: with
        # M_perp read through E[ZZ']^{-1}, the T_perp_cap_M and M_perp
        # projectors moved by 2.3e-12 and 1.9e-12; from span(z e), by 9e-14
        rows, weights, bump, model = iv_grid_design(3106978, [2, 2], 2)
        ezz = iv_moments(make_distribution(rows, weights), model)[2]
        assert np.linalg.cond(ezz) > 1e6

        def make(w):
            return IvInstance("ill", make_distribution(rows, w), model)

        moved = weights * (1.0 + 1e-14 * bump)
        assert largest_projector_move(make, weights, moved)[1] <= 1e-12


class TestTangentBasesCache:
    def test_bases_belong_to_the_callers_distribution(self):
        # Two custom instances are built and dropped in turn; a new instance
        # usually takes the memory (and so the id) of the one just freed.
        parts = []
        for mass in ([0.1, 0.2, 0.4, 0.2, 0.1], [0.15, 0.2, 0.3, 0.2, 0.15]):
            dist = make_distribution([-2.0, -1.0, 0.0, 1.0, 2.0], mass)
            v = expectation(dist, dist.column(0) ** 2)
            parts.append((dist, overidentified_mean_model(v)))
        for k in range(20):
            dist, model = parts[k % 2]
            instance = GmmInstance(name="custom", dist=dist, model=model, theta0=np.array([0.0]))
            for basis in tangent_bases(instance):
                assert same_distribution(basis.dist, dist)
            del instance


class TestOneDesignPerInstance:
    """Every consumer reads the instance's one population design."""

    @pytest.mark.parametrize(
        "name", ["g1_perp", "g1_tangent", "iv1_power", "iv1_bias_equal", 1, 2, 3]
    )
    def test_one_derivation_per_instance(self, name, monkeypatch):
        if isinstance(name, int):  # an iv_wide design
            sys.path.insert(0, str(BENCH))
            try:
                from workloads import make_config
            finally:
                sys.path.remove(str(BENCH))
            raw = make_config(str(CONFIG_DIR.parent), "iv_wide", name)
        else:
            raw = load_raw(CONFIG_DIR / f"{name}.json")
        # the built-ins are cached across tests; build them afresh here
        for key, make in list(instances._BUILTINS.items()):
            monkeypatch.setitem(instances._BUILTINS, key, make.__wrapped__)
        counts = Counter()
        for cls in (MomentDesign, IvDesign):

            def counted(design, *args, real=cls.__init__, **kwargs):
                counts["design"] += 1
                real(design, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        real_check = MomentModel.check_jacobian

        def check_jacobian(model, *args):
            counts["jacobian"] += 1
            real_check(model, *args)

        monkeypatch.setattr(MomentModel, "check_jacobian", check_jacobian)
        experiment = build_experiment(raw)
        instance, g = experiment.instance, experiment.score
        build_prediction(instance, g, experiment.estimators, experiment.tests, experiment.alpha)
        decompose_score(instance, g)
        tangent_bases(instance)
        gmm = instance.kind == "gmm"
        assert (counts["design"], counts["jacobian"]) == (1, 1 if gmm else 0)

    def test_replace_derives_a_fresh_design(self, g1, iv1):
        moved_gmm = make_distribution(g1.dist.support, [0.15, 0.2, 0.3, 0.2, 0.15])
        v = expectation(moved_gmm, moved_gmm.column(0) ** 2)
        moved_iv = make_distribution(iv1.dist.support, [0.1, 0.1, 0.15, 0.15] * 2)
        for instance, dist, model in (
            (g1, moved_gmm, overidentified_mean_model(v)),
            (iv1, moved_iv, iv1.model),
        ):
            design = instance.design
            moved = dataclasses.replace(instance, dist=dist, model=model)
            assert "design" not in vars(moved)
            assert moved.design is not design and same_distribution(moved.design.dist, dist)
            assert instance.design is design
            for basis in tangent_bases(moved):
                assert same_distribution(basis.dist, dist)


class TestProject:
    def test_identity_on_subspace_element(self, g1, rng):
        basis = tangent_bases(g1)[0]
        coefs = rng.standard_normal(basis.dim)
        g = ScoreFunction(g1.dist, coefs @ basis.values)
        assert (project(g1.dist, g, basis) - g).norm() < 1e-10

    def test_orthogonal_direction_killed(self, g1):
        # oracle: <x, x^2 - 1.2> = 0
        basis = orthonormal_basis(g1.dist, [x_score(g1.dist)])
        assert project(g1.dist, quad_score(g1.dist), basis).norm() < 1e-14

    def test_linearity_splits_components(self, g1):
        basis = orthonormal_basis(g1.dist, [x_score(g1.dist)])
        combo = x_score(g1.dist) + quad_score(g1.dist)
        recovered = project(g1.dist, combo, basis)
        assert np.max(np.abs(recovered.values - x_score(g1.dist).values)) < 1e-12

    def test_idempotent_and_self_adjoint(self, g1, rng):
        basis = tangent_bases(g1)[0]
        for _ in range(10):
            f = centered_score(g1.dist, rng.standard_normal(5))
            g = centered_score(g1.dist, rng.standard_normal(5))
            pf = project(g1.dist, f, basis)
            assert (project(g1.dist, pf, basis) - pf).norm() < 1e-10
            lhs = inner_product(g1.dist, pf, g)
            rhs = inner_product(g1.dist, f, project(g1.dist, g, basis))
            assert abs(lhs - rhs) < 1e-10

    def test_mismatch_rejected(self, g1):
        other = make_distribution([0.0, 1.0], [0.5, 0.5])
        basis = orthonormal_basis(other, [centered_score(other, [1.0, 0.0])])
        with pytest.raises(DistributionMismatch):
            project(g1.dist, x_score(g1.dist), basis)


class TestGmmTangentBasis:
    def test_g1_dimensions_and_direction(self, g1):
        # oracle: null-space computation on the 4-dimensional mean-zero space
        # with Sigma = diag(1.2, 2.16)
        t_basis, t_perp, m_perp = g1.design.bases
        assert (t_basis.dim, t_perp.dim, m_perp.dim) == (3, 1, 0)
        x = g1.dist.column(0)
        ref = centered_score(g1.dist, (x**2 - 1.2) / math.sqrt(2.16))
        f = ScoreFunction(t_perp.dist, t_perp.values[0])
        assert abs(abs(inner_product(g1.dist, ref, f)) - 1.0) < 1e-12

    def test_just_identified_spans_everything(self, g1):
        # oracle: dimension count S - 1 - l + p = S - 1

        def m(theta, x):
            return x[None, :, :1] - theta[:, None, :1]

        def jac(theta, x):
            return np.full((len(theta), x.shape[0], 1, 1), -1.0)

        model = MomentModel(m=m, jac=jac, p=1, l=1)
        t_basis, t_perp, _ = moment_design(g1.dist, model, np.array([0.0])).bases
        assert t_basis.dim == g1.dist.n_atoms - 1
        assert t_perp.dim == 0

    def test_moment_not_satisfied(self, g1):
        with pytest.raises(MomentNotSatisfied):
            moment_design(g1.dist, g1.model, np.array([0.5]))

    def test_dimension_bookkeeping_on_wider_instance(self, rng):
        # a 9-point distribution with three moments (mean, variance, skew)
        raw = np.linspace(-2.0, 2.0, 9)
        probs = rng.dirichlet(np.ones(9) * 3.0)
        mean = expectation(make_distribution(raw, probs), raw)
        support = raw - mean
        dist = make_distribution(support, probs)
        v = expectation(dist, dist.column(0) ** 2)
        s = expectation(dist, dist.column(0) ** 3)

        def m(theta, x):
            d = x[:, 0] - theta[:, :1]
            return np.stack([d, d * d - v, d**3 - s], axis=2)

        def jac(theta, x):
            d = x[:, 0] - theta[:, :1]
            return np.stack([-np.ones_like(d), -2.0 * d, -3.0 * d * d], axis=2)[..., None]

        model = MomentModel(m=m, jac=jac, p=1, l=3)
        t_basis, t_perp, _ = moment_design(dist, model, np.array([0.0])).bases
        assert t_perp.dim == model.l - model.p
        assert t_basis.dim + t_perp.dim == dist.n_atoms - 1

    def test_efficient_score_orthogonal_to_nuisance(self, g1):
        # the parameter score must be orthogonal to every nuisance direction:
        # check it against the tangent basis elements built from the
        # complement of the moment span
        t_basis, _, _ = g1.design.bases
        x = g1.dist.column(0)
        ell = centered_score(g1.dist, x / 1.2)
        m_span = orthonormal_basis(
            g1.dist, [x_score(g1.dist), quad_score(g1.dist)], label="full"
        )
        for row in t_basis.values:
            f = ScoreFunction(t_basis.dist, row)
            leak = inner_product(g1.dist, ell, f - project(g1.dist, f, m_span))
            assert abs(leak) < 1e-10


class TestIvTangentBases:
    def test_iv1_dimensions(self, iv1):
        t_basis, t_perp_m, m_perp = tangent_bases(iv1)
        # oracle: E[XZ'] = E[ZZ'] = identity, so the maintained model is just
        # identified and its orthocomplement is empty
        assert m_perp.dim == 0
        assert t_basis.dim == 5 and t_perp_m.dim == 2
        assert t_basis.dim + t_perp_m.dim + m_perp.dim == iv1.dist.n_atoms - 1

    def test_x1e_in_tangent(self, iv1):
        t_basis, _, _ = tangent_bases(iv1)
        e = iv1.model.errors_on(iv1.dist.support)
        g = centered_score(iv1.dist, 0.7 * iv1.dist.column(1) * e)
        assert (g - project(iv1.dist, g, t_basis)).norm() < 1e-10

    def test_detectable_direction_orthogonal_to_tangent(self, iv1):
        # oracle: E[x1 e g] = c (1 - 2/2) = 0 and E[e g] = 0
        t_basis, _, _ = tangent_bases(iv1)
        e = iv1.model.errors_on(iv1.dist.support)
        x1, z1 = iv1.dist.column(1), iv1.dist.column(3)
        g = centered_score(iv1.dist, 1.3 * (z1 - 0.5 * x1) * e)
        assert abs(expectation(iv1.dist, x1 * e * g.values)) < 1e-14
        assert abs(expectation(iv1.dist, e * g.values)) < 1e-14
        assert project(iv1.dist, g, t_basis).norm() < 1e-10

    def test_null_model_violation_detected(self, iv1):
        skewed = make_distribution(iv1.dist.support, np.arange(1.0, 9.0))
        with pytest.raises(NullModelViolated):
            iv_design(skewed, iv1.model)

    def test_non_finite_conditional_moment_is_a_violation(self, iv1):
        # NaN errors once passed the check, which compared with ">", and the
        # design then died in numpy's "SVD did not converge"
        model = IVModel(beta0=np.array([math.nan, 0.0]), sigma0_sq=1.0, dims=iv1.model.dims)
        with pytest.raises(NullModelViolated, match="nan"):
            check_iv_null_model(iv1.dist, model)

    @pytest.mark.parametrize("sigma0_sq", [math.inf, math.nan, 0.0])
    def test_error_variance_must_be_positive_and_finite(self, iv1, sigma0_sq):
        # an infinite sigma0^2 once passed the null-model check on IV1, whose
        # E[e^2 | cell] is 1, because |1 - inf| <= 1e-10 * inf
        with pytest.raises(ValueError, match="positive and finite"):
            IVModel(beta0=iv1.model.beta0, sigma0_sq=sigma0_sq, dims=iv1.model.dims)

    def test_negative_zero_stays_in_its_cell(self, iv1):
        # x1 = -0.0 on one atom of an x1 = 0 cell: the same cells, the same
        # null model and the same prediction as IV1
        rows = iv1.dist.support.copy()
        rows[np.flatnonzero(rows[:, 1] == 0.0)[0], 1] = -0.0
        signed = IvInstance("signed", make_distribution(rows, iv1.dist.probs), iv1.model)
        values = [0.0, 0.0, 2.0, -2.0, -2.0, 2.0, 0.0, 0.0]
        check_iv_null_model(signed.dist, signed.model)
        assert [b.dim for b in tangent_bases(signed)] == [b.dim for b in tangent_bases(iv1)]
        got = prediction_numbers(signed, ScoreFunction(signed.dist, values))
        want = prediction_numbers(iv1, ScoreFunction(iv1.dist, values))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_dwh_basis_is_empty_when_x1_instruments_itself(self):
        # z1 = x1: 2SLS is OLS, and their influences differ only by rounding
        rows = [[0.7 * z + 0.3 + e, z, 1.0, z] for z in (-1.0, 0.5, 2.0) for e in (-1.0, 1.0)]
        dist = make_distribution(rows, [0.1, 0.1, 0.15, 0.15, 0.25, 0.25])
        design = iv_design(dist, IVModel(beta0=np.array([0.7, 0.3]), sigma0_sq=1.0, dims=(1, 1, 1)))
        assert design.statistic["dwh"].dim == 0

    def test_nearly_equal_instrument_levels_are_refused(self):
        # levels -0.11049085 and -0.11049072: cond(E[ZZ']) = 2.6e14
        rows, weights, _, model = iv_grid_design(167771629, [2], 2)
        assert np.ptp(np.unique(rows[:, 3])) < 2e-7
        with pytest.raises(SingularInstrumentGram, match="Z'Z is singular"):
            iv_design(make_distribution(rows, weights), model)
        assert refused(rows, weights, model)

    def test_wrong_sigma_rejected(self, iv1):
        model = IVModel(beta0=iv1.model.beta0, sigma0_sq=2.0, dims=iv1.model.dims)
        with pytest.raises(NullModelViolated):
            iv_design(iv1.dist, model)

    def test_overidentified_instance_three_way_split(self):
        # two instruments for one endogenous regressor: the maintained model
        # is overidentified, so its orthocomplement is nontrivial
        rows, probs = [], []
        for z1a in (-1.0, 1.0):
            for z1b in (-1.0, 1.0):
                for w in (-1.0, 1.0):
                    for e in (-1.0, 1.0):
                        x1 = z1a + 0.5 * z1b + w
                        y = 2.0 * x1 - 1.0 + e
                        rows.append([y, x1, 1.0, z1a, z1b])
                        probs.append(1.0 / 16.0)
        dist = make_distribution(rows, probs)
        model = IVModel(beta0=np.array([2.0, -1.0]), sigma0_sq=1.0, dims=(1, 1, 2))
        t_basis, t_perp_m, m_perp = iv_design(dist, model).bases
        s = dist.n_atoms
        assert s == 16
        # conditioning cells: 8 distinct (x1, z) values -> nuisance dim 15 - 8
        assert t_basis.dim == 2 + (s - 1 - 8)
        assert m_perp.dim == 1  # l - p = 3 - 2
        assert t_basis.dim + t_perp_m.dim + m_perp.dim == s - 1
        # nesting: every null tangent direction stays inside the maintained space
        for row in t_basis.values:
            f = ScoreFunction(t_basis.dist, row)
            assert project(dist, f, m_perp).norm() < 1e-10


class TestDecomposeScore:
    def test_tangent_score_has_trivial_parts(self, iv1, rng):
        bases = tangent_bases(iv1)
        coefs = rng.standard_normal(bases[0].dim)
        g = ScoreFunction(iv1.dist, coefs @ bases[0].values)
        report = decompose_score(iv1, g)
        assert report.pi_TperpM.norm() < 1e-10
        assert report.pi_Mperp.norm() < 1e-10

    def test_unit_construction_variances(self, iv1):
        bases = tangent_bases(iv1)
        g = ScoreFunction(bases[0].dist, bases[0].values[0]) + ScoreFunction(
            bases[1].dist, bases[1].values[0]
        )
        report = decompose_score(iv1, g)
        assert np.allclose(report.variances, [1.0, 1.0, 0.0], atol=1e-10)

    def test_pythagoras_for_random_scores(self, g1, iv1, rng):
        for inst in (g1, iv1):
            for _ in range(10):
                g = centered_score(inst.dist, rng.standard_normal(inst.dist.n_atoms))
                report = decompose_score(inst, g)
                total = report.pi_T + report.pi_TperpM + report.pi_Mperp
                assert np.max(np.abs(total.values - g.values)) < 1e-10
                assert abs(
                    inner_product(inst.dist, g, g) - sum(report.variances)
                ) < 1e-10
                assert abs(inner_product(inst.dist, report.pi_T, report.pi_TperpM)) < 1e-10
                assert abs(inner_product(inst.dist, report.pi_T, report.pi_Mperp)) < 1e-10
                assert abs(inner_product(inst.dist, report.pi_TperpM, report.pi_Mperp)) < 1e-10


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestDecomposeAgainstBases:
    """The split read from the design's two small spans against projections
    on the explicit tangent bases, T among them, built as the complement of
    the constant and T_perp."""

    @staticmethod
    def check(instance, g):
        report = decompose_score(instance, g)
        bases = tangent_bases(instance)
        parts, variances = decompose_by_bases(
            instance.dist.probs, g.values, [b.values for b in bases]
        )
        got = (report.pi_T, report.pi_TperpM, report.pi_Mperp)
        for part, ref, basis in zip(got, parts, bases):
            assert np.max(np.abs(part.values - ref)) <= 1e-12, basis.label
        assert np.max(np.abs(np.subtract(report.variances, variances))) <= 1e-12
        assert np.max(np.abs(sum(part.values for part in got) - g.values)) <= 1e-12
        for a, b in itertools.combinations(got, 2):
            assert abs(inner_product(instance.dist, a, b)) <= 1e-12
        return report, bases

    @pytest.mark.parametrize("name", ["g1_perp", "g1_tangent", "iv1_power", "iv1_bias_equal"])
    def test_shipped_configs(self, name):
        self.check(*build_instance_and_score(load_raw(CONFIG_DIR / f"{name}.json")))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_iv_wide_designs(self, seed):
        sys.path.insert(0, str(BENCH))
        try:
            from workloads import iv_wide_design
        finally:
            sys.path.remove(str(BENCH))
        design = iv_wide_design(seed)
        instance = build_instance(design["instance"])
        self.check(instance, ScoreFunction(instance.dist, design["g"]))

    @settings(max_examples=40, deadline=None)
    @given(case=random_instances(), seed=st.integers(0, 2**32 - 1))
    def test_random_instances(self, case, seed):
        make, weights, _ = case
        instance = make(weights)
        values = np.random.default_rng(seed).standard_normal(instance.dist.n_atoms)
        report, bases = self.check(instance, centered_score(instance.dist, values))
        if bases[2].dim == 0:  # M_perp is empty exactly, not at rounding level
            assert not np.any(report.pi_Mperp.values) and report.var_Mperp == 0.0


def prediction_numbers(instance, g):
    """Every number ``build_prediction`` reports for ``g``: biases, ncp and
    the decomposition variances."""
    names = (["gmm"], ["j"]) if instance.kind == "gmm" else (["ols", "tsls"], ["dwh"])
    pred = build_prediction(instance, g, *names, alpha=0.05)
    ncps = [t.ncp for t in pred.tests.values()]
    return np.concatenate([*pred.biases.values(), ncps, list(pred.decomposition.values())])


def permutation_bound(instance, numbers):
    """How far ``prediction_numbers`` may move when the atoms are permuted:
    ``float_bound``, on an IV instance of the condition number of 2SLS's
    normal matrix, scaled up by the numbers' size.  The 2SLS bias rounds by
    about eps times both: on 7500 generated IV designs the gap stayed below
    0.16 times this bound, and on 3000 moment instances below 3.2e-14."""
    conds = []
    if instance.kind == "iv":
        _, exz, ezz = iv_moments(instance.dist, instance.model)
        conds.append(np.linalg.cond(exz @ np.linalg.solve(ezz, exz.T)))
    return max(1.0, np.max(np.abs(numbers))) * float_bound(*conds)


def efficient_influence_of(instance):
    """The influence functions of the estimator efficient under the null model."""
    influence = instance.design.influence[instance.estimators[0]]  # GMM or OLS
    return [ScoreFunction(instance.dist, v) for v in influence.T]


@st.composite
def signed_zero_iv_designs(draw):
    """An IV design from ``iv_grid_design`` with a zero level of its first
    instrument, and the same design with that zero stored as -0.0 on a
    random subset of its atoms and the atoms permuted: (instance, copy,
    permutation), copy.dist.support equal under == to instance's at perm."""
    z_counts = [draw(st.integers(2, 4)) for _ in range(draw(st.integers(1, 2)))]
    seed = draw(st.integers(0, 2**32 - 1))
    rows, weights, _, model = iv_grid_design(seed, z_counts, draw(st.integers(2, 3)), True)
    assume(not refused(rows, weights, model))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signed = rows.copy()
    zeros = np.flatnonzero(rows[:, 3] == 0.0)
    signed[rng.choice(zeros, size=rng.integers(1, zeros.size + 1), replace=False), 3] = -0.0
    perm = rng.permutation(rows.shape[0])
    instance = IvInstance("grid", make_distribution(rows, weights), model)
    copy = IvInstance("signed", make_distribution(signed[perm], weights[perm]), model)
    return instance, copy, perm


def permuted(instance, perm):
    """The instance with its atoms in the order ``perm``."""
    dist = make_distribution(instance.dist.support[perm], instance.dist.probs[perm])
    return dataclasses.replace(instance, dist=dist)


class TestInvariantsOnGeneratedInstances:
    """Structural facts on random instances, not only on G1 and IV1."""

    @staticmethod
    def check(instance, g):
        dist = instance.dist
        t_perp = tangent_bases(instance)[1:]
        if instance.kind == "gmm":
            assert t_perp[0].dim == instance.model.l - instance.model.p
        else:
            cells = len(set(map(tuple, dist.support[:, 1:].tolist())))
            assert sum(b.dim for b in t_perp) == cells - instance.model.n_params
        report = decompose_score(instance, g)
        parts = (report.pi_T, report.pi_TperpM, report.pi_Mperp)
        assert np.max(np.abs(sum(part.values for part in parts) - g.values)) <= 1e-12
        for a, b in itertools.combinations(parts, 2):
            assert abs(inner_product(dist, a, b)) <= 1e-12
        influence = efficient_influence_of(instance)
        bias = [inner_product(dist, nu, report.pi_TperpM) for nu in influence]
        assert np.max(np.abs(bias)) <= 1e-12  # the pretest's channel moves no efficient bias
        # Hausman's lemma: C = <influence, statistic basis> is zero for the
        # efficient estimator and its pretest.  The basis rows are unit
        # vectors, so C carries the influence's rounding: the bound scales
        # with its norm (13 where x1 is nearly collinear with the intercept).
        basis = instance.design.statistic[instance.tests[0]]
        for b in (ScoreFunction(dist, row) for row in basis.values):
            for nu in influence:
                assert abs(inner_product(dist, b, nu)) <= 1e-12 * max(1.0, nu.norm())

    @settings(max_examples=40, deadline=None)
    @given(case=random_instances(), seed=st.integers(0, 2**32 - 1))
    def test_random_instances_in_any_atom_order(self, case, seed):
        make, weights, _ = case
        instance = make(weights)
        rng = np.random.default_rng(seed)
        g = centered_score(instance.dist, rng.standard_normal(instance.dist.n_atoms))
        g = (1.0 / g.norm()) * g
        self.check(instance, g)
        perm = rng.permutation(instance.dist.n_atoms)
        shuffled = permuted(instance, perm)
        moved = prediction_numbers(shuffled, ScoreFunction(shuffled.dist, g.values[perm]))
        numbers = prediction_numbers(instance, g)
        assert np.max(np.abs(moved - numbers)) <= permutation_bound(instance, numbers)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nearly_collinear_instrument(self, seed):
        # z2 levels 0.7540 and 0.7555, cond(E[ZZ']) = 4.9e6: with M_perp read
        # through E[ZZ']^{-1}, the OLS bias along pi_TperpM was 8.6e-12 for
        # the score of seed 0, and the parts were orthogonal only to 1.8e-12
        # for that of seed 1 (drawn by Hypothesis seed 180)
        rows, weights, _, model = iv_grid_design(88, [2, 2], 2)
        assert np.ptp(np.unique(rows[:, 4])) < 2e-3
        instance = IvInstance("grid", make_distribution(rows, weights), model)
        rng = np.random.default_rng(seed)
        g = centered_score(instance.dist, rng.standard_normal(instance.dist.n_atoms))
        self.check(instance, (1.0 / g.norm()) * g)

    @settings(max_examples=40, deadline=None)
    @given(case=signed_zero_iv_designs(), seed=st.integers(0, 2**32 - 1))
    def test_signed_zeros_and_atom_order(self, case, seed):
        instance, signed, perm = case
        values = np.random.default_rng(seed).standard_normal(instance.dist.n_atoms)
        g = centered_score(instance.dist, values)
        g = (1.0 / g.norm()) * g
        g_signed = ScoreFunction(signed.dist, g.values[perm])
        self.check(instance, g)
        self.check(signed, g_signed)
        moved = prediction_numbers(signed, g_signed)
        assert np.max(np.abs(moved - prediction_numbers(instance, g))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(case=random_instances())
    def test_hausman_lemma_on_generated_instances(self, case):
        make, weights, _ = case
        assert hausman_ratio(make(weights)) <= 1e-14

    @pytest.mark.parametrize(
        "seed, z_counts, w_count",
        [
            (2977932420, [3, 2], 2),
            (2443062159, [2], 2),
            (1228866133, [3], 2),
            (2672127538, [2], 2),
            (1218219390, [2, 3], 2),
            (1782645963, [2], 3),
        ],
    )
    def test_hausman_lemma_where_the_influence_differences_cancel(self, seed, z_counts, w_count):
        # a basis orthonormalised from nu_tsls - nu_ols gave a ratio above
        # 1e-12 (up to 8.9e-12) on these: 2SLS is within 0.0002 to 0.02 of
        # OLS on four, and E[XX'] (1.7e4) or E[ZZ'] (4.1e7) is ill-conditioned
        # on the others
        rows, weights, _, model = iv_grid_design(seed, z_counts, w_count)
        assert hausman_ratio(IvInstance("grid", make_distribution(rows, weights), model)) <= 1e-14

    def test_hausman_lemma_on_the_built_ins(self, g1, iv1):
        # C(gmm, j) and C(ols, dwh) vanish; 2SLS is not efficient under the
        # null, and C(tsls, dwh) = sqrt(V_tsls - V_ols) = sqrt(1 - 1/2) along x1
        assert np.max(np.abs(g1.design.covariance("gmm", "j"))) <= 1e-12
        assert np.max(np.abs(iv1.design.covariance("ols", "dwh"))) <= 1e-12
        cross = iv1.design.covariance("tsls", "dwh")
        assert np.abs(cross).ravel() == pytest.approx([math.sqrt(0.5), 0.0], abs=1e-12)


def hausman_ratio(instance):
    """max |C| / max(1, |nu|) over the rows of the test's statistic basis
    and the columns nu of the efficient influence, C = E[b nu]: zero in
    exact arithmetic (Hausman 1978), so this measures rounding relative to
    the influence's scale."""
    design, dist = instance.design, instance.dist
    estimator, test = instance.estimators[0], instance.tests[0]
    nu = design.influence[estimator]
    scale = np.maximum(1.0, np.sqrt(expectation(dist, nu * nu)))
    return np.max(np.abs(design.covariance(estimator, test)) / scale, initial=0.0)


def nesting_leak(instance):
    """The largest part of a column of x e in M_perp, relative to the
    column's norm; zero in exact arithmetic (see ``iv_design``)."""
    dist, design = instance.dist, instance.design
    xe = design.X * design.e[:, None]
    xe = xe - expectation(dist, xe)
    m_perp = tangent_bases(instance)[2].values
    part = np.linalg.norm(m_perp @ (dist.probs[:, None] * xe), axis=0)
    return np.max(part / np.sqrt(expectation(dist, xe * xe)))


class TestNullTangentSpaceNestsInTheMaintainedOne:
    """The leak is rounding, and M_perp is read from span(z e) without
    E[ZZ']^{-1}, so it does not grow with cond(E[ZZ']): on 1500 q = 2 grid
    designs it stayed below 1.1e-15.  Through E[ZZ']^{-1} it reached 6.7e-12
    on the same designs (cond 3.8e8), and 1.6e-9 on the one below."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        z_counts=st.lists(st.integers(2, 4), min_size=2, max_size=2),
        w_count=st.integers(2, 4),
    )
    def test_overidentified_grid_designs(self, seed, z_counts, w_count):
        rows, weights, _, model = iv_grid_design(seed, z_counts, w_count)
        instance = IvInstance("grid", make_distribution(rows, weights), model)
        assert tangent_bases(instance)[2].dim == 1
        assert nesting_leak(instance) <= 1e-12

    def test_an_ill_conditioned_design_is_built(self):
        # cond(E[ZZ']) = 1.8e10
        rows, weights, _, model = iv_grid_design(2146825816, [3, 2], 4)
        instance = IvInstance("grid", make_distribution(rows, weights), model)
        assert np.linalg.cond(iv_moments(instance.dist, model)[2]) > 1e10
        assert nesting_leak(instance) <= 1e-12


def test_singular_sigma_detected(g1):
    def m(theta, x):
        d = x[:, 0] - theta[:, :1]
        return np.stack([d, d], axis=2)

    def jac(theta, x):
        return np.full((len(theta), x.shape[0], 2, 1), -1.0)

    model = MomentModel(m=m, jac=jac, p=1, l=2)
    with pytest.raises(SingularSigma):
        moment_design(g1.dist, model, np.array([0.0]))


def test_linear_iv_moment_model_matches_design(iv1):
    model = linear_iv_moment_model(iv1.model.dims)
    rows = iv1.dist.support
    y, X, Z = iv1.model.design_matrices(rows)
    vals = model.moments_at(iv1.model.beta0, rows)
    expected = Z * (y - X @ iv1.model.beta0)[:, None]
    assert np.max(np.abs(vals - expected)) < 1e-14


# the ``iv1_power`` score
IV1_POWER_VALUES = [0.0, 0.0, 2.0, -2.0, -2.0, 2.0, 0.0, 0.0]


def iv1_in_units(c):
    """IV1 with its intercept column coded as ``c`` instead of 1: as an IV
    instance, as ``linear_iv_moment_model((1, 1, 1))`` at beta = (1, 0), and
    the ``iv1_power`` score on them.  The intercept's coefficient is then
    in units of 1/c; every other number is the same."""
    iv1 = instances.iv1_instance()
    rows = iv1.dist.support.copy()
    rows[:, 2] *= c
    dist = make_distribution(rows, iv1.dist.probs)
    iv = IvInstance("IV1", dist, iv1.model)
    gmm = GmmInstance("IV1", dist, linear_iv_moment_model((1, 1, 1)), np.array([1.0, 0.0]))
    return iv, gmm, ScoreFunction(dist, np.array(IV1_POWER_VALUES))


class TestInterceptUnits:
    # a singular-value ratio of E[ZX'] and of the mean Jacobian once refused
    # both designs for c <= 1e-6; every verdict is now a pivot test, which
    # rescaling a column cannot move
    UNITS = pytest.mark.parametrize("c", [1e-6, 1e-12])

    @UNITS
    def test_dwh_prediction(self, c):
        want, got = (
            build_prediction(iv, g, [], ["dwh"], 0.05).tests["dwh"]
            for iv, _, g in (iv1_in_units(1.0), iv1_in_units(c))
        )
        assert got.dof == want.dof == 1
        assert got.ncp == pytest.approx(want.ncp, rel=1e-12, abs=0.0)
        assert got.power == pytest.approx(want.power, rel=1e-12, abs=0.0)

    @UNITS
    def test_biases_in_the_intercept_units(self, c):
        # unscaled, the GMM intercept bias at c = 1e-12 reads -6.1e-5:
        # rounding times 1/c
        (base_iv, base_gmm, g), (iv, gmm, h) = iv1_in_units(1.0), iv1_in_units(c)
        pairs = [("ols", base_iv, iv), ("tsls", base_iv, iv), ("gmm", base_gmm, gmm)]
        for name, base, scaled in pairs:
            want = base.design.bias(name, g)
            got = scaled.design.bias(name, h) * [1.0, c]
            assert np.max(np.abs(got - want)) <= 1e-12, name


def efficient_gmm_gap(rows, weights, model):
    """The largest gap between the influence functions of efficient GMM on
    ``linear_iv_moment_model`` and of 2SLS on the IV design, each
    coordinate relative to 2SLS's largest entry, and the condition number
    of E[ZZ'] scaled to a unit diagonal."""
    dist = make_distribution(rows, weights)
    gmm = GmmInstance("moments", dist, linear_iv_moment_model(model.dims), model.beta0)
    nu_gmm = gmm.design.influence["gmm"]
    nu_tsls = IvInstance("iv", dist, model).design.influence["tsls"]
    ezz = iv_moments(dist, model)[2]
    unit = 1.0 / np.sqrt(np.diag(ezz))
    cond = np.linalg.cond(ezz * unit[:, None] * unit)
    return np.max(np.abs(nu_gmm - nu_tsls) / np.max(np.abs(nu_tsls), axis=0)), cond


# the bound on ``efficient_gmm_gap``'s gap in units of eps times its
# condition number; on ``iv_grid_design`` seeds 0-39 (``z_counts`` [2] and
# [3, 2], three shocks) the gap read at most 6.5 of these units
EFFICIENT_GMM_ROUNDING = 100.0


class TestEfficientGmmIsTsls:
    # under the homoskedastic null, E[e^2 z z'] = sigma0^2 E[zz'], so the
    # efficient weight is 2SLS's and the two influence functions agree
    def test_iv1(self, iv1):
        _, gmm, _ = iv1_in_units(1.0)
        assert np.array_equal(gmm.design.influence["gmm"], iv1.design.influence["tsls"])

    @pytest.mark.parametrize("c", [1e-6, 1e-12])
    def test_iv1_in_other_units(self, c):
        iv, _, _ = iv1_in_units(c)
        gap, cond = efficient_gmm_gap(iv.dist.support, iv.dist.probs, iv.model)
        assert gap <= EFFICIENT_GMM_ROUNDING * np.finfo(float).eps * cond

    @pytest.mark.parametrize("z_counts", [[2], [3, 2]], ids=str)
    @pytest.mark.parametrize("seed", range(20))
    def test_grid_designs(self, seed, z_counts):
        rows, weights, _, model = iv_grid_design(seed, z_counts, 3)
        gap, cond = efficient_gmm_gap(rows, weights, model)
        assert gap <= EFFICIENT_GMM_ROUNDING * np.finfo(float).eps * cond


def test_overidentified_mean_model_jacobian_consistent(g1):
    model = overidentified_mean_model(1.2)
    model.check_jacobian(np.array([0.3]), g1.dist.support)
