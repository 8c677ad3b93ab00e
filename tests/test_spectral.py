import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewallab import (
    FiniteLaw,
    GeometricLaw,
    ZetaTailLaw,
    build_chain,
)
from renewallab import spectral
from renewallab.chain import first_passage
from renewallab.errors import (
    OutOfDomain,
    PreconditionViolated,
    SingularPoint,
    TruncationTooSmall,
)
from renewallab.series import EVAL_RADIUS, TruncatedSeries, _quotient, zero_diagnostic
from renewallab.spectral import (
    disk_scan,
    eigen_from_gf,
    factorization_residual,
    gf_evaluate,
    jump_operator,
    partial_norm_scan,
    transition_operator,
)


@pytest.fixture(scope="module")
def geometric():
    return build_chain(GeometricLaw(0.5), truncation=2000)


@pytest.fixture(scope="module")
def zeta_one():
    return build_chain(ZetaTailLaw(1.0), truncation=2000)


# ----------------------------------------------------------------------
# dense truncations
# ----------------------------------------------------------------------

def test_transition_operator_layout(geometric):
    op = transition_operator(geometric, 6)
    # row 1 carries the return law, rows below descend one step
    assert op[0, 2] == geometric.p[3]
    assert op[3, 2] == 1.0
    assert op[3, 4] == 0.0
    sums = op.sum(axis=1)
    assert np.all(sums[1:] == 1.0)
    assert abs(sums[0] - (1.0 - geometric.law.tail_beyond(6))) < 1e-15


def test_jump_operator_entries(geometric):
    z = 0.3 + 0.2j
    op = jump_operator(geometric, z, 8)
    assert op[4, 1] == pytest.approx(geometric.p[2] * z ** 5, rel=1e-15)


def test_row_action_matches_stationary_vector(zeta_one):
    n = 300
    x = zeta_one.pi[1 : n + 1]
    out = x @ transition_operator(zeta_one, n)
    # the last column misses pi_{n+1}, so compare on the interior
    assert np.max(np.abs(out[: n - 1] - x[: n - 1])) < 1e-12


def test_dense_cap_and_size_gates(geometric):
    with pytest.raises(PreconditionViolated):
        transition_operator(geometric, 1001)
    with pytest.raises(TruncationTooSmall):
        transition_operator(geometric, 1)
    with pytest.raises(TruncationTooSmall):
        jump_operator(build_chain(GeometricLaw(0.5), truncation=50), 0.5, 80)


# ----------------------------------------------------------------------
# operator factorization
# ----------------------------------------------------------------------

def dense_product_residual(chain, z, n):
    """The factorization defect with the bare shift Q as a dense matrix
    and (I - zQ)(I - L_z) as a full matrix product."""
    eye = np.eye(n, dtype=complex)
    q = np.zeros((n, n))
    idx = np.arange(1, n)
    q[idx, idx - 1] = 1.0
    lhs = (eye - z * q) @ (eye - spectral.jump_operator(chain, z, n))
    rhs = eye - z * spectral.transition_operator(chain, n)
    return float(np.abs(lhs - rhs)[: n - 1, : n - 1].max())


FACTOR_POINTS = [0.0, 0.5, -0.3 + 0.4j, 0.95j]


def ref_factorization_residual(chain, z, n):
    """The factorization defect from the plain matrix expressions, each
    identity and difference a fresh n-by-n array."""
    lhs = np.eye(n) - spectral.jump_operator(chain, z, n)
    lhs[1:] -= z * lhs[:-1]
    rhs = np.eye(n) - z * spectral.transition_operator(chain, n)
    return float(np.abs(lhs - rhs)[: n - 1, : n - 1].max())


@pytest.mark.parametrize("n", [2, 3, 50, 399, 400])
@pytest.mark.parametrize("z", FACTOR_POINTS + [1.0, -1.0, 1j, 0.3 - 0.6j])
@pytest.mark.parametrize("name", ["geometric", "zeta_one"])
def test_factorization_residual_equals_the_plain_expressions(name, z, n, request):
    # the in-place route differs from them only in the sign of zeros
    chain = request.getfixturevalue(name)
    assert factorization_residual(chain, z, n) == ref_factorization_residual(chain, z, n)


@pytest.mark.parametrize("n", [50, 400])
@pytest.mark.parametrize("z", FACTOR_POINTS)
@pytest.mark.parametrize("name", ["geometric", "zeta_one"])
def test_factorization_residual_matches_the_dense_product(name, z, n, request):
    chain = request.getfixturevalue(name)
    eps = np.finfo(float).eps
    assert factorization_residual(chain, z, n) <= 4 * eps
    assert dense_product_residual(chain, z, n) <= 4 * eps


def perturbed(builder, delta, i, j):
    def build(*args):
        m = builder(*args)
        m[i, j] += delta
        return m
    return build


@pytest.mark.parametrize("n", [50, 400])
@pytest.mark.parametrize("z", FACTOR_POINTS)
@pytest.mark.parametrize("name", ["geometric", "zeta_one"])
def test_factorization_residual_reads_a_perturbed_entry(name, z, n, request, monkeypatch):
    # an interior entry of L_z off by delta leaves row i of (I - zQ)(I - L_z)
    # off by delta and row i + 1 by |z| delta; one of P, entering as -zP,
    # leaves the defect at |z| delta; the corner is the last interior entry
    chain = request.getfixturevalue(name)
    delta = 1e-9
    for i, j in ((n // 2, n // 3), (n - 2, n - 2)):
        for builder, want in (("jump_operator", delta), ("transition_operator", abs(z) * delta)):
            with monkeypatch.context() as patch:
                patch.setattr(spectral, builder, perturbed(getattr(spectral, builder), delta, i, j))
                for route in (factorization_residual, dense_product_residual):
                    assert abs(route(chain, z, n) - want) <= 0.01 * want


def test_factorization_residual_at_desk_points(geometric, zeta_one):
    # shift times return-jump reproduces the full transition operator
    for chain in (geometric, zeta_one):
        for z in (0.5, -0.3 + 0.4j):
            assert factorization_residual(chain, z, 200) < 1e-12


def test_factorization_residual_insensitive_to_truncation(zeta_one):
    values = [factorization_residual(zeta_one, 0.7, n) for n in (100, 200, 400)]
    assert all(v < 1e-12 for v in values)


def test_factorization_exact_at_zero(geometric):
    assert factorization_residual(geometric, 0.0, 50) == 0.0


def test_factorization_domain_gate(geometric):
    with pytest.raises(PreconditionViolated):
        factorization_residual(geometric, 1.5, 50)


# ----------------------------------------------------------------------
# eigenvector candidates
# ----------------------------------------------------------------------

def test_eigen_coefficients_geometric_closed_form(geometric):
    # q = 1/2 at lam = 1/2: x_k = (2 - k) 2^(1-k), all dyadic so the
    # recursion reproduces the closed form bit for bit
    probe = eigen_from_gf(geometric, 0.5, 400)
    k = np.arange(1, 401)
    closed = (2.0 - k) * 2.0 ** (1.0 - k)
    assert np.array_equal(probe.vector[1:], closed)
    assert probe.vector[2] == 0.0
    assert abs(probe.vector[3] + 0.25) < 1e-14
    assert probe.residual < 1e-10


def test_eigen_at_one_recovers_survival(zeta_one):
    probe = eigen_from_gf(zeta_one, 1.0, 400)
    assert np.max(np.abs(probe.vector[1:] - zeta_one.d[:400])) < 1e-13
    assert probe.residual < 1e-10
    assert probe.tail_note == pytest.approx(zeta_one.d[400], rel=1e-12)


def test_eigen_edge_defect_shrinks_as_prefix_doubles(geometric, zeta_one):
    # inside the disk the dropped coefficient decays with the prefix:
    # geometrically for a geometric law, like the law tail otherwise
    notes = [eigen_from_gf(zeta_one, 0.9, n).tail_note for n in (100, 200, 400)]
    assert notes[0] > notes[1] > notes[2]
    assert notes[2] < 1e-6
    notes = [eigen_from_gf(geometric, 0.9, n).tail_note for n in (100, 200, 400)]
    assert notes[0] > notes[1] > notes[2]
    assert notes[2] < 1e-12


def test_eigen_complex_interior_point(geometric):
    probe = eigen_from_gf(geometric, 0.3 + 0.4j, 300)
    assert probe.vector.dtype == complex
    assert probe.residual < 1e-12
    assert probe.tail_note < 1e-50


def ref_real_eigen(chain, lam, n):
    """The recursion of :func:`eigen_from_gf` in real arithmetic: ``(x,
    residual, tail_note)``."""
    x = np.zeros(n + 1)
    x[1] = 1.0
    for k in range(1, n):
        x[k + 1] = lam * x[k] - chain.p[k]
    defect = lam * x[1:n] - (x[1] * chain.p[1:n] + x[2 : n + 1])
    return x, float(np.abs(defect).sum()), float(abs(lam * x[n] - chain.p[n]))


@pytest.mark.parametrize("lam", [1.0, 0.9, 0.5, 0.0, -0.25, -0.999, -1.0])
@pytest.mark.parametrize("n", [3, 200, 2000])
def test_eigen_at_a_real_point_keeps_the_bits_of_real_arithmetic(geometric, zeta_one, lam, n):
    # the one complex recursion: zero imaginary parts, and real parts,
    # residuals, edge notes and norms as the real recursion gives them
    finite = build_chain(FiniteLaw((0.2, 0.3, 0.5)), 2000)
    for chain in (geometric, zeta_one, finite):
        x, residual, note = ref_real_eigen(chain, lam, n)
        probe = eigen_from_gf(chain, lam, n)
        assert probe.vector.dtype == complex and not probe.vector.imag.any()
        assert np.array_equal(probe.vector.real, x)
        assert np.abs(probe.vector).tobytes() == np.abs(x).tobytes()
        assert (probe.residual, probe.tail_note) == (residual, note)
        lengths = sorted({0, 1, n // 2, n})
        assert (partial_norm_scan(chain, lam, lengths).tobytes()
                == np.cumsum(np.abs(x))[lengths].tobytes())
        assert disk_scan(chain, [lam], n) == [(lam, 0.0, residual, float(np.abs(x).sum()))]


def test_eigen_size_gates(geometric):
    with pytest.raises(TruncationTooSmall):
        eigen_from_gf(geometric, 0.5, 2)
    with pytest.raises(TruncationTooSmall):
        eigen_from_gf(geometric, 0.5, geometric.truncation + 1)


def test_partial_norms_grow_on_the_circle(geometric):
    # at lam = i the coefficients do not die off: the partial l1 norms
    # keep climbing as the prefix doubles, evidence (not proof) that no
    # summable eigenvector lives there
    norms = partial_norm_scan(geometric, 1j, [100, 200, 400, 800])
    assert np.all(np.diff(norms) > 0.0)
    assert norms[3] / norms[2] > 1.5


def test_partial_norms_settle_inside_the_disk(geometric):
    norms = partial_norm_scan(geometric, 0.5, [100, 200, 400, 800])
    assert norms[3] - norms[2] < 1e-10


def test_partial_norm_scan_needs_increasing_lengths(geometric):
    with pytest.raises(PreconditionViolated):
        partial_norm_scan(geometric, 0.5, [200, 100])


def test_partial_norm_scan_refuses_negative_lengths(geometric):
    # a negative length would index the partial sums from their end
    with pytest.raises(PreconditionViolated):
        partial_norm_scan(geometric, 0.5, [-5, 10])
    assert partial_norm_scan(geometric, 0.5, [0, 10])[0] == 0.0


def test_partial_norm_scan_answers_prefixes_below_three(geometric):
    # the recursion is asked for three coefficients however short the prefixes
    short = partial_norm_scan(geometric, 0.5, [0, 1])
    assert short.tobytes() == partial_norm_scan(geometric, 0.5, [0, 1, 5])[:2].tobytes()


def test_disk_scan_rows(zeta_one):
    rows = disk_scan(zeta_one, [0.5, 0.5j, -0.25], 200)
    assert len(rows) == 3
    re, im, residual, norm = rows[1]
    assert (re, im) == (0.0, 0.5)
    assert residual < 1e-12
    assert norm > 1.0


# ----------------------------------------------------------------------
# generating functions
# ----------------------------------------------------------------------

def test_visit_function_geometric_radial_value(geometric):
    # q = 1/2 gives P_11(z) = (1 - z/2)/(1 - z) exactly
    p11, f11 = gf_evaluate(geometric, 1, 1, 0.99)
    assert (1.0 - 0.99) * p11 == pytest.approx(0.505, abs=1e-12)
    p11, f11 = gf_evaluate(geometric, 1, 1, 0.5)
    assert p11 == pytest.approx(1.5, abs=1e-12)
    assert f11 == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_first_passage_function_descending_is_monomial(geometric):
    p52, f52 = gf_evaluate(geometric, 5, 2, 0.7)
    assert f52 == pytest.approx(0.7 ** 3, abs=1e-15)


def test_visit_identity_couples_the_two_values(zeta_one):
    z = -0.3 + 0.4j
    for i, j in ((1, 1), (2, 1), (1, 3), (3, 3), (5, 2)):
        p_ij, f_ij = gf_evaluate(zeta_one, i, j, z)
        p_jj, _ = gf_evaluate(zeta_one, j, j, z)
        delta = 1.0 if i == j else 0.0
        assert abs(p_ij - (f_ij * p_jj + delta)) < 1e-12


def test_visit_function_real_arguments_return_floats(geometric):
    p11, f11 = gf_evaluate(geometric, 1, 1, -0.8)
    assert isinstance(p11, float) and isinstance(f11, float)


def test_visit_function_at_zero(geometric):
    assert gf_evaluate(geometric, 1, 1, 0.0) == (1.0, 0.0)
    assert gf_evaluate(geometric, 4, 2, 0.0) == (0.0, 0.0)


def test_visit_function_singularity_and_domain(geometric):
    with pytest.raises(SingularPoint):
        gf_evaluate(geometric, 1, 1, 1.0)
    with pytest.raises(PreconditionViolated):
        gf_evaluate(geometric, 1, 1, 1.2)
    with pytest.raises(PreconditionViolated):
        gf_evaluate(geometric, 0, 1, 0.5)


def test_visit_function_takes_a_sequence_and_draws_no_passage_series(zeta_one, monkeypatch):
    # the series route is the tests' oracle, not a check at every call
    import renewallab.chain

    points = [0.5, -0.3 + 0.4j, 0.0, 0.95j]
    one_by_one = [gf_evaluate(zeta_one, 2, 3, z) for z in points]
    monkeypatch.setattr(renewallab.chain, "first_passage", no_passage)
    assert gf_evaluate(zeta_one, 2, 3, points) == one_by_one


def no_passage(*args, **kwargs):
    raise AssertionError("gf_evaluate computed a first-passage series")


def ref_series_values(chain, i, j, points):
    """P_ij at each point as a series: the coefficients of the first
    passage over the return-renewal denominator, summed by Horner."""
    n = min(chain.truncation - j, 400)
    fij = first_passage(chain, i, j, trunc=n, mass_tol=math.inf).series.coeffs
    fjj = fij if i == j else first_passage(chain, j, j, trunc=n, mass_tol=math.inf).series.coeffs
    coeffs = _quotient(fij, np.r_[1.0, -fjj[1:]])
    return [complex(np.polynomial.polynomial.polyval(z, coeffs)) + float(i == j)
            for z in points]


#: Points of radius at most 0.9, where 400 series terms settle.
INSIDE = [0.5, -0.8, 0.9, -0.3 + 0.4j, 0.6 - 0.6j, 0.9j, 0.05]


@pytest.mark.parametrize("i, j", [(1, 1), (2, 3), (3, 3), (5, 2), (1, 7), (50, 50), (7, 50)])
@pytest.mark.parametrize("law", [GeometricLaw(0.5), ZetaTailLaw(1.0), ZetaTailLaw(0.25, 1.0),
                                 FiniteLaw((0.5, 0.3, 0.2)),
                                 FiniteLaw((0.5, 0.3, 0.1), tail_exponent=3.5)], ids=repr)
def test_visit_function_matches_its_series(law, i, j):
    chain = build_chain(law, truncation=2000)
    got = gf_evaluate(chain, i, j, INSIDE)
    for (p_ij, _), want in zip(got, ref_series_values(chain, i, j, INSIDE)):
        assert abs(want - p_ij) <= 1e-8 * max(1.0, abs(p_ij))


def test_visit_function_refuses_targets_past_the_prefix(zeta_one):
    for i, j in ((2001, 2001), (1, 2001)):
        with pytest.raises(TruncationTooSmall):
            gf_evaluate(zeta_one, i, j, 0.5)
    # a start past the prefix descends to j deterministically
    p_far, f_far = gf_evaluate(zeta_one, 2001, 1, 0.5)
    assert f_far == 0.5 ** 2000
    assert p_far == pytest.approx(f_far * gf_evaluate(zeta_one, 1, 1, 0.5)[0], rel=1e-15)


def test_visit_function_circle_point(zeta_one):
    # away from z = 1 the closed forms stay finite on the circle
    p11, f11 = gf_evaluate(zeta_one, 1, 1, -1.0)
    assert np.isfinite(p11) and np.isfinite(f11)
    assert abs(f11) < 1.0


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(min_value=0.1, max_value=0.8),
    x=st.floats(min_value=-0.8, max_value=0.8),
    y=st.floats(min_value=-0.5, max_value=0.5),
)
def test_visit_reciprocal_relation_random_points(q, x, y):
    z = complex(x, y)
    if abs(z) > 0.85 or z == 0.0:
        return
    ch = build_chain(GeometricLaw(q), truncation=1200)
    p11, f11 = gf_evaluate(ch, 1, 1, z)
    assert abs(p11 - 1.0 / (1.0 - f11)) < 1e-10 * max(1.0, abs(p11))


# ----------------------------------------------------------------------
# one closed-disk rule
# ----------------------------------------------------------------------

def test_every_disk_entry_shares_the_evaluation_radius(geometric):
    # series refuses with OutOfDomain and spectral with PreconditionViolated,
    # past EVAL_RADIUS = 1 + 1e-9, and both admit the points short of it
    assert EVAL_RADIUS == 1.0 + 1e-9
    entries = {
        "evaluate": (lambda z: TruncatedSeries([1.0, -0.5]).evaluate(z), OutOfDomain),
        "zero_diagnostic": (lambda z: zero_diagnostic([1.0, -0.5], radii=[abs(z)], points=4),
                            OutOfDomain),
        "factorization_residual": (lambda z: factorization_residual(geometric, z, 20),
                                   PreconditionViolated),
        "eigen_from_gf": (lambda z: eigen_from_gf(geometric, z, 20), PreconditionViolated),
        "gf_evaluate": (lambda z: gf_evaluate(geometric, 1, 2, z), PreconditionViolated),
    }
    angle = np.exp(0.7j)
    for name, (entry, error) in entries.items():
        for r in (1.0 + 5e-10, 1.0 + 2e-9):
            for z in (r, r * angle):
                if r < EVAL_RADIUS:
                    entry(z)
                else:
                    with pytest.raises(error) as exc:
                        entry(z)
                    assert type(exc.value) is error, name
