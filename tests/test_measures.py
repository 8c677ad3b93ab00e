import numpy as np
import pytest

import renewallab as rl
from renewallab import (
    NotNormalized,
    Observable,
    PreconditionViolated,
    SignedDistribution,
    TailDecl,
    from_weights,
    indicator,
    ones,
    point_mass,
    stationary,
)


def test_point_mass_layout():
    nu = point_mass(3)
    assert nu.size == 3
    assert nu.weights[3] == 1.0
    assert nu.weights[:3].sum() == 0.0
    assert nu.tail_mass == 0.0
    assert nu.tail.kind == "finite"
    assert nu.total_mass == 1.0


def test_point_mass_rejects_bad_state():
    with pytest.raises(PreconditionViolated):
        point_mass(0)


def test_total_mass_must_be_one():
    with pytest.raises(NotNormalized):
        from_weights([0.5, 0.4])
    with pytest.raises(NotNormalized):
        SignedDistribution(np.array([0.0, 2.0, -0.5]))


def test_signed_entries_allowed_when_total_is_one():
    nu = SignedDistribution(np.array([0.0, 1.5, -0.5]))
    assert nu.total_mass == 1.0
    # from_weights wraps probability vectors only
    with pytest.raises(NotNormalized):
        from_weights([1.5, -0.5])


def test_sentinel_entry_enforced():
    with pytest.raises(PreconditionViolated):
        SignedDistribution(np.array([0.1, 0.9]))


def test_weights_are_frozen():
    nu = point_mass(2)
    with pytest.raises(ValueError):
        nu.weights[1] = 0.3


def test_stationary_measure_of_zeta_chain():
    ch = rl.build_chain(rl.ZetaTailLaw(1.0), 500)
    nu = stationary(ch)
    assert nu.total_mass == pytest.approx(1.0, abs=1e-12)
    assert nu.tail.kind == "power"
    # the stationary tail is one power lighter than the return law's
    assert nu.tail.exponent == pytest.approx(2.0)
    assert nu.tail.amplitude is None
    assert np.array_equal(nu.weights, ch.pi)


def test_stationary_needs_positive_recurrence():
    ch = rl.build_chain(rl.ZetaTailLaw(-0.5), 100)
    with pytest.raises(rl.NotPositiveRecurrent, match="null-recurrent"):
        stationary(ch)


def test_tail_decl_validation():
    with pytest.raises(PreconditionViolated):
        TailDecl("fancy")
    with pytest.raises(PreconditionViolated):
        TailDecl("power")
    with pytest.raises(PreconditionViolated):
        TailDecl("geometric", ratio=1.5)
    with pytest.raises(PreconditionViolated, match="finite"):
        TailDecl("power", exponent=3.0, log_power=float("nan"))
    with pytest.raises(PreconditionViolated, match="finite"):
        TailDecl("power", exponent=3.0, amplitude=float("nan"))
    with pytest.raises(PreconditionViolated, match="finite"):
        TailDecl("power", exponent=3.0, amplitude=float("inf"))
    assert TailDecl("power", exponent=2.5).log_power == 0.0
    assert TailDecl("power", exponent=2.5).amplitude is None


def test_observable_prefix_and_limit():
    u = Observable(np.array([0.0, 3.0, -1.0]), limit=0.5)
    assert u.size == 2
    assert u.at(1) == 3.0
    assert u.at(2) == -1.0
    assert u.at(100) == 0.5


def test_indicator_and_ones():
    u = indicator([2, 4], size=5)
    assert u.values[1:].tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]
    assert u.limit == 0.0
    v = ones(3)
    assert v.at(2) == 1.0 and v.at(50) == 1.0
    with pytest.raises(PreconditionViolated):
        indicator([7], size=5)
    with pytest.raises(PreconditionViolated):
        indicator([], size=5)


def test_observable_rejects_nonfinite():
    with pytest.raises(PreconditionViolated):
        Observable(np.array([0.0, np.inf]))
    with pytest.raises(PreconditionViolated):
        Observable(np.array([0.0, 1.0]), limit=float("nan"))


@pytest.mark.parametrize("make", [
    lambda: SignedDistribution(np.array([1.0])),
    lambda: SignedDistribution(np.zeros((2, 2))),
    lambda: SignedDistribution(np.array([0.0, 0.5, np.nan])),
    lambda: SignedDistribution(np.array([0.0, np.inf])),
    lambda: Observable(np.array([1.0])),
    lambda: Observable(np.ones((2, 2))),
], ids=["one-entry", "matrix", "nan-weight", "infinite-weight", "one-value", "value-matrix"])
def test_a_measure_or_observable_of_the_wrong_shape_or_not_finite_is_refused(make):
    with pytest.raises(PreconditionViolated):
        make()
