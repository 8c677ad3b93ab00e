"""The settable surface of the library: what its entries take, what its
records store, and the derived values they read off what they store."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from renewallab import (
    FiniteLaw,
    GeometricLaw,
    ZetaTailLaw,
    ZeroProbabilityBranch,
    build_chain,
    build_map,
    first_passage,
    from_weights,
    maps,
    moment,
    second_moment_identity,
)
from renewallab.chain import FirstPassageLaw, RenewalChain
from renewallab.maps import IntermittentMap


@pytest.mark.parametrize("entry, gone", [
    (maps.coded_states, "stream"), (maps.sample_states, "stream"), (maps.map_states, "stream"),
    (maps.mc_correlation, "streams"), (moment, "trunc"), (second_moment_identity, "trunc"),
    (from_weights, "probability")])
def test_no_setting_that_only_the_tests_used(entry, gone):
    assert gone not in inspect.signature(entry).parameters


@pytest.mark.parametrize("record, stored", [
    (RenewalChain, ("law", "p", "d", "d_tail", "m1", "pi")),
    (IntermittentMap, ("chain", "breakpoints", "slopes")),
    (FirstPassageLaw, ("i", "j", "series"))])
def test_records_store_only_what_cannot_be_derived(record, stored):
    assert tuple(f.name for f in dataclasses.fields(record)) == stored


LAWS = {
    "geometric": GeometricLaw(0.5),
    **{f"zeta-{d}-{beta}": ZetaTailLaw(d, beta)
       for d in (-0.5, 0.1, 1.0, 3.0, 10.0) for beta in (0.0, 1.0)},
    "finite": FiniteLaw((0.2, 0.3, 0.5)),
    "custom": FiniteLaw((0.3, 0.2), tail_exponent=3.5, tail_log_power=0.5),
}
TRUNCATIONS = [2, 3, 10, 100, 5000]


def old_map_fields(chain):
    """``(symbol_cap, terminal)`` as :func:`build_map` stored them: the
    deepest branch wider than the resolution, and a finite support ending
    at it."""
    support = maps._support_length(chain)
    narrow = np.flatnonzero(chain.p[1 : support + 1] < maps.DEPTH_RESOLUTION)
    cap = int(narrow[0]) if narrow.size else support
    return cap, support == cap and chain.d[cap] == 0.0


@pytest.mark.parametrize("n", TRUNCATIONS)
@pytest.mark.parametrize("name", sorted(LAWS))
def test_derived_properties_equal_the_values_once_stored(name, n):
    law = LAWS[name]
    chain = build_chain(law, n)
    assert type(chain.truncation) is int and chain.truncation == n
    assert chain.ergodic_degree == float(law.degree())
    if math.isfinite(chain.m1):
        assert chain.pi1 == 1.0 / chain.m1
        pi = np.zeros(n + 1)
        pi[1:] = chain.pi1 * chain.d[:n]
        assert chain.pi.tobytes() == pi.tobytes()
    else:
        assert chain.pi1 is None and chain.pi is None
    for i, j in ((1, 1), (2, 1), (1, 2)):
        f = first_passage(chain, i, j, mass_tol=math.inf)
        assert f.prefix_mass == (1.0 if i > j else float(f.series.coeffs.sum()))
    try:
        m = build_map(chain)
    except ZeroProbabilityBranch:  # no resolvable branch
        return
    assert (m.symbol_cap, m.terminal) == old_map_fields(chain)


def test_derived_properties_cannot_be_set():
    chain = build_chain(GeometricLaw(0.5), 10)
    m = build_map(chain)
    for record, name in ((chain, "truncation"), (chain, "pi1"), (chain, "ergodic_degree"),
                         (m, "symbol_cap"), (m, "terminal"),
                         (first_passage(chain, 1, 1, mass_tol=math.inf), "prefix_mass")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
