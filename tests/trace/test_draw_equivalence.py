"""The generator's inlined draws consume the random stream like the stdlib.

The emission loop of :class:`~repro.trace.synthetic.SyntheticTraceGenerator`
does not call ``random.Random``'s ``randrange``, ``choice``, ``expovariate``
or ``choices``: it calls ``_randbelow`` on ``getrandbits`` and inlines the
other two.  Each property below starts two generators from the same state,
draws the stdlib way from one and the inlined way from the other, and
requires the same values *and* the same final state (the same bits
consumed), so a trace is the same draw for draw.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from math import log

import pytest
from hypothesis import given, strategies as st

from repro.common.isa import InstructionClass
from repro.trace.profiles import PARSEC_PROFILES, SPEC_PROFILES
from repro.trace.synthetic import SyntheticTraceGenerator, _randbelow, _slots

seeds = st.integers(min_value=0, max_value=2**64)
DRAWS = 16


def _twins(seed):
    return random.Random(seed), random.Random(seed)


@given(seed=seeds, n=st.integers(min_value=1, max_value=2**70))
def test_randbelow_is_randrange_of_n(seed, n):
    inlined, stdlib = _twins(seed)
    for _ in range(DRAWS):
        assert _randbelow(inlined.getrandbits, n) == stdlib.randrange(n)
    assert inlined.getstate() == stdlib.getstate()


@given(
    seed=seeds,
    start=st.integers(min_value=-(2**40), max_value=2**48),
    width=st.integers(min_value=1, max_value=2**36),
    step=st.integers(min_value=1, max_value=1 << 16),
)
def test_stepped_randrange(seed, start, width, step):
    inlined, stdlib = _twins(seed)
    for _ in range(DRAWS):
        value = start + step * _randbelow(inlined.getrandbits, _slots(width, step))
        assert value == stdlib.randrange(start, start + width, step)
    assert inlined.getstate() == stdlib.getstate()


@given(seed=seeds, population=st.lists(st.integers(), min_size=1, max_size=40))
def test_choice(seed, population):
    inlined, stdlib = _twins(seed)
    for _ in range(DRAWS):
        picked = population[_randbelow(inlined.getrandbits, len(population))]
        assert picked == stdlib.choice(population)
    assert inlined.getstate() == stdlib.getstate()


@given(
    seed=seeds,
    mean=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
)
def test_expovariate(seed, mean):
    inlined, stdlib = _twins(seed)
    lambd = 1.0 / mean
    for _ in range(DRAWS):
        assert -log(1.0 - inlined.random()) / lambd == stdlib.expovariate(lambd)
    assert inlined.getstate() == stdlib.getstate()


weights_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=12
).filter(lambda weights: sum(weights) > 0.0)


@given(seed=seeds, weights=weights_lists)
def test_cumulative_weight_class_pick(seed, weights):
    inlined, stdlib = _twins(seed)
    classes = list(range(len(weights)))
    cum_weights = list(accumulate(weights))
    total = cum_weights[-1] + 0.0
    for _ in range(DRAWS):
        picked = classes[bisect(cum_weights, inlined.random() * total, 0, len(classes) - 1)]
        assert picked == stdlib.choices(classes, weights=weights)[0]
    assert inlined.getstate() == stdlib.getstate()


@pytest.mark.parametrize("name", sorted(SPEC_PROFILES) + sorted(PARSEC_PROFILES))
def test_generator_class_pick_matches_choices_over_the_profile_mix(name):
    profile = SPEC_PROFILES.get(name) or PARSEC_PROFILES[name]
    generator = SyntheticTraceGenerator(profile)
    weights = profile.mix.normalized().as_weights()
    weights[InstructionClass.SERIALIZING] = profile.serializing_fraction
    cum_weights = generator._cum_weights
    assert generator._classes == [int(klass) for klass in weights]
    inlined, stdlib = _twins(17)
    total = cum_weights[-1] + 0.0
    for _ in range(2_000):
        picked = generator._classes[
            bisect(cum_weights, inlined.random() * total, 0, len(cum_weights) - 1)
        ]
        assert picked == int(stdlib.choices(list(weights), weights=list(weights.values()))[0])
