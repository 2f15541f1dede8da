import random

import pytest

from smithy import FieldSpec


def test_bit_width():
    assert FieldSpec(12379).k == 14
    assert FieldSpec(7).k == 3
    assert FieldSpec(3).k == 2


def test_pack_examples():
    """An entry packs as i << k | v and unpacks as (e >> k, e & mask)."""
    spec = FieldSpec(12379)
    assert spec.mask == 2 ** 14 - 1
    assert 3 << spec.k | 7 == 3 * 2 ** 14 + 7 == 49159
    assert 1 << spec.k | 12378 == 2 ** 14 + 12378 == 28762
    assert (49159 >> spec.k, 49159 & spec.mask) == (3, 7)
    assert (28762 >> spec.k, 28762 & spec.mask) == (1, 12378)


def test_pack_sorts_by_row():
    spec = FieldSpec(12379)
    rng = random.Random(5)
    entries = [(rng.randrange(10 ** 6), rng.randrange(1, spec.p))
               for _ in range(300)]
    packed = sorted(i << spec.k | v for i, v in entries)
    rows = [e >> spec.k for e in packed]
    assert rows == sorted(rows)


def test_modulus_validation():
    for bad in (0, 1, 2, 4, 9, 15, 12369, 2 ** 15 + 1):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    FieldSpec(32749)  # largest prime below 2^15
    with pytest.raises(ValueError):
        FieldSpec(32771)  # prime but too wide
    # refused by its width before any trial division: a prime of 61 bits
    # would take about 7.6e8 of them
    for wide in (2 ** 61 - 1, 40000):
        with pytest.raises(ValueError, match=r"below 2\*\*15"):
            FieldSpec(wide)


def test_inverse_exhaustive_small():
    spec = FieldSpec(7)
    for a in range(1, 7):
        assert a * spec.inv(a) % spec.p == 1
    with pytest.raises(ZeroDivisionError):
        spec.inv(0)


def test_inverse_random_large():
    spec = FieldSpec(12379)
    rng = random.Random(11)
    for _ in range(300):
        a = rng.randrange(1, spec.p)
        assert a * spec.inv(a) % spec.p == 1

