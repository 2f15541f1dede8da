import random

import pytest

from smithy import FieldSpec


def test_bit_width():
    assert FieldSpec(12379).k == 14
    assert FieldSpec(7).k == 3
    assert FieldSpec(3).k == 2


def test_pack_examples():
    spec = FieldSpec(12379)
    assert spec.pack(3, 7) == 3 * 2 ** 14 + 7 == 49159
    assert spec.pack(1, 12378) == 2 ** 14 + 12378 == 28762
    assert spec.unpack(49159) == (3, 7)
    assert spec.unpack(28762) == (1, 12378)


def test_pack_sorts_by_row():
    spec = FieldSpec(12379)
    rng = random.Random(5)
    entries = [(rng.randrange(10 ** 6), rng.randrange(1, spec.p))
               for _ in range(300)]
    packed = sorted(spec.pack(i, v) for i, v in entries)
    rows = [spec.unpack(e)[0] for e in packed]
    assert rows == sorted(rows)


def test_pack_validation():
    spec = FieldSpec(7)
    with pytest.raises(ValueError):
        spec.pack(0, 0)
    with pytest.raises(ValueError):
        spec.pack(0, 7)
    with pytest.raises(OverflowError):
        spec.pack(-1, 3)
    with pytest.raises(OverflowError):
        spec.pack(2 ** 61, 3)  # k = 3 leaves 61 bits for the row


def test_modulus_validation():
    for bad in (0, 1, 2, 4, 9, 15, 12369, 2 ** 15 + 1):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    FieldSpec(32749)  # largest prime below 2^15
    with pytest.raises(ValueError):
        FieldSpec(32771)  # prime but too wide


def test_field_ops():
    spec = FieldSpec(7)
    assert spec.neg(3) == 4
    assert spec.neg(0) == 0


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

