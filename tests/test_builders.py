"""The complex builders: vertex counts against closed forms, a byte-equal
serialization round trip, and an early refusal of incomplete catalogs."""

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from levelnerve.catalog import catalog_coverage
from levelnerve.complexes import (FinSimpSet, build_abelian_nerve,
                                  build_image_complex)
from levelnerve.covers import identity_cover
from levelnerve.errors import UnsupportedError


@lru_cache(maxsize=None)
def nerve(g, n, m):
    return build_abelian_nerve(g, n, m)


def primes_of(m):
    return [p for p in range(2, m + 1)
            if m % p == 0 and all(p % q for q in range(2, p))]


def jordan(k, m):
    """Jordan's totient J_k(m) = m^k prod_{p | m} (1 - p^-k)."""
    out = Fraction(m ** k)
    for p in primes_of(m):
        out *= 1 - Fraction(1, p ** k)
    return int(out)


def sp_order(g, m):
    """|Sp_2g(Z/m)| = m^(2g^2+g) prod_{p | m} prod_{i=1..g} (1 - p^-2i)."""
    out = Fraction(m ** (2 * g * g + g))
    for p in primes_of(m):
        for i in range(1, g + 1):
            out *= 1 - Fraction(1, p ** (2 * i))
    return int(out)


def closed_form_count(g, m, key):
    """Vertices of one single-curve type: primitive vectors up to sign for
    a non-separating curve, symplectic splittings H_h + H_(g-h) for a
    separating one (unordered when equal genera and no marks tell the
    sides apart)."""
    verts, ((u, v),) = key
    if u == v:
        return jordan(2 * g, m) // (1 if m == 2 else 2)
    (h, marks_h), (k, marks_k) = verts
    count = sp_order(g, m) // (sp_order(h, m) * sp_order(k, m))
    return count // 2 if (h, marks_h) == (k, marks_k) else count


RANK0 = {(1, 1, 2): 3, (1, 1, 3): 4, (1, 1, 4): 6, (1, 1, 5): 12,
         (1, 2, 2): 4, (1, 2, 3): 5, (2, 0, 2): 25, (2, 0, 3): 85}


@pytest.mark.parametrize("sig", sorted(RANK0), ids=str)
def test_rank0_counts_match_closed_forms(sig):
    g, n, m = sig
    X = nerve(g, n, m)
    per_type = Counter(key for key, _ in X.provenance[0])
    for key, count in per_type.items():
        assert count == closed_form_count(g, m, key)
    assert X.size(0) == RANK0[sig]


ROUND_TRIPS = [
    pytest.param(lambda sig=sig: nerve(*sig), sizes, id=f"nerve{sig}")
    for sig, sizes in (((1, 1, 2), [3]), ((1, 2, 3), [5, 8]),
                       ((2, 0, 2), [25, 105, 60]))
] + [pytest.param(lambda: build_image_complex(identity_cover(1, 2), 2),
                  [4, 6], id="image-identity-cover-1-2")]


@pytest.mark.parametrize("build, sizes", ROUND_TRIPS)
def test_serialization_round_trip_is_byte_equal(build, sizes):
    X = build()
    assert [X.size(k) for k in range(X.top_rank + 1)] == sizes
    text = json.dumps(X.to_data())
    Y = FinSimpSet.from_data(json.loads(text))
    assert json.dumps(Y.to_data()) == text
    assert (Y.encodings, Y.faces) == (X.encodings, X.faces)


def test_incomplete_catalog_refused_up_front():
    _, missing = catalog_coverage(2, 2)
    assert len(missing) == 42
    for build in (lambda: build_abelian_nerve(2, 2, 2),
                  lambda: build_image_complex(identity_cover(2, 2), 2)):
        with pytest.raises(UnsupportedError) as err:
            build()
        text = str(err.value)
        assert "misses 42 types" in text
        assert all(repr(t.canonical_key()) in text for t in missing)
