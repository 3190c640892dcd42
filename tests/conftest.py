"""Shared fixtures: built-in family data cached once per session."""

import os

# before sympy is first imported: the Smith form oracle compares Bezout
# coefficients, which gmpy2's gcdext may choose differently
os.environ["SYMPY_GROUND_TYPES"] = "python"

import pytest

import modfunctor as mf
from modfunctor.families import BUILTIN_LIE, BUILTIN_SU

_DATA_CACHE = {}
_FUSION_CACHE = {}


def get_family(*tokens):
    """Cached modular data for family tokens like ('su', 2, 3)."""
    key = tuple(str(t) for t in tokens)
    if key not in _DATA_CACHE:
        data, _meta = mf.parse_family(key)
        _DATA_CACHE[key] = data
    return _DATA_CACHE[key]


def builtin_tokens():
    """Family tokens of the 33 built-in families, su first."""
    out = [("su", N, k) for N, k in BUILTIN_SU]
    out += [("lie", t, r, level) for t, r, level in BUILTIN_LIE]
    return out


def get_fusion(data):
    """Cached Verlinde fusion tensor keyed on the data object."""
    key = id(data)
    if key not in _FUSION_CACHE:
        _FUSION_CACHE[key] = (data, mf.verlinde_fusion(data))
    return _FUSION_CACHE[key][1]


def coeff(fusion, data, i, j, k):
    """N_{ij}^k by label name, read from slice j."""
    return int(fusion.slice(data.index(j))[data.index(i), data.index(k)])


@pytest.fixture(scope="session")
def su21():
    return get_family("su", 2, 1)


@pytest.fixture(scope="session")
def su22():
    return get_family("su", 2, 2)


@pytest.fixture(scope="session")
def su23():
    return get_family("su", 2, 3)


@pytest.fixture(scope="session")
def su31():
    return get_family("su", 3, 1)


@pytest.fixture(scope="session")
def su32():
    return get_family("su", 3, 2)


@pytest.fixture(scope="session")
def fib():
    # two labels, golden-ratio dimension: the smallest nonabelian example
    return get_family("lie", "G", 2, 1)
