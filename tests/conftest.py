import pytest

from invpat.core import generate_fpf, generate_involutions

# a duplicate, patterns nested in smaller ones (1432 and 21543 contain
# 321, 21543 contains 2143) and 3412, which contains neither
NESTED = [(3, 2, 1), (3, 2, 1), (2, 1, 4, 3), (1, 4, 3, 2), (3, 4, 1, 2),
          (2, 1, 5, 4, 3)]


@pytest.fixture(scope="session")
def involutions_by_size():
    """All involutions of size 0..8, keyed by size."""
    return {n: tuple(generate_involutions(n)) for n in range(9)}


@pytest.fixture(scope="session")
def matchings_by_size():
    """All matchings of size 0..8, keyed by (even) size."""
    return {n: tuple(generate_fpf(n)) for n in range(0, 9, 2)}


def involution_count_oracle(n: int) -> int:
    """Independent recurrence a(n) = a(n-1) + (n-1) a(n-2)."""
    vals = [1, 1]
    for k in range(2, n + 1):
        vals.append(vals[k - 1] + (k - 1) * vals[k - 2])
    return vals[n]
