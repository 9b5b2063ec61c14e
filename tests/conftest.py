from fractions import Fraction

import pytest

from maxent_lab import build_space, derive_lattice, solve_maxent

# Published projection masses for the uniform die constrained to mean 4.5.
BRANDEIS_MASSES = (0.05435, 0.07877, 0.11416, 0.16545, 0.23977, 0.34749)


def fold_last(masses: dict) -> dict:
    """A marginal of the first m symbols, {prefix: mass}, summed over its
    last symbol: the marginal of the first m - 1."""
    out: dict = {}
    for prefix, mass in masses.items():
        out[prefix[:-1]] = out.get(prefix[:-1], 0) + mass
    return out


@pytest.fixture(scope="session")
def dice():
    return build_space([1, 2, 3, 4, 5, 6], [1] * 6)


@pytest.fixture(scope="session")
def dice_constraint():
    return derive_lattice([[x] for x in range(1, 7)], [Fraction(9, 2)])


@pytest.fixture(scope="session")
def dice_solution(dice, dice_constraint):
    return solve_maxent(dice, dice_constraint)


@pytest.fixture(scope="session")
def coin():
    return build_space([0, 1], [1, 1])


@pytest.fixture(scope="session")
def coin_constraint():
    return derive_lattice([[0], [1]], [Fraction(1, 2)])


@pytest.fixture(scope="session")
def coin_solution(coin, coin_constraint):
    return solve_maxent(coin, coin_constraint)


@pytest.fixture(scope="session")
def coin03_constraint():
    return derive_lattice([[0], [1]], [Fraction(3, 10)])


@pytest.fixture(scope="session")
def coin03_solution(coin, coin03_constraint):
    return solve_maxent(coin, coin03_constraint)


CUBE_LABELS = ["000", "001", "010", "011", "100", "101", "110", "111"]
CUBE_VALUES = [[int(c) for c in label] for label in CUBE_LABELS]


@pytest.fixture(scope="session")
def cube3():
    return build_space(CUBE_LABELS, [1] * 8)


@pytest.fixture(scope="session")
def cube3_constraint():
    return derive_lattice(CUBE_VALUES, [Fraction(1, 2)] * 3)


@pytest.fixture(scope="session")
def cube3_solution(cube3, cube3_constraint):
    return solve_maxent(cube3, cube3_constraint)


PAIR_LABELS = ["00", "01", "10", "11"]
PAIR_VALUES = [[int(c) for c in label] for label in PAIR_LABELS]


@pytest.fixture(scope="session")
def pair():
    return build_space(PAIR_LABELS, [1] * 4)


@pytest.fixture(scope="session")
def pair_constraint():
    return derive_lattice(PAIR_VALUES, [Fraction(1, 2)] * 2)


@pytest.fixture(scope="session")
def pair_solution(pair, pair_constraint):
    return solve_maxent(pair, pair_constraint)
