from fractions import Fraction

import pytest

from brokenstick.orderstats import SURVIVAL_TOL, mean_kth_largest, second_moment_kth_largest
from brokenstick.quadrature import (
    integrate_survival,
    mean_via_quadrature,
    second_moment_via_quadrature,
)
from rational_ccdf import mean_exact, second_moment_exact


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (5, 3), (9, 1), (12, 7), (15, 15)])
def test_moments_recovered_from_survival(n, k):
    assert mean_via_quadrature(n, k) == pytest.approx(mean_kth_largest(n, k), abs=SURVIVAL_TOL)
    assert second_moment_via_quadrature(n, k) == pytest.approx(
        second_moment_kth_largest(n, k), abs=SURVIVAL_TOL
    )


@pytest.mark.parametrize("n", [16, 24, 32, 40])
def test_moments_certified_by_exact_rationals(n):
    # Gauss-Legendre is exact on each polynomial panel, and its weights sum
    # to at most 1, so only the survival values' tolerance remains
    for k in sorted({1, 2, n // 2, n - 1, n}):
        assert abs(Fraction(mean_via_quadrature(n, k)) - mean_exact(n, k)) <= SURVIVAL_TOL
        assert abs(
            Fraction(second_moment_via_quadrature(n, k)) - second_moment_exact(n, k)
        ) <= SURVIVAL_TOL


def test_known_closed_forms_at_n2():
    # E[max(U, 1-U)] = 3/4, E[max^2] = 7/12, E[min] = 1/4, E[min^2] = 1/12
    assert mean_via_quadrature(2, 1) == pytest.approx(0.75, abs=SURVIVAL_TOL)
    assert second_moment_via_quadrature(2, 1) == pytest.approx(7 / 12, abs=SURVIVAL_TOL)
    assert mean_via_quadrature(2, 2) == pytest.approx(0.25, abs=SURVIVAL_TOL)
    assert second_moment_via_quadrature(2, 2) == pytest.approx(1 / 12, abs=SURVIVAL_TOL)


def test_extends_past_double_precision_limit():
    # n where the survival sum cancels past double precision at many nodes
    n = 24
    assert mean_via_quadrature(n, 2) == pytest.approx(mean_kth_largest(n, 2), abs=SURVIVAL_TOL)


def test_rank_validation():
    with pytest.raises(ValueError):
        integrate_survival(3, 4)
