import numpy as np
import pytest
from scipy.stats import ks_2samp

from brokenstick.stats import EccdfCurve, eccdf, empirical_survival, ks_distance_to_survival
from ks_reference import ks_critical_value, ks_statistic_two_sample


def test_empirical_survival_basics():
    values = [0.2, 0.4, 0.4, 0.9]
    assert empirical_survival(values, [0.0])[0] == 1.0
    assert empirical_survival(values, [0.2])[0] == 0.75
    assert empirical_survival(values, [0.4])[0] == 0.25
    assert empirical_survival(values, [1.0])[0] == 0.0
    with pytest.raises(ValueError):
        empirical_survival([], [0.5])


def test_eccdf_default_grid_is_sorted_unique_values():
    curve = eccdf([0.3, 0.1, 0.3])
    assert list(curve.x) == [0.1, 0.3]
    assert list(curve.survival) == [2 / 3, 0.0]
    assert len(curve) == 2


def test_curve_validation():
    with pytest.raises(ValueError):
        EccdfCurve(np.array([0.2, 0.1]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        EccdfCurve(np.array([0.1]), np.array([[1.0]]))


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.normal(size=rng.integers(50, 400))
        b = rng.normal(loc=rng.normal() * 0.2, size=rng.integers(50, 400))
        mine = ks_statistic_two_sample(a, b)
        assert mine == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)


def test_ks_statistic_identical_samples():
    a = np.array([0.1, 0.5, 0.9])
    assert ks_statistic_two_sample(a, a) == 0.0
    assert ks_statistic_two_sample(a, a + 10.0) == 1.0


def test_ks_critical_value():
    # c(0.01) = sqrt(-ln(0.005)/2) ~ 1.6276
    value = ks_critical_value(100_000, 100_000, 0.01)
    assert value == pytest.approx(1.6276 * np.sqrt(2 / 100_000), rel=1e-3)
    assert ks_critical_value(100, 100, 0.05) < ks_critical_value(100, 100, 0.01)
    with pytest.raises(ValueError):
        ks_critical_value(0, 10)
    with pytest.raises(ValueError):
        ks_critical_value(10, 10, alpha=0.0)


def test_ks_distance_to_survival_hand_case():
    # two points against S(x) = 1 - x: jumps at 0.25 and 0.75 leave sup 0.25
    d = ks_distance_to_survival([0.25, 0.75], lambda xs: 1.0 - np.asarray(xs))
    assert d == pytest.approx(0.25, abs=1e-12)


def test_ks_distance_to_survival_converges():
    rng = np.random.default_rng(11)
    values = rng.random(20_000)
    d = ks_distance_to_survival(values, lambda xs: 1.0 - np.clip(np.asarray(xs), 0, 1))
    assert d < ks_critical_value(20_000, 20_000, 0.01)
