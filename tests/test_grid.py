import numpy as np
import pytest

from equilib import GridError, build_grid


def test_continuous_grid_spacing():
    g = build_grid("continuous", -5, 5, 1001)
    assert g.spacing == pytest.approx(0.01)
    assert g.points[0] == -5 and g.points[-1] == 5
    assert np.all(np.diff(g.points) > 0)


def test_lattice_grid_points():
    g = build_grid("lattice", 0, 30, 31)
    assert g.spacing == 1.0
    assert np.array_equal(g.points, np.arange(31))


def test_reversed_bounds_rejected():
    with pytest.raises(GridError):
        build_grid("continuous", 5, -5, 100)


def test_lattice_count_mismatch_rejected():
    with pytest.raises(GridError):
        build_grid("lattice", 0, 30, 30)
    with pytest.raises(GridError):
        build_grid("lattice", 0.5, 30, 31)


@pytest.mark.parametrize("lower, upper", [
    ("-6", 1), (0, True), (np.nan, 1), (0, np.inf), (0, 10 ** 400),
], ids=["string", "bool", "nan", "inf", "huge_int"])
def test_non_real_bounds_rejected(lower, upper):
    with pytest.raises(GridError, match="must be a finite real number"):
        build_grid("continuous", lower, upper, 11)


def test_too_few_points_rejected():
    with pytest.raises(GridError):
        build_grid("continuous", 0, 1, 2)


def test_unknown_kind_rejected():
    with pytest.raises(GridError):
        build_grid("chebyshev", 0, 1, 5)


def test_trapezoid_quadrature_exact_for_linear():
    g = build_grid("continuous", 0, 2, 401)
    # trapezoid integrates affine functions exactly
    assert g.quadrature(3.0 * g.points + 1.0) == pytest.approx(8.0, abs=1e-13)


def test_lattice_quadrature_is_sum():
    g = build_grid("lattice", 1, 4, 4)
    assert g.quadrature(np.ones(4)) == 4.0


@pytest.mark.parametrize("n_points", [11.7, 11.0, True, "11"])
def test_non_integer_point_count_rejected(n_points):
    with pytest.raises(GridError, match="n_points must be an integer"):
        build_grid("continuous", 0, 1, n_points)
