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


@pytest.mark.parametrize("kind, lower, upper, n_points", [
    ("continuous", -1e308, 1e308, 5),  # the spacing overflows
    ("continuous", 1.0, 1.0000000000000002, 5),  # bounds one float apart
    ("continuous", 0.0, 2e-323, 7),  # a subnormal spacing rounds up
    ("lattice", 2 ** 53, 2 ** 53 + 4, 5),  # 2**53 + 1 is not a float
], ids=["overflow", "one-ulp", "subnormal", "lattice"])
def test_points_that_are_not_distinct_floats_rejected(kind, lower, upper,
                                                      n_points):
    with pytest.raises(GridError, match="distinct finite floats|2\\*\\*53"):
        build_grid(kind, lower, upper, n_points)


def _rounding_steps(lower, upper, n_points):
    """The spacing in rounding steps of the largest bound."""
    spacing = (upper - lower) / (n_points - 1)
    return spacing / (2.0 ** -52 * max(abs(lower), abs(upper)))


def test_accepted_grids_have_distinct_increasing_points():
    # spacings from 1/4 to 8 rounding steps of the largest bound, across the
    # float range and both signs: every accepted grid has finite, strictly
    # increasing points, and every spacing of 5 steps or more is accepted
    rng = np.random.default_rng(0)
    eps = 2.0 ** -52
    accepted = 0
    for _ in range(3000):
        mag = 2.0 ** rng.uniform(-960, 1000)
        lower = mag * rng.uniform(-1.0, 1.0)
        n_points = int(rng.integers(3, 200))
        steps = 2.0 ** rng.uniform(-2.0, 3.0)
        upper = lower + steps * eps * mag * (n_points - 1)
        try:
            g = build_grid("continuous", lower, upper, n_points)
        except GridError:
            assert _rounding_steps(lower, upper, n_points) <= 5.0
            continue
        accepted += 1
        assert np.all(np.isfinite(g.points))
        assert np.all(np.diff(g.points) > 0)
    assert accepted > 1000


def test_lattice_up_to_2_53_is_exact():
    g = build_grid("lattice", 2 ** 53 - 4, 2 ** 53, 5)
    assert np.all(np.diff(g.points) == 1.0)
