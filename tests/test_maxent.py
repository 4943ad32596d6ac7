import numpy as np
import pytest

import equilib.maxent

from equilib import (EquilibriumDensity, MomentRangeError, MaxEntProblem,
                     PolynomialPotential, SampleError, TabulatedPotential,
                     build_grid, normalize, sample_u_moment, shannon_entropy,
                     solve_maxent, u_moment)

X = PolynomialPotential((0.0, 1.0))
X2 = PolynomialPotential((0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# moments


def test_u_moment_uniform_lattice():
    g = build_grid("lattice", 1, 4, 4)
    f = normalize(TabulatedPotential(grid=g, values=np.zeros(4)), g)
    assert u_moment(f, X) == pytest.approx(2.5, abs=1e-13)


def test_u_moment_standard_normal_variance():
    g = build_grid("continuous", -8, 8, 4001)
    f = normalize(TabulatedPotential(grid=g, values=g.points ** 2 / 2), g)
    assert u_moment(f, X2) == pytest.approx(1.0, abs=1e-8)


def test_u_moment_exponential_mean():
    # trapezoid bias at the x = 0 endpoint is ~h^2/3; h = 1e-4 puts it
    # comfortably under the 1e-8 target
    g = build_grid("continuous", 0, 20, 200001)
    f = normalize(TabulatedPotential(grid=g, values=2.0 * g.points), g)
    assert u_moment(f, X) == pytest.approx(0.5, abs=1e-8)


def test_sample_u_moment():
    assert sample_u_moment([1.0, 3.0], X) == pytest.approx(2.0)
    assert sample_u_moment([0.0, 0.0, 3.0], X2) == pytest.approx(3.0)


def test_sample_u_moment_empty_rejected():
    with pytest.raises(SampleError):
        sample_u_moment([], X)


# ---------------------------------------------------------------------------
# solver


def test_recovers_exponential_rate():
    g = build_grid("continuous", 0, 40, 80001)
    sol = solve_maxent(MaxEntProblem(u=X, grid=g, target_moment=0.5))
    assert sol.converged
    assert sol.lam == pytest.approx(2.0, abs=1e-6)
    assert abs(u_moment(sol.density, X) - 0.5) <= 1e-10


def test_recovers_gaussian_precision():
    g = build_grid("continuous", -8, 8, 4001)
    sol = solve_maxent(MaxEntProblem(u=X2, grid=g, target_moment=1.0))
    assert sol.converged
    assert sol.lam == pytest.approx(0.5, abs=1e-6)


def test_two_point_lattice_symmetry():
    g = build_grid("lattice", 0, 2, 3)
    # target at the center of a symmetric u forces lambda near 0 on {0,1,2}
    sol = solve_maxent(MaxEntProblem(u=X, grid=g, target_moment=1.0))
    assert sol.converged
    assert sol.lam == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(sol.density.values, 1.0 / 3.0, atol=1e-9)


def test_theorem_form_of_normalized_potential():
    g = build_grid("continuous", 0, 40, 4001)
    sol = solve_maxent(MaxEntProblem(u=X, grid=g, target_moment=0.5))
    expected = sol.lam * g.points + sol.density.log_omega
    assert np.max(np.abs(sol.normalized_potential.values - expected)) <= 1e-12


def test_unattainable_moment_rejected():
    g = build_grid("continuous", 0, 10, 101)
    with pytest.raises(MomentRangeError):
        solve_maxent(MaxEntProblem(u=X, grid=g, target_moment=100.0))
    with pytest.raises(MomentRangeError):
        solve_maxent(MaxEntProblem(u=X, grid=g, target_moment=-1.0))


def test_iteration_budget_reported():
    g = build_grid("continuous", 0, 40, 2001)
    sol = solve_maxent(MaxEntProblem(u=X, grid=g, target_moment=0.5,
                                     max_iter=2))
    assert not sol.converged
    assert sol.iterations == 2
    assert sol.residual > 0


def _record_lambdas(monkeypatch):
    """The lambda of every _moment_and_var call the solver makes."""
    lams, moment_and_var = [], equilib.maxent._moment_and_var

    def spy(lam, uvals, grid):
        lams.append(lam)
        return moment_and_var(lam, uvals, grid)

    monkeypatch.setattr(equilib.maxent, "_moment_and_var", spy)
    return lams


def test_target_above_the_flat_mean_gives_negative_lambda():
    g = build_grid("continuous", 0, 40, 2001)
    sol = solve_maxent(MaxEntProblem(u=X, grid=g, target_moment=30.0))
    assert sol.converged
    assert sol.lam < 0
    assert abs(u_moment(sol.density, X) - 30.0) <= 1e-10


def test_newton_point_outside_the_bracket_takes_the_midpoint(monkeypatch):
    lams = _record_lambdas(monkeypatch)
    g = build_grid("continuous", -1, 2, 2001)
    sol = solve_maxent(MaxEntProblem(
        u=PolynomialPotential((0.0,) * 5 + (1.0,)), grid=g,
        target_moment=15.5))
    assert sol.converged
    assert sol.lam == pytest.approx(-0.1140075, abs=1e-7)
    # the first step overshoots to lambda < 0, whose Newton point lies past
    # hi = 0, so the next lambda is the midpoint of the first two
    assert lams[1] < 0
    assert lams[2] == 0.5 * (lams[0] + lams[1])


@pytest.mark.parametrize("c, rel", [(1e3, 1e-12), (1e8, 1e-9), (1e10, 1e-6)])
@pytest.mark.parametrize("m", [0.3, 0.7])
def test_offset_u_solves_like_u_without_it(c, rel, m):
    g = build_grid("continuous", 0, 1, 2001)
    u = PolynomialPotential((c, 1.0))
    sol = solve_maxent(MaxEntProblem(u=u, grid=g, target_moment=c + m))
    ref = solve_maxent(MaxEntProblem(u=X, grid=g,
                                     target_moment=(c + m) - c))
    assert sol.converged and sol.iterations <= 10
    assert sol.lam == pytest.approx(ref.lam, rel=rel)
    # log_k belongs to e^(-lambda u), offset included
    expected = sol.lam * u.values_on(g) + sol.density.log_omega
    assert np.max(np.abs(sol.normalized_potential.values - expected)) \
        <= 1e-12 * abs(sol.lam) * c


def test_one_moment_evaluation_per_iteration(monkeypatch):
    lams = _record_lambdas(monkeypatch)
    g = build_grid("continuous", 0, 40, 2001)
    sol = solve_maxent(MaxEntProblem(u=X, grid=g, target_moment=0.5))
    assert sol.converged
    assert len(lams) == sol.iterations + 1


# ---------------------------------------------------------------------------
# properties


def _moment_curve(lams, g, u):
    uvals = u.values_on(g)
    out = []
    for lam in lams:
        f = normalize(TabulatedPotential(grid=g, values=lam * uvals), g)
        out.append(g.quadrature(uvals * f.values))
    return np.array(out)


def test_moment_strictly_decreasing_in_lambda():
    g = build_grid("continuous", 0, 20, 2001)
    lams = np.linspace(-0.5, 4.0, 25)
    curve = _moment_curve(lams, g, X)
    assert np.all(np.diff(curve) < 0)


def test_derivative_identity_matches_variance():
    g = build_grid("continuous", 0, 20, 2001)
    uvals = X.values_on(g)
    eps = 1e-6
    for lam in [0.3, 0.8, 1.5, 2.5, 4.0]:
        f = normalize(TabulatedPotential(grid=g, values=lam * uvals), g)
        mean = g.quadrature(uvals * f.values)
        var = g.quadrature(uvals ** 2 * f.values) - mean ** 2
        fd = (_moment_curve([lam + eps], g, X)[0]
              - _moment_curve([lam - eps], g, X)[0]) / (2 * eps)
        assert fd == pytest.approx(-var, rel=1e-5)


def test_solution_is_entropy_maximum():
    g = build_grid("continuous", 0, 40, 4001)
    sol = solve_maxent(MaxEntProblem(u=X, grid=g, target_moment=0.5))
    h0 = shannon_entropy(sol.density)
    w = g.weights
    uvals = X.values_on(g)
    f = sol.density.values
    rng = np.random.default_rng(7)
    region = f > 1e-2
    basis = np.stack([w, w * uvals])[:, region]
    for step in (1e-2, 1e-3):
        for _ in range(100):
            d = rng.standard_normal(region.sum())
            # project onto the constraint set: total mass and u-moment fixed
            coef = np.linalg.lstsq(basis.T, d, rcond=None)[0]
            d = d - basis.T @ coef
            d = step * d / np.max(np.abs(d))
            pert = f.copy()
            pert[region] = f[region] + d
            assert np.all(pert > 0)
            h = -float(w @ (pert * np.log(pert, where=pert > 0,
                                          out=np.zeros_like(pert))))
            assert h < h0
