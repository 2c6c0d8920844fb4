"""Tests for the scalar root finder, golden-section search and bounded
Levenberg–Marquardt."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvmppt.solver import SolverError, bounded_lm, golden_section_max, solve_decreasing


@given(
    root=st.floats(-50.0, 50.0),
    slope=st.floats(0.1, 100.0),
    curve=st.floats(0.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_finds_root_of_decreasing_affine_exponential(root, slope, curve):
    # f(x) = -slope*(x - root) - curve*(exp(x - root) - 1) is strictly
    # decreasing with a unique root at x = root
    def f(x):
        return -slope * (x - root) - curve * math.expm1(min(x - root, 100.0))

    def fprime(x):
        return -slope - curve * math.exp(min(x - root, 100.0))

    x = solve_decreasing(f, root - 60.0, root + 60.0, fprime, ftol=0.0)
    assert abs(x - root) < 1e-7 * max(abs(root), 1.0)


@given(root=st.floats(-10.0, 10.0), slope=st.floats(0.5, 10.0))
@settings(max_examples=100, deadline=None)
def test_newton_finds_the_root_of_a_cubic(root, slope):
    def f(x):
        return -slope * (x - root) ** 3 - (x - root)

    def fprime(x):
        return -3.0 * slope * (x - root) ** 2 - 1.0

    x = solve_decreasing(f, root - 5.0, root + 5.0, fprime, ftol=0.0)
    assert abs(x - root) < 1e-6


@given(root=st.floats(-10.0, 10.0), slope=st.floats(0.5, 10.0))
@settings(max_examples=100, deadline=None)
def test_a_zero_derivative_falls_back_to_bisection(root, slope):
    def f(x):
        return -slope * (x - root)

    x = solve_decreasing(f, root - 5.0, root + 5.0, lambda x: 0.0, ftol=0.0)
    assert abs(x - root) < 1e-12 * max(abs(root), 1.0)


def test_bad_bracket_reports_values():
    with pytest.raises(SolverError) as err:
        # increasing: no sign change
        solve_decreasing(lambda x: x, 1.0, 2.0, lambda x: 1.0, ftol=0.0)
    assert err.value.lo == 1.0
    assert err.value.hi == 2.0


@given(peak=st.floats(-8.0, 8.0), width=st.floats(0.5, 4.0))
@settings(max_examples=100, deadline=None)
def test_golden_section_finds_unimodal_peak(peak, width):
    f = lambda x: -((x - peak) / width) ** 2
    x, fx = golden_section_max(f, peak - 10.0, peak + 10.0, xtol=1e-4)
    assert abs(x - peak) < 1e-3
    assert fx == pytest.approx(f(x))


def _rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def test_bounded_lm_interior_optimum():
    x, cost = bounded_lm(_rosenbrock, [-1.2, 1.0], [-2.0, -2.0], [2.0, 2.0])
    assert x == pytest.approx([1.0, 1.0], rel=1e-10)
    assert cost < 1e-24


def test_bounded_lm_optimum_on_a_bound():
    # the unconstrained optimum (1, 1) lies outside x0 <= 0.5; on that edge
    # the cost 50*(x1 - x0**2)**2 + 0.5*(1 - x0)**2 is least at (0.5, 0.25)
    x, cost = bounded_lm(_rosenbrock, [-1.2, 1.0], [-2.0, -2.0], [0.5, 2.0])
    assert x[0] == 0.5
    assert x[1] == pytest.approx(0.25, rel=1e-10)
    assert cost == pytest.approx(0.125, rel=1e-10)


@given(target=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_bounded_lm_clamps_a_linear_fit_to_the_box(target):
    # cost 0.5*|x - target|^2: its box-constrained minimiser is the clip
    t = np.array(target)
    x, _ = bounded_lm(lambda x: x - t, [0.0, 0.0, 0.0], [-1.0] * 3, [1.0] * 3)
    assert x == pytest.approx(np.clip(t, -1.0, 1.0), abs=1e-9)
    assert np.all((-1.0 <= x) & (x <= 1.0))


def test_bounded_lm_rejects_a_start_outside_the_box():
    with pytest.raises(ValueError):
        bounded_lm(_rosenbrock, [-1.2, 3.0], [-2.0, -2.0], [2.0, 2.0])


@pytest.mark.parametrize(
    "i_pv, r_s, lo, hi",
    [
        (8.681265923739051, 1000.0, -6.26374681525219, 10.549392516112956),
        (1e6, 0.2684770425842948, -600016.0, 1100001.0),
    ],
    ids=("r_s_1000", "i_pv_1e6"),
)
def test_steep_exponential_root_is_found(i_pv, r_s, lo, hi):
    """The single-diode short-circuit equation of the calibrated ND195R1S
    module (I_o 5.54e-9 A, A*Vt 1.40 V at 25 degC) with a 1000 ohm series
    resistance or a 1e6 A photocurrent, on the bracket the module model grows
    for it.  Newton steps from the steep side each move ~A*Vt/R_s and barely
    shrink the residual; without the bisection fallback the bracket is still
    [-6.26, 1.86] A, or [-600016, 248953] A, after 200 iterations."""
    a, i_o, r_sh = 1.4028148200112873, 5.544017603266658e-09, 99999999.99999982

    def f(i):
        x = r_s * i
        return i_pv - i_o * (math.exp(min(x / a, 500.0)) - 1.0) - x / r_sh - i

    def fprime(i):
        return -i_o * r_s / a * math.exp(min(r_s * i / a, 500.0)) - r_s / r_sh - 1.0

    ftol = 1e-12 * i_pv
    x = solve_decreasing(f, lo, hi, fprime, ftol=ftol)
    assert lo < x < hi and abs(f(x)) <= ftol
