"""Independent physics used only to cross-check the package in the tests.

Neither function runs in the simulator: the module MPP is found by a
golden-section search over the scalar single-diode solution, and the
uniform array current collapses the whole array into one lumped diode
instead of composing strings.
"""

import math

from pvmppt.pvmodel import (
    ModuleCondition,
    ModuleParams,
    _bracket,
    _env,
    _exp,
    module_current,
    module_open_circuit_voltage,
)
from pvmppt.solver import golden_section_max, solve_decreasing


def module_mpp(p: ModuleParams, c: ModuleCondition) -> tuple[float, float]:
    """(v, p) of the module maximum power point at condition ``c``."""
    voc = module_open_circuit_voltage(p, c)
    v, pw = golden_section_max(lambda v: v * module_current(p, c, v), 0.0, voc, xtol=1e-5)
    return v, pw


def uniform_array_current(
    p: ModuleParams,
    c: ModuleCondition,
    n_series: int,
    n_parallel: int,
    v: float,
) -> float:
    """Array current under uniform conditions via the lumped equivalent.

    Collapses the whole array into one equivalent diode with scaled
    series/shunt resistances; cross-checks the per-string composition
    under uniform conditions.
    """
    a, i_pv, i_o = _env(p, c)
    a_arr = a * n_series
    r_s = p.r_s * n_series / n_parallel
    r_sh = p.r_sh * n_series / n_parallel
    ipv_arr = i_pv * n_parallel
    io_arr = i_o * n_parallel

    def f(i: float) -> float:
        x = v + r_s * i
        return ipv_arr - io_arr * (_exp(x / a_arr) - 1.0) - x / r_sh - i

    def fprime(i: float) -> float:
        x = v + r_s * i
        return -io_arr * r_s / a_arr * _exp(x / a_arr) - r_s / r_sh - 1.0

    lo, hi = _bracket(f, ipv_arr - io_arr * math.expm1(v / a_arr) - v / r_sh)
    return max(solve_decreasing(f, lo, hi, fprime, ftol=1e-12 * max(ipv_arr, 1.0)), 0.0)
