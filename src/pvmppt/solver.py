"""Scalar root finding for strictly decreasing functions, and a bounded
least-squares fit.

The electrical model reduces every implicit equation to a strictly
decreasing scalar function with a known sign-changing bracket, so a
Newton iteration guarded by bisection always converges.  The datasheet
calibration is a small box-constrained least-squares problem, solved by
Levenberg–Marquardt.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class SolverError(RuntimeError):
    """Root finding failed; carries the last bracket for diagnosis."""

    def __init__(self, message: str, lo: float, hi: float, f_lo: float, f_hi: float):
        super().__init__(
            f"{message} (bracket [{lo!r}, {hi!r}], f(lo)={f_lo!r}, f(hi)={f_hi!r})"
        )
        self.lo = lo
        self.hi = hi
        self.f_lo = f_lo
        self.f_hi = f_hi


_ROOT_XTOL = 1e-13  # bracket width, relative to its magnitude
_ROOT_MAX_ITER = 200


def solve_decreasing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    fprime: Callable[[float], float],
    ftol: float,
) -> float:
    """Find the root of a strictly decreasing ``f`` on ``[lo, hi]``.

    Requires ``f(lo) >= 0 >= f(hi)``.  A Newton step on ``fprime`` is taken
    when it stays inside the bracket; otherwise the bracket is bisected, so
    convergence is guaranteed.  After two Newton steps in a row that each
    failed to halve ``|f|``, the next step bisects too: on a steep
    exponential a Newton step can stay inside the bracket yet barely shrink
    it.  Stops when the bracket is within 1e-13 of its magnitude or the
    residual is within ``ftol``.
    """
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo < 0.0 or f_hi > 0.0:
        raise SolverError("bracket does not enclose a root", lo, hi, f_lo, f_hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi

    x = 0.5 * (lo + hi)
    fx = f(x)
    slow = 0  # Newton steps in a row that failed to halve |f|
    for _ in range(_ROOT_MAX_ITER):
        if fx > 0.0:
            lo = x
        else:
            hi = x
        scale = max(abs(lo), abs(hi), 1.0)
        if hi - lo <= _ROOT_XTOL * scale or abs(fx) <= ftol:
            return x

        x_new = None
        if slow < 2:
            d = fprime(x)
            if d != 0.0:
                cand = x - fx / d
                if lo < cand < hi:
                    x_new = cand
        newton = x_new is not None
        if not newton:
            x_new = 0.5 * (lo + hi)
        f_new = f(x_new)
        slow = slow + 1 if newton and abs(f_new) > 0.5 * abs(fx) else 0
        x, fx = x_new, f_new

    raise SolverError("did not converge", lo, hi, f(lo), f(hi))


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-3
) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on ``[lo, hi]`` to resolution ``xtol``."""
    invphi = 0.6180339887498949
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


_LM_TOL = 1e-14  # relative step, relative cost decrease and gradient
_LM_MAX_ITER = 200
_TINY = np.finfo(float).tiny
_SQRT_EPS = np.finfo(float).eps ** 0.5


def bounded_lm(
    fun: Callable[[np.ndarray], np.ndarray], x0, lower, upper
) -> tuple[np.ndarray, float]:
    """Minimise ``0.5 * |fun(x)|**2`` over the box ``[lower, upper]``.

    Levenberg–Marquardt with Marquardt's diagonal scaling and a
    forward-difference Jacobian.  Every trial point is clipped to the box;
    a variable that sits on a bound while the gradient pushes it outward
    is held there for that step.  Stops when the cost falls by less than
    1e-14 of itself, the step is below 1e-14 of ``|x|``, the gradient of
    the free variables is below 1e-14, or no damping gives a descent.
    Returns ``(x, cost)``.  Raises ``ValueError`` when ``x0`` lies outside
    the box.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("start lies outside the bounds")
    r = fun(x)
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    for _ in range(_LM_MAX_ITER):
        if cost == 0.0:
            break
        jac = _forward_jacobian(fun, x, r, lo, hi)
        g = jac.T @ r
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        if not free.any() or np.max(np.abs(g[free])) < _LM_TOL:
            break
        jf = jac[:, free]
        scale = np.maximum(np.einsum("ij,ij->j", jf, jf), _TINY)
        while True:
            a = np.vstack([jf, np.diag(np.sqrt(lam * scale))])
            b = np.concatenate([-r, np.zeros(jf.shape[1])])
            step = np.linalg.lstsq(a, b, rcond=None)[0]
            x_new = x.copy()
            x_new[free] += step
            np.clip(x_new, lo, hi, out=x_new)
            small = np.linalg.norm(x_new - x) <= _LM_TOL * (_LM_TOL + np.linalg.norm(x))
            r_new = fun(x_new)
            # the decrease in a form that does not cancel when it is far
            # below the cost itself
            decrease = 0.5 * float((r - r_new) @ (r + r_new))
            if decrease > 0.0:
                break
            if small or lam > 1e16:
                return x, cost
            lam *= 4.0
        done = small or decrease <= _LM_TOL * cost
        x, r, cost = x_new, r_new, 0.5 * float(r_new @ r_new)
        lam = max(lam / 3.0, 1e-12)
        if done:
            break
    return x, cost


def _forward_jacobian(fun, x: np.ndarray, r: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Forward differences of ``fun`` at ``x``, stepping inward at an upper bound."""
    jac = np.empty((r.size, x.size))
    for j in range(x.size):
        h = _SQRT_EPS * max(1.0, abs(x[j]))
        if x[j] + h > hi[j]:
            h = -h
        xj = x.copy()
        xj[j] += h
        jac[:, j] = (fun(xj) - r) / (xj[j] - x[j])
    return jac
