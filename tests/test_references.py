"""Closed forms against exact references: 40-digit mpmath and sympy."""

import dataclasses
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import sympy as sp

from dealerlab import scenarios
from dealerlab.kernel import DeltaParam, KernelWeight

T = 1.0
# tau = T - t is exact in float, down to about 1e-8
NODES = np.array([0.0, 0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-7, 1.0 - 1e-8])


def weight_reference(d: DeltaParam, kappa: float, tau: float, sign: float):
    """integral_t^T w(t, s) e^{-kappa (s - t)} ds at tau = T - t, from its two exponential parts.

    With sigma = s - t, cosh (sign +1) and sinh (sign -1) of sqrt(delta)(tau - sigma)
    are the half sum and half difference of e^{b (tau - sigma)} and e^{-b (tau - sigma)}.
    """
    with mpmath.workdps(40):
        b, k, tau = mpmath.mpf(d.sqrt_delta), mpmath.mpf(kappa), mpmath.mpf(tau)
        up = mpmath.exp(b * tau) * -mpmath.expm1(-(b + k) * tau) / (b + k)
        down = mpmath.exp(-b * tau) * mpmath.expm1((b - k) * tau) / (b - k)  # kappa != b
        scale = mpmath.mpf(d.delta) if sign > 0 else b
        return scale * (up + sign * down) / 2 / mpmath.cosh(b * tau)


def relative_errors(got: np.ndarray, d: DeltaParam, kappa: float, sign: float) -> list:
    """|got - reference| / reference at each node; the difference of a float and a
    40-digit number rounds only once."""
    errors = []
    for value, tau in zip(got.tolist(), (T - NODES).tolist()):
        want = weight_reference(d, kappa, tau, sign)
        errors.append(float(abs(mpmath.mpf(value) - want) / want))
    return errors


@pytest.mark.parametrize("delta", [1.0, 1e2, 1e4, 1e6])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kernel_weights_match_mpmath(delta, sign):
    # kappa = 0, half, just past and ten times sqrt(delta), the resonance between them
    d = DeltaParam(delta)
    weight = KernelWeight(d, NODES, T, sign)
    assert max(relative_errors(weight.constant(), d, 0.0, sign)) < 1e-13
    for kappa in (0.0, d.sqrt_delta / 2, d.sqrt_delta * (1 + 1e-9), 10 * d.sqrt_delta):
        errors = relative_errors(weight.exponential(kappa), d, kappa, sign)
        assert max(errors) < 1e-13, (kappa, errors)


def test_asymptotic_welfare_brackets_are_the_limit_of_the_exact_ones(monkeypatch):
    # welfare_brackets on symbolic markets, with its integrals of C, C^2 and S^2 replaced by
    # their limits as T -> oo, derived here from the integrands
    rho_c, rho_d, lam, M, b, t, T_ = sp.symbols("rho_c rho_d lambda M b t T", positive=True)
    ch, sh = sp.cosh(b * (T_ - t)), sp.sinh(b * (T_ - t))  # C and S times cosh(b T)
    limits = [sp.limit(sp.integrate(sp.expand(f.rewrite(sp.exp)), (t, 0, T_))
                       / sp.cosh(b * T_) ** power, T_, sp.oo)
              for f, power in ((ch, 1), (ch**2, 2), (sh**2, 2))]

    def delta(s):
        """compute_delta's eta eta_bar / (rho_bar (eta + eta_bar)), eta = 1/lambda and
        eta_bar = n_dealers / lambda (M for the segmented market, 2M for the integrated)."""
        eta, eta_bar = 1 / s.impact_cost, s.n_dealers / s.impact_cost
        value = eta * eta_bar / ((s.rho_c + s.rho_d) / 2 * (eta + eta_bar))
        return SimpleNamespace(delta=value, sqrt_delta=sp.sqrt(value))

    monkeypatch.setattr(scenarios, "scenario_delta", delta)
    monkeypatch.setattr(scenarios, "_hyperbolic_integrals",
                        lambda b_, T: tuple(limit.subs(b, b_) for limit in limits))
    # a dataclass, so that the brackets can take it to 2M dealers with dataclasses.replace
    fields = ("rho_c", "rho_d", "impact_cost", "n_dealers", "T")
    s = dataclasses.make_dataclass("Scenario", fields)(rho_c, rho_d, lam, M, T_)
    exact = scenarios.welfare_brackets(s)
    asymptotic = scenarios.asymptotic_welfare_brackets(s)
    for e, a in zip(exact, asymptotic):
        assert sp.simplify(sp.nsimplify(e - a)) == 0
    ratio = sp.nsimplify(asymptotic[0] / asymptotic[1]).subs({M: 1, rho_c: rho_d})
    assert sp.simplify(ratio - 7 * sp.sqrt(12) / 19) == 0
