"""Closed forms against 40-digit mpmath references."""

import mpmath
import numpy as np
import pytest

from dealerlab.kernel import DeltaParam, KernelWeight

T = 1.0
NODES = np.array([0.0, 0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-7])  # tau = T - t is exact in float


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
    d = DeltaParam.from_value(delta)
    weight = KernelWeight(d, NODES, T, sign)
    assert max(relative_errors(weight.constant(), d, 0.0, sign)) < 1e-13
    for kappa in (0.0, d.sqrt_delta / 2, d.sqrt_delta * (1 + 1e-9), 10 * d.sqrt_delta):
        errors = relative_errors(weight.exponential(kappa), d, kappa, sign)
        if sign < 0 and kappa > 0:
            # the rate weight's exponential form cancels as tau -> 0 (ROADMAP item 15)
            errors = [e for e, tau in zip(errors, T - NODES) if d.sqrt_delta * tau >= 1e-2]
        assert max(errors) < 1e-13, (kappa, errors)
