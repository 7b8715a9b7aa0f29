"""Kernel and feedback-function identities, checked against quadrature oracles."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from dealerlab import kernel
from dealerlab.kernel import (
    DeltaParam,
    Horizon,
    compute_delta,
    eval_F,
)

from crosschecks import eval_k, simpson
from memory import traced_peak

SQRT50 = 7.0710678118654755


def eval_k_cosh(d: DeltaParam, t, s, T: float):
    """Kernel via the literal cosh ratio; overflows near sqrt(delta)*T ~ 710."""
    b = d.sqrt_delta
    return d.delta * np.cosh(b * (T - s)) / np.cosh(b * (T - t))


def test_horizon_validation():
    h = Horizon.uniform(1.0, 10)
    assert h.n_steps == 10
    assert h.grid[0] == 0.0 and h.grid[-1] == 1.0
    with pytest.raises(ValueError):
        Horizon(T=-1.0, grid=np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        Horizon(T=1.0, grid=np.array([0.0, 0.5, 0.5, 1.0]))
    for nodes in ([0.0, math.nan, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.3, 1.0],
                  [0.0, math.inf, 1.0]):  # a NaN node compares False either way
        with pytest.raises(ValueError, match="^grid must be strictly increasing$"):
            Horizon(T=1.0, grid=np.array(nodes))
    with pytest.raises(ValueError):
        Horizon(T=1.0, grid=np.array([0.1, 1.0]))
    for T in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"got T={T}"):
            Horizon.uniform(T, 10)
        with pytest.raises(ValueError, match=f"got T={T}"):
            Horizon(T=T, grid=np.array([0.0, T]))
    for steps in (2.5, True, 0):
        with pytest.raises(ValueError, match=f"^steps .* got {steps!r}$"):
            Horizon.uniform(1.0, steps)


def test_horizon_memory_is_the_grid_and_one_bool_a_step():
    # linspace's 8 B a step and the check's one bool; np.diff's steps made it 17 B a step
    Horizon.uniform(1.0, 10)  # first calls
    peaks = [traced_peak(Horizon.uniform, 1.0, n)[1] for n in (50_000, 200_000)]
    assert (peaks[1] - peaks[0]) / 150_000 < 10


@pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf])
def test_require_positive_names_the_value(value):
    with pytest.raises(ValueError, match=rf"^rho must be positive and finite, got {value!r}$"):
        kernel.require_positive("rho", value)


def test_delta_param():
    d = DeltaParam(50.0)
    assert d.sqrt_delta**2 == pytest.approx(50.0, rel=1e-15)
    with pytest.raises(ValueError):
        DeltaParam(-1.0)


def test_a_mesh_rate_that_overflows_is_refused():
    # eta * eta_bar overflows once lambda falls below about 1e-154
    with pytest.raises(ValueError, match="^delta must be positive and finite, got inf$"):
        compute_delta(0.1, 1e300, 1e300)
    with pytest.raises(ValueError, match="^delta must be positive and finite"):
        DeltaParam(math.inf)
    assert compute_delta(0.1, 1e150, 1e150).delta == pytest.approx(5e150, rel=1e-15)


def test_F_at_maturity_is_zero():
    d = DeltaParam(50.0)
    assert eval_F(d, 1.0, 1.0) == 0.0


def test_F_direct_value():
    # sqrt(50)*tanh(sqrt(50)) evaluated in double precision
    d = DeltaParam(50.0)
    assert eval_F(d, 0.0, 1.0) == pytest.approx(7.071057610384575, rel=1e-14)


def test_F_small_delta_taylor():
    # F(t) = delta*(T-t) + O(delta^2) as delta -> 0
    d = DeltaParam(1e-8)
    t, T = 0.25, 1.0
    assert eval_F(d, t, T) == pytest.approx(1e-8 * (T - t), rel=1e-8)


def test_F_monotone_decreasing():
    d = DeltaParam(37.0)
    t = np.linspace(0.0, 2.0, 500)
    vals = eval_F(d, t, 2.0)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals >= 0)


def test_F_domain_errors():
    d = DeltaParam(1.0)
    with pytest.raises(ValueError):
        eval_F(d, 1.5, 1.0)
    with pytest.raises(ValueError):
        eval_F(d, -0.1, 1.0)


def test_k_diagonal_is_delta_exactly():
    for delta in (0.5, 50.0, 1e4):
        d = DeltaParam(delta)
        for t in (0.0, 0.3, 1.0):
            assert eval_k(d, t, t, 1.0) == delta


def test_k_direct_value():
    # k(0, 1) = 100/cosh(10)
    d = DeltaParam(100.0)
    assert eval_k(d, 0.0, 1.0, 1.0) == pytest.approx(0.009079985933781723, rel=1e-13)


def test_k_positive_and_ordered_domain():
    d = DeltaParam(10.0)
    t = np.linspace(0, 1, 21)
    for ti in t:
        s = np.linspace(ti, 1, 17)
        assert np.all(eval_k(d, ti, s, 1.0) > 0)
    with pytest.raises(ValueError):
        eval_k(d, 0.5, 0.4, 1.0)


def test_k_rescaled_agrees_with_cosh_form():
    # for moderate delta both forms must agree to 1e-12 relative
    rng = np.random.default_rng(7)
    for delta in (0.1, 3.7, 50.0, 1e4):
        d = DeltaParam(delta)
        for _ in range(20):
            t = rng.uniform(0, 1)
            s = rng.uniform(t, 1)
            a = eval_k(d, t, s, 1.0)
            b = eval_k_cosh(d, t, s, 1.0)
            assert a == pytest.approx(b, rel=1e-12)


def test_k_huge_delta_finite():
    # naive cosh overflows at sqrt(delta)*T = 1e4; rescaled form must not
    d = DeltaParam(1e8)
    assert np.isfinite(eval_k(d, 0.0, 0.5, 1.0))  # true value underflows to 0
    v = eval_k(d, 0.0, 1e-3, 1.0)
    assert np.isfinite(v) and v > 0
    assert v == pytest.approx(1e8 * math.exp(-1e4 * 1e-3), rel=1e-10)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(eval_k_cosh(d, 0.0, 0.5, 1.0))


def test_kernel_integral_identity_simpson():
    # quadrature oracle: integral_t^T k(t,s) ds == F(t)
    cases = [(3.7, 0.4, 1.0), (50.0, 0.0, 1.0), (50.0, 0.9, 1.0), (0.2, 0.1, 2.0)]
    for delta, t, T in cases:
        d = DeltaParam(delta)
        quad = simpson(lambda s: eval_k(d, t, s, T), t, T, panels=4096)
        assert quad == pytest.approx(eval_F(d, t, T), rel=1e-10, abs=1e-14)


def test_kernel_integral_sweep():
    # 1e4-panel Simpson agrees with F to 1e-8 relative across the grid
    d = DeltaParam(25.0)
    for t in np.linspace(0.0, 0.95, 11):
        quad = simpson(lambda s: eval_k(d, t, s, 1.0), t, 1.0, panels=10_000)
        assert quad == pytest.approx(eval_F(d, t, 1.0), rel=1e-8)


def test_kernel_integral_at_maturity():
    d = DeltaParam(3.0)
    assert eval_F(d, 1.0, 1.0) == 0.0


def test_sinh_sech_identity():
    # sqrt(delta) * integral_t^T sinh(sqrt(delta)(T-s)) ds / cosh(sqrt(delta)(T-t))
    #   = 1 - 1/cosh(sqrt(delta)(T-t))
    for delta, t, T in [(50.0, 0.2, 1.0), (7.3, 0.0, 1.5), (400.0, 0.7, 1.0)]:
        b = math.sqrt(delta)
        quad = simpson(lambda s: np.sinh(b * (T - s)), t, T, panels=10_000)
        lhs = b * quad / math.cosh(b * (T - t))
        rhs = 1.0 - 1.0 / math.cosh(b * (T - t))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_compute_delta_symmetric_case():
    # rho_bar=0.1, eta=eta_bar=10 -> 50; equals the single-dealer value
    # 2/((rho_c+rho_d)*2*lambda) at lambda=0.1, rho_c=rho_d=0.1
    d = compute_delta(0.1, 10.0, 10.0)
    assert d.delta == pytest.approx(50.0, rel=1e-14)
    assert d.delta == pytest.approx(2.0 / (0.2 * 2 * 0.1), rel=1e-14)


def test_compute_delta_infinite_eta():
    d = compute_delta(0.1, math.inf, 10.0)
    assert d.delta == pytest.approx(100.0, rel=1e-14)


def test_compute_delta_infinite_eta_bar():
    # eta*eta_bar/(eta+eta_bar) -> eta as eta_bar -> inf
    d = compute_delta(0.1, 10.0, math.inf)
    assert d.delta == pytest.approx(100.0, rel=1e-14)


def test_compute_delta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_delta(0.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        compute_delta(0.1, 10.0, 0.0)


def test_simpson_matches_known_integral():
    assert simpson(np.sin, 0.0, math.pi, panels=512) == pytest.approx(2.0, rel=1e-10)


def _builds_delta_param(call: ast.Call) -> bool:
    """``DeltaParam(...)``, bare or through a module."""
    f = call.func
    return (isinstance(f, ast.Name) and f.id == "DeltaParam") or (
        isinstance(f, ast.Attribute) and f.attr == "DeltaParam"
    )


def test_only_the_kernel_builds_a_mesh_rate():
    # every other module reads delta from compute_delta, through aggregate or a scenario
    sources = sorted(Path(kernel.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "kernel.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _builds_delta_param(node)
    ]
    assert calls == []
