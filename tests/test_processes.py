"""Process-family validation, the diffusion table and weighted-combination rules."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from dealerlab import processes
from dealerlab.kernel import DeltaParam, Horizon, KernelWeight
from dealerlab.processes import (
    BrownianMartingale,
    Constant,
    DemandProcess,
    Deterministic,
    OrnsteinUhlenbeck,
    SmoothRate,
    ZERO,
    combine,
)


def test_validation_flags_bad_parameters():
    for build, field in [
        (lambda: BrownianMartingale(0.0, -1.0), "sigma must be >= 0"),
        (lambda: OrnsteinUhlenbeck(0.0, -0.5, 0.0, 1.0), "kappa must be >= 0"),
        (lambda: OrnsteinUhlenbeck(0.0, 0.5, 0.0, -1.0), "sigma must be >= 0"),
        (lambda: Constant(float("nan")), "level must be finite"),
        (lambda: Deterministic((1.0, float("inf"))), "samples must be finite, got inf"),
    ]:
        with pytest.raises(ValueError, match=field):
            build()
    BrownianMartingale(0.0, 1.0)
    OrnsteinUhlenbeck(0.0, 0.0, 0.0, 0.0)


def test_deterministic_path_must_fit_the_grid():
    grid = Horizon.uniform(1.0, 5).grid
    assert Deterministic(tuple(range(6))).path(grid)[0].tolist() == list(range(6))
    with pytest.raises(ValueError, match="has 3 samples, grid has 6 nodes"):
        Deterministic((1.0, 2.0, 3.0)).path(grid)


def test_smooth_rate_nesting_depth_one():
    with pytest.raises(ValueError, match="depth 1"):
        SmoothRate(SmoothRate(Constant(1.0)))
    SmoothRate(Constant(1.0))


def _subclasses(kind):
    for sub in kind.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_kind_rejects_non_finite_numbers():
    # a new kind joins this check by subclassing DemandProcess; a field type missing
    # from ``valid`` fails it with a KeyError
    valid = {"float": 1.0, "Tuple[float, ...]": (1.0, 1.0), "DemandProcess": Constant(1.0)}
    kinds = {k for k in _subclasses(DemandProcess) if dataclasses.is_dataclass(k)}
    assert {Constant, Deterministic, OrnsteinUhlenbeck, BrownianMartingale, SmoothRate} <= kinds
    for kind in kinds:
        fields = [f for f in dataclasses.fields(kind) if f.init]
        args = {f.name: valid[f.type] for f in fields}
        kind(**args)
        for f in fields:
            for x in (math.nan, math.inf, -math.inf):
                bad = {"float": x, "Tuple[float, ...]": (1.0, x)}.get(f.type)
                if bad is not None:
                    with pytest.raises(ValueError, match="finite"):
                        kind(**{**args, f.name: bad})


def test_is_deterministic():
    assert ZERO.deterministic
    assert Constant(2.0).deterministic
    assert Deterministic((0.0, 1.0)).deterministic
    assert SmoothRate(Constant(1.0)).deterministic
    assert not BrownianMartingale(0.0, 1.0).deterministic
    assert not SmoothRate(OrnsteinUhlenbeck(0.0, 1.0, 0.0, 1.0)).deterministic


def test_brownian_is_the_kappa_zero_diffusion_in_name_only():
    bm = BrownianMartingale(0.3, 1.5)
    assert isinstance(bm, OrnsteinUhlenbeck)
    assert (bm.kappa, bm.theta) == (0.0, 0.0)
    assert repr(bm) == "BrownianMartingale(x0=0.3, sigma=1.5)"
    assert bm == BrownianMartingale(0.3, 1.5)
    assert hash(bm) == hash(BrownianMartingale(0.3, 1.5))
    assert bm != OrnsteinUhlenbeck(0.3, 0.0, 0.0, 1.5)
    with pytest.raises(TypeError):
        BrownianMartingale(0.3, 0.0, 0.0, 1.5)


def test_brownian_and_kappa_zero_ou_agree_bit_for_bit():
    bm, ou = BrownianMartingale(0.4, 1.3), OrnsteinUhlenbeck(0.4, 0.0, 0.0, 1.3)
    h = Horizon.uniform(1.5, 40)
    z = np.random.default_rng(3).standard_normal((40, 5))
    states = []
    for p in (bm, ou):
        advance, state = p.stepper(h.dt), p.start(5)
        for i, z_i in enumerate(z):
            state = advance(state, i, z_i)
        states.append(state[0])
    np.testing.assert_array_equal(states[0], states[1])
    for sign in (1.0, -1.0):
        weight = KernelWeight(DeltaParam(30.0), h.grid, h.T, sign)
        for a, b in zip(bm.g_coefficients(weight), ou.g_coefficients(weight)):
            np.testing.assert_array_equal(a, b)
        A, B = bm.g_coefficients(weight)
        assert not np.any(A)
        np.testing.assert_array_equal(B, weight.constant())
        np.testing.assert_array_equal(weight.exponential(0.0), weight.constant())
    assert bm.square_integral(1.5) == ou.square_integral(1.5)
    assert bm.scaling_law(1.5) == ou.scaling_law(1.5)


def test_combine_merges_shared_targets():
    xi = Constant(-1.0)
    terms = combine([(0.25, xi), (0.25, xi)])
    assert terms == ((0.5, xi),)


def test_combine_drops_zero_terms():
    assert combine([(0.5, ZERO), (0.0, Constant(1.0))]) == ()
    # ZERO is Constant(0.0), so a zero level is dropped by value
    assert ZERO == Constant(0.0) and type(ZERO) is Constant
    xi = Constant(-1.0)
    assert combine([(0.25, Constant(0.0)), (0.5, Constant(-0.0)), (0.75, xi)]) == ((0.75, xi),)


def test_combine_merges_equal_stochastic_processes():
    xi = BrownianMartingale(0.0, 1.0)
    terms = combine([(0.25, xi), (0.25, xi), (0.5, ZERO)])
    assert terms == ((0.5, xi),)


def test_combine_allows_deterministic_mix():
    terms = combine([(1.0, Constant(2.0)), (1.0, Deterministic((0.0, 1.0)))])
    assert len(terms) == 2


def test_combine_keeps_brownian_and_ou_as_two_terms():
    bm, ou = BrownianMartingale(0.0, 1.0), OrnsteinUhlenbeck(0.0, 1.0, 0.0, 1.0)
    assert combine([(0.5, bm), (0.25, ou), (0.25, bm)]) == ((0.75, bm), (0.25, ou))
    # the kappa = theta = 0 OU process equals Brownian motion in law, not as a process
    ou0 = OrnsteinUhlenbeck(0.0, 0.0, 0.0, 1.0)
    assert combine([(0.5, bm), (0.5, ou0)]) == ((0.5, bm), (0.5, ou0))
    terms = combine([(0.5, BrownianMartingale(0.0, 1.0)), (0.5, BrownianMartingale(0.0, 2.0))])
    assert len(terms) == 2


def test_combine_cancelling_weights():
    xi = Constant(1.0)
    assert combine([(1.0, xi), (-1.0, xi)]) == ()


def _names(node: ast.AST) -> set:
    """Every bare name and attribute name inside ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_module_tells_a_process_from_its_general_type():
    # a driver is always a term list, and each kind acts through its own table entries
    sources = sorted(Path(processes.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _names(node.func) == {"isinstance"}
        and "DemandProcess" in _names(node.args[1])
    ]
    assert calls == []
