"""Command-line runner: scenario orchestration and figure/report emission.

Subcommands
-----------
liquidation        fig1_strategies.csv, fig1_price.csv (one and infinitely many dealers)
diffusive          fig2_paths.csv plus an OU-regression summary JSON
welfare            fig3_welfare.csv plus a welfare report JSON
scaling-smooth     smooth-demand cost scaling report (JSON + CSV)
scaling-diffusive  diffusive-demand cost scaling report (JSON + CSV)
oracle-check       discrete-oracle gap report JSON
equilibrium        generic equilibrium paths CSV from an INI config file

A call declares only its subcommand's flags (``build_parser(command)``); its
usage, help and error text are those of the full parser.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .asymptotics import scaling_study
from .equilibrium import solve_equilibrium
from .kernel import Horizon, require_count
from .market import AgentSpec, MarketParams, dealers_only_market, segmented_market
from .oracle import oracle_gap
from .processes import (
    BrownianMartingale,
    Constant,
    DemandProcess,
    Deterministic,
    OrnsteinUhlenbeck,
    SmoothRate,
    ZERO,
)
from .reports import row_blocks, run_metadata, write_csv, write_json
from .scenarios import (
    INF_DEALERS,
    DiffusiveScenario,
    LiquidationScenario,
    diffusive_simulate,
    liquidation_closed_form,
    price_reversion_regression,
    segmentation_welfare,
)


class ConfigError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def _parse_lambdas(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"--lambda must be a comma list of numbers, got {text!r}") from None
    if not values or not all(0 < v < math.inf for v in values):
        raise ConfigError(f"--lambda impact costs must be positive and finite, got {text!r}")
    return values


def _parse_steps_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"--steps-list must be a comma list of integers, got {text!r}") from None
    if any(v < 1 for v in values):
        raise ConfigError(f"--steps-list step counts must be at least 1, got {text!r}")
    return values


def parse_process(text: str) -> DemandProcess:
    """Process grammar: zero | constant:c | brownian:x0,sigma | ou:x0,kappa,theta,sigma
    | deterministic:v0,v1,... | smooth:<one of the above>; an error names the whole spec once."""
    text = text.strip()

    def build(spec: str) -> DemandProcess:
        if spec == "zero":
            return ZERO
        kind, _, rest = spec.partition(":")
        if kind == "constant":
            return Constant(float(rest))
        if kind == "brownian":
            x0, sigma = (float(x) for x in rest.split(","))
            return BrownianMartingale(x0, sigma)
        if kind == "ou":
            x0, kappa, theta, sigma = (float(x) for x in rest.split(","))
            return OrnsteinUhlenbeck(x0, kappa, theta, sigma)
        if kind == "deterministic":
            return Deterministic(tuple(float(x) for x in rest.split(",")))
        if kind == "smooth":
            return SmoothRate(build(rest.strip()))
        raise ConfigError(f"unknown process kind {text!r}")

    try:
        return build(text)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad process spec {text!r}: {exc}") from None


# the keys each section may hold; configparser lowercases them, so [market]'s T reads as t
_CONFIG_KEYS = {"market": {"t", "impact_cost", "steps"}, "noise": {"process"},
                "agent": {"mass", "risk_tolerance", "open_cost", "target"}}


def load_market_config(path: str) -> tuple[MarketParams, Horizon, dict]:
    """Flat INI ([market], optional [noise], one section per agent) as (market, grid, echo)."""
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
        echo = {s: dict(cp.items(s)) for s in cp.sections()}  # interpolates every value
    except configparser.Error as exc:  # no section header, a duplicate, a bare '%', ...
        raise ConfigError(
            f"config file {path!r} is malformed: {str(exc).splitlines()[0]}"
        ) from None
    if not read:
        raise ConfigError(f"config file {path!r} not found or empty")
    if cp.defaults():  # its keys would otherwise be named as unknown in every section
        raise ConfigError(f"unknown config section [{cp.default_section}]")
    for section, keys in echo.items():  # a typo is refused, never read as a default
        allowed = _CONFIG_KEYS.get("agent" if section.startswith("agent ") else section)
        if allowed is None:
            raise ConfigError(f"unknown config section [{section}]")
        for key in keys:
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in config section [{section}]")
    if "market" not in cp:
        raise ConfigError("config needs a [market] section")
    try:
        T = cp.getfloat("market", "T")
        lam = cp.getfloat("market", "impact_cost")
        steps = cp.getint("market", "steps")
    except (configparser.NoOptionError, ValueError) as exc:
        raise ConfigError(f"bad [market] section: {exc}") from None
    noise = ZERO
    if "noise" in cp:
        noise = parse_process(cp.get("noise", "process", fallback="zero"))
    agents = []
    for section in cp.sections():
        if not section.startswith("agent "):
            continue
        name = section[len("agent "):].strip()
        try:
            cost_text = cp.get(section, "open_cost", fallback="0")
            open_cost = math.inf if cost_text.strip() in ("inf", "no-access") else float(cost_text)
            agents.append(
                AgentSpec(
                    name=name,
                    mass=cp.getfloat(section, "mass"),
                    risk_tolerance=cp.getfloat(section, "risk_tolerance"),
                    open_cost=open_cost,
                    target=parse_process(cp.get(section, "target", fallback="zero")),
                )
            )
        except (configparser.NoOptionError, ValueError) as exc:
            raise ConfigError(f"bad [{section}] section: {exc}") from None
    return MarketParams(lam, tuple(agents), noise), Horizon.uniform(T, steps), echo


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _outdir(args) -> Path:
    """The output directory, made only once a subcommand has its results.

    Every check and computation runs first, so a run that exits 1 leaves no
    (empty) directory behind.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_liquidation(args) -> None:
    grid = Horizon.uniform(args.T, args.steps).grid
    s = LiquidationScenario(args.impact_cost, args.rho_c, args.rho_d, args.T, args.xi_c, 1)
    one = liquidation_closed_form(s, grid)
    many = liquidation_closed_form(replace(s, n_dealers=INF_DEALERS), grid)
    out = _outdir(args)
    write_csv(
        out / "fig1_strategies.csv",
        ["t", "K_c_M1", "K_c_Minf"],
        row_blocks([grid, one.K_c, many.K_c]),
    )
    write_csv(
        out / "fig1_price.csv",
        ["t", "price_dev_M1", "price_dev_Minf"],
        row_blocks([grid, one.price_dev, many.price_dev]),
    )
    write_json(
        out / "run_meta.json",
        {
            **run_metadata(_scenario_echo(args), None, args.steps),
            "outputs": ["fig1_strategies.csv", "fig1_price.csv"],
        },
    )


def cmd_diffusive(args) -> None:
    require_count("--paths", args.paths, 1)
    one_dealer = DiffusiveScenario(args.impact_cost, args.rho_c, args.rho_d, args.T, n_dealers=1,
                                   sigma_xi=args.sigma_xi, seed=args.seed, steps=args.steps)
    try:
        reg = price_reversion_regression(one_dealer, args.paths, t_max=args.T / 2)
    except ValueError as exc:  # the only input left to fault is a window too short
        raise ConfigError(f"--steps {args.steps} is too coarse: {exc}") from None
    # path 0 depends on (seed, 0) alone: the same path as in the regression's batch
    one = diffusive_simulate(one_dealer, 1)
    many = diffusive_simulate(replace(one_dealer, n_dealers=INF_DEALERS), 1)
    out = _outdir(args)
    write_csv(
        out / "fig2_paths.csv",
        ["t", "xi_c", "K_c_M1", "K_c_Minf"],
        row_blocks([one.grid, one.xi_c[0], one.K_c[0], many.K_c[0]]),
    )
    write_json(
        out / "ou_regression.json",
        {**run_metadata(_scenario_echo(args), args.seed, args.steps), "regression": reg},
    )


def cmd_welfare(args) -> None:
    require_count("--m-max", args.m_max, 1)
    require_count("--m", args.m, 1)
    s = LiquidationScenario(args.impact_cost, args.rho_c, args.rho_d, args.T, args.xi_c, args.m)
    counts = list(range(1, args.m_max + 1))
    curve = [segmentation_welfare(replace(s, n_dealers=m)) for m in counts]
    report = segmentation_welfare(s)
    out = _outdir(args)
    write_csv(
        out / "fig3_welfare.csv",
        ["M", "J_c", "J_c_int"],
        row_blocks([counts, [r.J_c_segmented for r in curve], [r.J_c_integrated for r in curve]]),
    )
    write_json(
        out / "welfare_report.json",
        {**run_metadata(_scenario_echo(args), None, None), "report": asdict(report)},
    )


def _scaling_common(args, demand) -> None:
    require_count("--workers", args.workers, 1)
    require_count("--paths", args.paths, 0)
    lambdas = _parse_lambdas(args.impact_cost)
    report = scaling_study(
        dealers_only_market(lambdas[0], args.rho_d, args.m, demand),
        args.T,
        lambdas,
        n_paths=args.paths,
        seed=args.seed,
        workers=args.workers,
    )
    payload = {**asdict(report), "M": args.m, "rho_d": args.rho_d}
    out = _outdir(args)
    write_json(
        out / "scaling_report.json",
        {**run_metadata(_scenario_echo(args), args.seed, None), "report": payload},
    )
    columns = [report.lambdas, report.means, report.stderrs, report.path_counts, report.steps]
    write_csv(
        out / "scaling_report.csv",
        ["lambda", "mean_cost", "stderr", "paths", "steps"],
        row_blocks(columns),
    )


def cmd_scaling_smooth(args) -> None:
    if args.paths > 0:
        demand = SmoothRate(OrnsteinUhlenbeck(x0=1.0, kappa=1.0, theta=1.0, sigma=0.3))
    else:
        demand = SmoothRate(Constant(1.0))
    _scaling_common(args, demand)


def cmd_scaling_diffusive(args) -> None:
    if args.demand == "ou":
        demand = OrnsteinUhlenbeck(x0=0.0, kappa=2.0, theta=0.0, sigma=1.0)
    else:
        demand = BrownianMartingale(0.0, 1.0)
    _scaling_common(args, demand)


def cmd_oracle_check(args) -> None:
    steps_list = _parse_steps_list(args.steps_list)
    params = segmented_market(args.impact_cost, args.rho_c, args.rho_d, 1, Constant(args.xi_c))
    report = oracle_gap(params, args.T, steps_list)
    if report.fitted_order is not None and not 0.5 <= report.fitted_order <= 1.5:
        raise NumericalError(
            f"discrete oracle convergence order {report.fitted_order:.2f} out of range"
        )
    worst = max(max(v) for v in report.max_gaps.values())
    out = _outdir(args)
    write_json(
        out / "oracle_gap.json",
        {
            **run_metadata(_scenario_echo(args), None, max(steps_list)),
            "report": asdict(report),
            "worst_gap": worst,
        },
    )


def cmd_equilibrium(args) -> None:
    if args.steps is not None:
        require_count("--steps", args.steps, 1)
    params, horizon, echo = load_market_config(args.config)
    if args.steps is not None:
        horizon = Horizon.uniform(horizon.T, args.steps)
    header = ["t", "U_bar", "u_bar", "mu", "price_dev", "K_N", "xi_bar",
              *(f"{q}_{a.name}" for a in params.agents for q in ("K", "U", "u"))]
    for i, name in enumerate(header):  # the agent names must give a well-formed CSV header
        if name in header[:i] or "," in name or '"' in name:
            raise ConfigError(f"equilibrium.csv column {name!r} would repeat or hold ',' or '\"'")
    sol = solve_equilibrium(params, horizon, seed=args.seed)

    def rows():  # one row block per node block of the solution
        for nodes, v in sol.blocks():
            yield [horizon.grid[nodes], sol.U_bar[nodes], sol.u_bar[nodes], v.mu, v.price_dev,
                   sol.noise[nodes], sol.xi_bar[nodes],
                   *(q for a in v.agents.values() for q in (a.K, a.U, a.u))]  # header order

    out = _outdir(args)
    write_csv(out / "equilibrium.csv", header, rows())
    write_json(
        out / "run_meta.json",
        {
            **run_metadata(echo, args.seed, horizon.n_steps),
            "outputs": ["equilibrium.csv"],
            "residuals": sol.residuals,
        },
    )


def _scenario_echo(args) -> dict:
    keys = ["impact_cost", "rho_c", "rho_d", "T", "xi_c", "sigma_xi", "steps", "m", "m_max",
            "paths", "steps_list", "demand"]
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

#: the subcommands in the order they are declared, which sets the usage line
SUBCOMMANDS = ("liquidation", "diffusive", "welfare", "scaling-smooth", "scaling-diffusive",
               "oracle-check", "equilibrium")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI parser: every subcommand, or with ``command`` only that one's flags.

    Both read an argv that starts with ``command`` to the same namespace and text.
    """
    parser = argparse.ArgumentParser(
        prog="dealerlab",
        description="equilibrium liquidity laboratory for competitive dealer markets",
    )
    # one subparser alone would shorten the usage line: spell every name as argparse does
    names = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)

    def add(name, help):  # the subparser of `name`, or None when another one is invoked
        return sub.add_parser(name, help=help) if command in (None, name) else None

    def add_common(p, seed=False):
        p.add_argument("--out", default="out", help="output directory")
        if seed:  # only the subcommands that may draw normals read a seed
            p.add_argument("--seed", type=int, default=0, help="base seed for substreams")

    def add_scenario(p, xi=True):
        p.add_argument("--lambda", dest="impact_cost", type=_finite_float, default=0.1,
                       help="common open-market impact cost")
        p.add_argument("--rho-c", type=_finite_float, default=0.1)
        p.add_argument("--rho-d", type=_finite_float, default=0.1)
        p.add_argument("--T", type=_finite_float, default=1.0)
        if xi:
            p.add_argument("--xi-c", type=_finite_float, default=-1.0, help="client target level")

    if p := add("liquidation", "optimal-liquidation figure data"):
        add_common(p)
        add_scenario(p)
        p.add_argument("--steps", type=int, default=1000)
        p.set_defaults(func=cmd_liquidation)

    if p := add("diffusive", "diffusive-target figure data"):
        add_common(p, seed=True)
        add_scenario(p, xi=False)
        p.add_argument("--sigma-xi", type=_finite_float, default=1.0, help="target volatility")
        p.add_argument("--steps", type=int, default=1000)
        p.add_argument("--paths", type=int, default=4000, help="paths for the OU regression")
        p.set_defaults(func=cmd_diffusive)

    if p := add("welfare", "segmentation welfare study"):
        add_common(p)
        add_scenario(p)
        p.add_argument("--m-max", type=int, default=20, help="dealer counts 1..m_max for the CSV")
        p.add_argument("--m", type=int, default=1, help="dealer count for the JSON report")
        p.set_defaults(func=cmd_welfare)

    for name, fn in (("scaling-smooth", cmd_scaling_smooth),
                     ("scaling-diffusive", cmd_scaling_diffusive)):
        if not (p := add(name, f"{name.split('-')[1]}-demand cost scaling study")):
            continue
        add_common(p, seed=True)
        p.add_argument("--lambda", dest="impact_cost",
                       default="1e-1,1e-2,1e-3,1e-4,1e-5",
                       help="comma list of impact costs")
        p.add_argument("--m", type=int, default=2, help="dealer count")
        p.add_argument("--rho-d", type=_finite_float, default=0.1)
        p.add_argument("--T", type=_finite_float, default=1.0)
        p.add_argument("--paths", type=int,
                       default=0 if name == "scaling-smooth" else 10_000)
        p.add_argument("--workers", type=int, default=1)
        if name == "scaling-diffusive":
            p.add_argument("--demand", choices=["brownian", "ou"], default="brownian")
        else:  # the smooth study's echo holds its demand as null
            p.set_defaults(demand=None)
        p.set_defaults(func=fn)

    if p := add("oracle-check", "discrete-oracle gap report"):
        add_common(p)
        add_scenario(p)
        p.add_argument("--steps-list", default="250,500,1000,2000")
        p.set_defaults(func=cmd_oracle_check)

    if p := add("equilibrium", "solve a market from a config file"):
        add_common(p, seed=True)
        p.add_argument("--config", required=True, help="INI market description")
        p.add_argument("--steps", type=int, default=None, help="override the config grid")
        p.set_defaults(func=cmd_equilibrium)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # NumericalError and ConsistencyError included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
