"""Experiment runner: config ingestion, unit normalization, sweeps, and
the validation battery.

Config files are flat INI-style text with sections [cell], [catalog],
[pricing], [sweep], [simulation]. All physical quantities (MHz, seconds,
MBytes) are mapped to the normalized units the model works in by
:func:`normalize`. ``sweep --format json`` embeds the resulting scheme
and ``optimize`` writes it to stderr, so their numbers stay
reproducible; the other outputs do not carry it.
"""
from __future__ import annotations

import configparser
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .channel import RateModel, prob_high_from_area_ratio
from .demand import FileCatalog, build_catalog
from .errors import POINT_ERRORS, ConfigError, InvalidParameterError, PreconditionError
from .optimizer import (
    CellConfig,
    closed_form_price,
    fixed_point_residuals,
    joint_optimize,
    lower_bound_revenue,
    operating_point,
    optimal_schedule,
    price_validity_floor,
    revenue_gain,
)
from .payoff import (
    PricePair,
    SimulationReport,
    expected_revenue,
    payoff_guarantee_gaps,
    simulate_revenue,
)
from .scheduler import (
    brute_force_best_order,
    popularity_schedule,
    smith_cost,
    smith_schedule,
    suboptimal_schedule,
)

SCHEDULER_VARIANTS = ("optimal", "suboptimal", "none")
_SIZE_HEADROOM = 0.99  # largest normalized file size
MB_TO_BITS = 8e6
_PERMUTATION_FILES = 8  # catalog size of the validation battery
_GRID_POINTS = 10_000  # points of the validation grid searches
_MAX_SWEEP_USERS = 10_000  # user counts a sweep may hold; each is a full simulation

SWEEP_COLUMNS = (
    "N", "W_b_star", "P_b_star", "L", "R_analytic",
    "L0_mc_mean", "L0_mc_stderr", "gain_mc",
    "scheduler_variant", "gamma", "file_count", "error",
)


def _parse_users(text: str) -> tuple[int, ...] | range:
    """Listed counts, or ``start:stop:step`` as an unbuilt range through ``stop``."""
    if ":" not in text:
        return tuple(int(p) for p in text.split(","))
    start, stop, step = (int(p) for p in text.split(":"))
    users = range(start, stop + 1, step)
    return users if step > 0 else ()  # step 0 raised; a negative one counts nothing


def _csv(conv):
    return lambda raw: tuple(conv(x) for x in raw.split(","))


_POSITIVE = ("positive and finite", lambda v: 0 < v < math.inf)  # NaN fails it too


def _key(section, parse=float, default=None, key=None, rule=None):
    """Declare a field read from config key ``[section] key`` (the field
    name unless ``key`` is given) through ``parse``. The key is required
    when ``default`` is None. A ``rule`` is a ``(text, test)`` pair that
    :class:`ExperimentSpec` checks on every construction: a value that
    fails ``test`` is a ConfigError "<key> must be <text>, got <value>"."""
    return field(metadata=dict(section=section, parse=parse, default=default, key=key,
                               rule=rule))


@dataclass(frozen=True)
class ExperimentSpec:
    """Physical-unit description of one experiment.

    Each field declares its ``[section]`` key, parser, default and rule
    once, through :func:`_key`; :func:`load_spec` reads those
    declarations. An empty ``name`` becomes the config file's stem.

    ``theta_samples`` (config key ``[catalog] theta_samples``) is parsed
    and must be positive, but its value is ignored: the delay tolerances
    are computed exactly (see ``demand.aggregate_delay_tolerance``).
    """

    name: str = _key("experiment", str, default="")
    bandwidth_mhz: float = _key("cell", rule=_POSITIVE)
    uc_grant_mhz: float = _key("cell", rule=_POSITIVE)
    interval_minutes: float = _key("cell", rule=_POSITIVE)
    slots_per_interval: int = _key("cell", int, rule=_POSITIVE)
    r_high_bps_hz: float = _key("cell", rule=_POSITIVE)
    r_low_degradation: float = _key("cell", rule=("in [0, 1)", lambda v: 0 <= v < 1))
    area_ratio_low_to_high: float = _key("cell", rule=(">= 0", lambda v: v >= 0))
    bc_cap_fraction: float = _key("cell", default=1.0,
                                  rule=("in (0, 1]", lambda v: 0 < v <= 1))
    file_count: int = _key("catalog", int, rule=_POSITIVE)
    zipf_exponent: float = _key("catalog", rule=_POSITIVE)
    size_min_mb: float = _key("catalog", rule=_POSITIVE)
    size_max_mb: float = _key("catalog", rule=_POSITIVE)
    theta_min_s: float = _key("catalog", rule=_POSITIVE)
    theta_max_s: float = _key("catalog", rule=_POSITIVE)
    theta_samples: int = _key("catalog", int, default=100_000, rule=_POSITIVE)
    unicast_price: float = _key("pricing", rule=_POSITIVE)
    sweep_users: tuple[int, ...] = _key(
        "sweep", _parse_users, key="users",
        rule=(f"a non-empty list of at most {_MAX_SWEEP_USERS} counts >= 0",
              # sliced, not len(): a range past sys.maxsize has no len
              lambda v: v and not v[_MAX_SWEEP_USERS:] and min(v) >= 0))
    schedulers: tuple[str, ...] = _key(
        "sweep", lambda raw: tuple(s.strip() for s in raw.split(",") if s.strip()),
        default=("suboptimal",),
        rule=(f"a non-empty list of {SCHEDULER_VARIANTS}",
              lambda v: v and set(v) <= set(SCHEDULER_VARIANTS)))
    zipf_variants: tuple[float, ...] = _key(
        "sweep", _csv(float), default=(), key="zipf_exponents",
        rule=("a list of positive, finite exponents", lambda v: all(map(_POSITIVE[1], v))))
    file_count_variants: tuple[int, ...] = _key(
        "sweep", _csv(int), default=(), key="file_counts",
        rule=("a list of counts >= 1", lambda v: all(m >= 1 for m in v)))
    trials: int = _key("simulation", int, rule=_POSITIVE)
    seed: int = _key("simulation", int, rule=(">= 0", lambda v: v >= 0))

    def __post_init__(self):
        for f in fields(self):
            rule, value = f.metadata["rule"], getattr(self, f.name)
            if rule and not rule[1](value):
                raise ConfigError(f"{f.metadata['key'] or f.name} must be {rule[0]}, "
                                  f"got {value}")
        if self.size_min_mb > self.size_max_mb:
            raise ConfigError("size_min_mb must not exceed size_max_mb")
        if self.theta_min_s > self.theta_max_s:
            raise ConfigError("theta_min_s must not exceed theta_max_s")
        object.__setattr__(self, "sweep_users", tuple(sorted(set(self.sweep_users))))

    @property
    def r_low_bps_hz(self) -> float:
        """The low-region rate: ``r_high_bps_hz`` degraded by ``r_low_degradation``."""
        return self.r_high_bps_hz * (1.0 - self.r_low_degradation)


def load_spec(path: str) -> ExperimentSpec:
    """Parse an experiment config file; raises ConfigError on problems,
    among them a key that no :class:`ExperimentSpec` field declares."""
    try:
        return _read_spec(path)
    except configparser.Error as exc:
        detail = " ".join(str(exc).splitlines())
        raise ConfigError(f"cannot parse config file {path!r}: {detail}") from exc


def _read_spec(path: str) -> ExperimentSpec:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8-sig")  # drops a leading byte-order mark
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode config file {path!r} as UTF-8: "
                          f"{exc.reason} at byte {exc.start}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    def get(section, key, conv, default=None):
        try:
            raw = parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if default is not None:
                return default
            raise ConfigError(f"missing [{section}] {key} in {path!r}") from None
        try:
            return conv(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    declared = {(f.metadata["section"], f.metadata["key"] or f.name): f
                for f in fields(ExperimentSpec)}
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in declared:
                raise ConfigError(f"unknown key [{section}] {key} in {path!r}")

    values = {f.name: get(*where, f.metadata["parse"], f.metadata["default"])
              for where, f in declared.items()}
    if not values["name"]:
        values["name"] = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]  # the file's stem
    return ExperimentSpec(**values)


@dataclass(frozen=True)
class NormalizationScheme:
    """Documented mapping from physical units to model units.

    One frequency unit is the average unicast grant; one slot is the
    interval length divided by the slot count; the size unit puts the
    largest catalog file at 0.99. Rates convert to size-units delivered
    per slot per frequency unit, so size/rate is a download time in
    slots and delay thresholds are expressed in slots as well.
    """

    frequency_unit_mhz: float
    slot_seconds: float
    slots_per_interval: int
    size_unit_mb: float
    rate_scale: float
    normalized_bandwidth: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _scheme_for(spec: ExperimentSpec) -> NormalizationScheme:
    slot_seconds = spec.interval_minutes * 60.0 / spec.slots_per_interval
    size_unit_mb = spec.size_max_mb / _SIZE_HEADROOM
    rate_scale = spec.uc_grant_mhz * 1e6 * slot_seconds / (size_unit_mb * MB_TO_BITS)
    return NormalizationScheme(
        frequency_unit_mhz=spec.uc_grant_mhz,
        slot_seconds=slot_seconds,
        slots_per_interval=spec.slots_per_interval,
        size_unit_mb=size_unit_mb,
        rate_scale=rate_scale,
        normalized_bandwidth=spec.bandwidth_mhz / spec.uc_grant_mhz,
    )


def normalize(spec: ExperimentSpec) -> tuple[FileCatalog, CellConfig, NormalizationScheme]:
    """Build the normalized catalog and cell for a spec. A sweep variant is
    the spec with its ``zipf_exponent`` and ``file_count`` replaced.

    Deterministic for a fixed spec seed: the file sizes are drawn from a
    seed stream derived from it, and the delay tolerances are exact
    functions of the sizes and the rate model. The catalog alone holds
    that model; the bound and the simulator read it there. The returned
    cell has ``n_users=0``; sweeps substitute each user count via
    ``dataclasses.replace``.
    """
    m = spec.file_count
    scheme = _scheme_for(spec)

    size_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xF11E5, m]))
    sizes_mb = size_rng.uniform(spec.size_min_mb, spec.size_max_mb, size=m)
    sizes = sizes_mb / scheme.size_unit_mb

    rate_model = RateModel(r_high=spec.r_high_bps_hz, r_low=spec.r_low_bps_hz,
                           prob_high=prob_high_from_area_ratio(spec.area_ratio_low_to_high))
    try:
        catalog = build_catalog(spec.zipf_exponent, sizes=sizes,
                                delay_lo=spec.theta_min_s / scheme.slot_seconds,
                                delay_hi=spec.theta_max_s / scheme.slot_seconds,
                                rate_model=rate_model.scaled(scheme.rate_scale))
    except PreconditionError as exc:
        raise ConfigError("normalized parameters violate the delay-sensitivity "
                          f"condition: {exc}") from exc
    except InvalidParameterError as exc:  # e.g. an exponent whose i^-γ underflows to 0
        raise ConfigError(str(exc)) from exc

    cell = CellConfig(
        bandwidth=scheme.normalized_bandwidth,
        slots=spec.slots_per_interval,
        n_users=0,
        price_unicast=spec.unicast_price,
        bc_cap_fraction=spec.bc_cap_fraction,
    )
    return catalog, cell, scheme


def variant_schedule(variant: str, catalog: FileCatalog, cell: CellConfig):
    """The broadcast schedule a scheduler variant builds for the cell."""
    if variant == "suboptimal":
        return suboptimal_schedule(catalog, cell.price_unicast)
    if variant == "none":
        return popularity_schedule(catalog)
    if variant == "optimal":
        return optimal_schedule(catalog, cell)
    raise ConfigError(f"unknown scheduler variant {variant!r}")


def evaluate_point(spec: ExperimentSpec, catalog: FileCatalog, cell: CellConfig,
                   variant: str) -> tuple[dict, SimulationReport]:
    """One (variant, N = ``cell.n_users``) point of ``spec``, whose
    ``normalize`` gave ``catalog`` and ``cell``: the variant's schedule,
    its operating point (Wb*, Pb*), the analytic bound and gain there, and
    ``spec.trials`` simulated trials from ``SeedSequence([seed,
    round(γ·1e6), M, N])``. The seed does not depend on the variant, so
    variants see identical draws and compare pairwise. Returns the sweep
    row's numeric fields and the simulation report. The row's
    ``payoff_guarantee_violations`` (JSON only) counts the classes whose
    ``payoff_guarantee_gaps`` are < 0, the exact check ``validate`` runs."""
    schedule = variant_schedule(variant, catalog, cell)
    bandwidth, price, _ = operating_point(catalog, cell, schedule)
    prices = PricePair(cell.price_unicast, price)
    row = dict(W_b_star=bandwidth, P_b_star=price,
               L=lower_bound_revenue(catalog, cell, price, bandwidth, schedule),
               R_analytic=revenue_gain(catalog, cell, schedule))
    seed = np.random.SeedSequence(
        [spec.seed, int(round(spec.zipf_exponent * 1e6)), spec.file_count, cell.n_users])
    report = simulate_revenue(catalog, cell, prices, bandwidth, schedule,
                              trials=spec.trials, seed=seed)
    gaps = payoff_guarantee_gaps(catalog, prices, bandwidth, schedule)
    return dict(row, L0_mc_mean=report.revenue_mean, L0_mc_stderr=report.revenue_stderr,
                gain_mc=report.revenue_mean / cell.uc_only_revenue,
                payoff_guarantee_violations=int(np.count_nonzero(gaps < 0))), report


def csv_text(columns, rows) -> str:
    """The CLI's CSV: a header line of ``columns``, then one comma-joined
    line per row, floats (numpy's too) at 12 significant digits and any
    other value as ``str``."""
    lines = [",".join(columns)]
    lines += [",".join(f"{value:.12g}" if isinstance(value, float) else str(value)
                       for value in row) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass
class SweepResult:
    """Long-format sweep output, one row per (variant, N)."""

    spec_name: str
    scheme: NormalizationScheme
    rows: list[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        # an error row has no numeric fields; their cells stay empty
        return csv_text(SWEEP_COLUMNS, ([row.get(col, "") for col in SWEEP_COLUMNS]
                                        for row in self.rows))

    def to_json(self) -> str:
        return json.dumps(
            {"experiment": self.spec_name, "normalization": asdict(self.scheme),
             "rows": self.rows},
            indent=2,
        )

    def column(self, name: str, **filters):
        """Values of one column over rows matching the filters, ordered by N."""
        rows = [r for r in self.rows
                if all(r.get(k) == v for k, v in filters.items()) and not r.get("error")]
        return [r[name] for r in sorted(rows, key=lambda r: r["N"])]


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """Sweep user counts (and any γ / catalog-size variants): one
    :func:`evaluate_point` row per (variant, N) on the catalog normalized
    once per (γ, M). A point that fails with one of the package's domain
    errors is recorded in the error column and the sweep continues; any
    other exception propagates."""
    gammas = tuple(dict.fromkeys((spec.zipf_exponent,) + spec.zipf_variants))
    counts = tuple(dict.fromkeys((spec.file_count,) + spec.file_count_variants))
    variants = tuple(dict.fromkeys(spec.schedulers))
    result = SweepResult(spec_name=spec.name, scheme=_scheme_for(spec))

    for gamma, m in itertools.product(gammas, counts):
        point_spec = replace(spec, zipf_exponent=gamma, file_count=m)
        catalog, base_cell, _ = normalize(point_spec)
        for variant, n in itertools.product(variants, spec.sweep_users):
            row = dict(N=n, scheduler_variant=variant, gamma=gamma, file_count=m, error="")
            try:
                cell = replace(base_cell, n_users=n)
                row.update(evaluate_point(point_spec, catalog, cell, variant)[0])
            except POINT_ERRORS as exc:  # recorded, sweep continues
                row["error"] = f"{type(exc).__name__}: {exc}"
            result.rows.append(row)
    return result


@dataclass
class ValidationReport:
    """Outcome of the oracle battery: one PASS/FAIL/SKIPPED entry per check."""

    spec_name: str
    entries: list[dict] = field(default_factory=list)

    def add(self, check: str, status: str, detail: str):
        self.entries.append({"check": check, "status": status, "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(e["status"] != "FAIL" for e in self.entries)

    def to_text(self) -> str:
        lines = [f"validation report: {self.spec_name}"]
        for e in self.entries:
            lines.append(f"  [{e['status']:7s}] {e['check']}: {e['detail']}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"experiment": self.spec_name, "entries": self.entries}, indent=2)


def _grid_check(report: ValidationReport, check: str, closed_form: float, bound_on,
                lo: float, hi: float):
    """Add a PASS/FAIL entry: ``closed_form`` against the argmax of
    ``bound_on`` over an even grid on [lo, hi], within two grid steps plus
    5% of the argmax."""
    grid = np.linspace(lo, hi, _GRID_POINTS)
    argmax = float(grid[int(np.argmax(bound_on(grid)))])
    step = (hi - lo) / (_GRID_POINTS - 1)
    tol = 2 * step + 0.05 * abs(argmax)
    delta = abs(closed_form - argmax)
    report.add(
        check,
        "PASS" if delta <= tol else "FAIL",
        f"closed form {closed_form:.6g} vs grid argmax {argmax:.6g} "
        f"(|delta|={delta:.3g}, tolerance={tol:.3g})",
    )


def run_validation(spec: ExperimentSpec) -> ValidationReport:
    """Oracle battery: brute-force scheduling, grid-search optima,
    fixed-point residuals, the bound against expected revenue, and the
    payoff guarantee.

    Check 4 compares the bound with E[R] from ``payoff.expected_revenue``:
    the exact E[Y] plus a residual sampled only from the users who can
    still be granted unicast, with 3 standard errors of slack; a certified
    point draws nothing and its standard error is 0. Check 5 is exact and
    draws nothing: ``payoff.payoff_guarantee_gaps`` evaluates each eligible
    (rate, file) class's worst eligible user, and a negative gap FAILs.

    A check whose result misses its oracle is a FAIL entry with the
    measured deltas. A computation the model cannot carry out raises
    instead: a ConfigError from ``normalize`` or a PayoffDomainError from
    the domain check of check 4 or 5. ``joint_optimize`` always ends.
    """
    report = ValidationReport(spec_name=spec.name)

    small = replace(spec, file_count=min(spec.file_count, _PERMUTATION_FILES))
    catalog, cell0, _ = normalize(small)
    # The config's own catalog, so validate rejects what the other commands
    # reject; built second, because bench/child.py checks the first one built.
    normalize(spec)
    n_ref = spec.sweep_users[-1] or 10
    cell = replace(cell0, n_users=n_ref)

    # 1. Smith order vs exhaustive permutation search.
    floor = price_validity_floor(catalog, cell)
    pb = max(0.75 * cell.price_unicast, floor)
    smith = smith_schedule(catalog, cell.price_unicast, pb)
    smith_value = smith_cost(smith.order, catalog, cell.price_unicast, pb)
    _, best_value = brute_force_best_order(catalog, cell.price_unicast, pb)
    if smith_value <= best_value + 1e-12:
        report.add("smith_vs_bruteforce", "PASS",
                   f"cost {smith_value:.9g} equals exhaustive minimum over "
                   f"{catalog.size}! orders")
    else:
        report.add("smith_vs_bruteforce", "FAIL",
                   f"smith {smith_value:.9g} > brute force {best_value:.9g}")

    # 2. Closed-form operating point vs 1-D grid argmax of the bound. The
    #    raw closed-form price is structurally confined to [Pu/2, Pu];
    #    compare it against the bound's argmax over [floor, Pu].
    sched = suboptimal_schedule(catalog, cell.price_unicast)
    bandwidth, price, moment = operating_point(catalog, cell, sched)
    raw_price = closed_form_price(catalog, cell, moment)
    _grid_check(report, "closed_form_bandwidth_vs_grid", bandwidth,
                lambda w: lower_bound_revenue(catalog, cell, price, w, sched),
                cell.bc_cap / _GRID_POINTS, cell.bc_cap)
    _grid_check(report, "closed_form_price_vs_grid", raw_price,
                lambda p: lower_bound_revenue(catalog, cell, p, bandwidth, sched),
                floor, cell.price_unicast)

    # 3. Joint fixed-point consistency.
    opt = joint_optimize(catalog, cell)
    res_w, res_p = fixed_point_residuals(catalog, cell, opt)
    if max(res_w, res_p) <= 1e-9:
        report.add("fixed_point_consistency", "PASS",
                   f"residuals ({res_w:.2e}, {res_p:.2e}) within 1e-9")
    else:
        report.add("fixed_point_consistency", "FAIL",
                   f"residuals ({res_w:.2e}, {res_p:.2e}) exceed 1e-9")

    # 4. Expected revenue vs the analytic bound, at the raw closed-form
    #    price (skipped when the bound hypothesis fails there; check 5 then
    #    takes the floored price).
    try:
        bound = lower_bound_revenue(catalog, cell, raw_price, bandwidth, sched)
    except PreconditionError:
        bound = None
    prices = PricePair(cell.price_unicast, price if bound is None else raw_price)
    if bound is None:
        excess = (cell.price_unicast - raw_price) * catalog.sizes.max()
        report.add(
            "lower_bound_mc", "SKIPPED",
            f"(Pu - Pb) * max f = {excess:.4g} >= 1 at the "
            f"closed-form price {raw_price:.4g}; bound undefined there",
        )
    else:
        est = expected_revenue(catalog, cell, prices, bandwidth, sched,
                               trials=max(400, min(spec.trials, 2000)),
                               seed=np.random.SeedSequence([spec.seed, 0xA11D]))
        slack = est.revenue_mean + 3.0 * est.residual_stderr - bound
        report.add(
            "lower_bound_mc",
            "PASS" if slack >= 0 else "FAIL",
            f"E[R] {est.revenue_mean:.6g} = exact E[Y] {est.expected_y:.6g} + residual "
            f"{est.residual_mean:.4g} (se {est.residual_stderr:.2g}, {est.files_visited} "
            f"files sampled) vs bound {bound:.6g} (slack {slack:.4g} at +3se)",
        )

    # 5. Policy payoff guarantee, exact: each eligible class's worst user.
    gaps = payoff_guarantee_gaps(catalog, prices, bandwidth, sched)
    broken = int(np.count_nonzero(gaps < 0))
    smallest = f"; smallest gap {gaps.min():.4g}" if gaps.size else ""
    report.add(
        "payoff_guarantee",
        "FAIL" if broken else "PASS",
        f"{broken} of {gaps.size} eligible (rate, file) classes below their unicast "
        f"payoff at the marginal threshold{smallest}",
    )
    return report
