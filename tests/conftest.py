import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bcastopt.channel import RateModel
from bcastopt.demand import FileCatalog, build_catalog, zipf_pmf
from bcastopt.optimizer import CellConfig

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


# A six-file cell small enough for end-to-end CLI runs.
SMALL_CONFIG = """
[experiment]
name = small

[cell]
bandwidth_mhz = 10
uc_grant_mhz = 2.5
interval_minutes = 2
slots_per_interval = 3
r_high_bps_hz = 2.4
r_low_degradation = 0.45
area_ratio_low_to_high = 9
bc_cap_fraction = 0.6

[catalog]
file_count = 6
zipf_exponent = 1.0
size_min_mb = 160
size_max_mb = 634
theta_min_s = 0.6
theta_max_s = 6.0
theta_samples = 2000

[pricing]
unicast_price = 2.6

[sweep]
users = 0,5,10
schedulers = suboptimal

[simulation]
trials = 30
seed = 7
"""


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def point_rate(rate: float = 1.0) -> RateModel:
    """Degenerate single-region model: every user sees the same rate."""
    return RateModel(r_high=rate, r_low=rate, prob_high=1.0)


def catalog_from(sizes, popularity, theta, rate_model=None, delay_lo=None, delay_hi=None):
    """Hand-crafted catalog for analytic tests.

    The aggregate tolerances are taken as given; callers are trusted to
    keep them consistent with the threshold bounds, which default to a
    point mass recovering ``theta`` only loosely.
    """
    if rate_model is None:
        rate_model = point_rate(1.0)
    if delay_lo is None or delay_hi is None:
        # Point mass consistent with theta under a single-rate model:
        # theta = 1/(f - r*t)  =>  t = (f - 1/theta)/r.
        t = (np.asarray(sizes, dtype=np.float64)
             - 1.0 / np.asarray(theta, dtype=np.float64)) / rate_model.r_high
        delay_lo = delay_hi = np.maximum(t, 1e-12)
    return FileCatalog(sizes=sizes, popularity=popularity, theta=theta,
                       delay_lo=delay_lo, delay_hi=delay_hi, rate_model=rate_model)


def record_results(monkeypatch, module, name) -> list:
    """Wrap ``module.<name>`` so each call's result is appended to the
    returned list."""
    real, results = getattr(module, name), []

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


def traced_peak(run) -> int:
    """Bytes ``run()`` allocates at its peak above what was live before it,
    as tracemalloc counts them (numpy reports its array buffers)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def random_instance(rng, m_lo=3, m_hi=8, f_lo=0.05, f_hi=0.5):
    """Random small catalog + cell in the regime where every formula is
    well defined (delay-sensitive draws, bound hypothesis satisfiable)."""
    m = int(rng.integers(m_lo, m_hi + 1))
    sizes = rng.uniform(f_lo, f_hi, size=m)
    gamma = float(rng.uniform(0.4, 1.6))
    pu = float(rng.uniform(1.5, 3.0))
    delay_lo, delay_hi = 0.1, 0.4
    # keep size/rate > threshold + 1 with margin even at the high rate
    r_low = float(sizes.min()) / (delay_hi + 1.0) / rng.uniform(2.0, 6.0)
    rate_model = RateModel(r_high=1.4 * r_low, r_low=r_low, prob_high=0.3)
    rng.integers(2**31)  # unused draw; keeps the stream, so every instance, fixed
    catalog = build_catalog(
        gamma,
        sizes=sizes,
        delay_lo=delay_lo,
        delay_hi=delay_hi,
        rate_model=rate_model,
    )
    cell = CellConfig(
        bandwidth=float(rng.uniform(2.0, 20.0)),
        slots=int(rng.integers(5, 120)),
        n_users=int(rng.integers(5, 400)),
        price_unicast=pu,
        bc_cap_fraction=float(rng.uniform(0.4, 1.0)),
    )
    return catalog, cell


def high_pressure_instances(seed, count):
    """Random catalogs of 3-40 files at 10-10^5 users and 1-29 slots,
    where the implied broadcast price often exceeds Pu."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        catalog, cell = random_instance(rng, m_lo=3, m_hi=40)
        n_users = int(10 ** rng.uniform(1, 5))
        slots = int(rng.integers(1, 30))
        yield catalog, replace(cell, n_users=n_users, slots=slots)


@pytest.fixture(scope="session")
def single_cell_spec():
    from bcastopt.scenario import load_spec

    return load_spec(str(CONFIG_DIR / "single_cell.cfg"))


@pytest.fixture(scope="session")
def seven_cell_spec():
    from bcastopt.scenario import load_spec

    return load_spec(str(CONFIG_DIR / "seven_cell.cfg"))


@pytest.fixture(scope="session")
def single_cell_setup(single_cell_spec):
    from bcastopt.scenario import normalize

    return normalize(single_cell_spec)


@pytest.fixture(scope="session")
def seven_cell_setup(seven_cell_spec):
    from bcastopt.scenario import normalize

    return normalize(seven_cell_spec)


@pytest.fixture(scope="session")
def seven_cell_terminal_point(seven_cell_spec, seven_cell_setup):
    """The seven-cell sweep's last point (N = 1400) as ``bcastopt simulate``
    evaluates it: the cell, the sweep row and the simulation report."""
    from bcastopt.scenario import evaluate_point

    catalog, cell, _ = seven_cell_setup
    cell = replace(cell, n_users=seven_cell_spec.sweep_users[-1])
    row, report = evaluate_point(seven_cell_spec, catalog, cell)
    return cell, row, report
