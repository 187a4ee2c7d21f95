"""Correctness checks on the CLI outputs, independent of the bcastopt code.

Everything here is recomputed from the config file, the catalog the run
built, and the model's documented formulas: the revenue bound, the
closed-form operating point, the closed-form ("suboptimal") queue order and
the service-selection policy. Nothing is compared with a stored copy of an
earlier output. Checks report problems as lists of messages; an empty list
passes.
"""
from __future__ import annotations

import configparser
import math
import re

import numpy as np

VALIDATION_CHECKS = (
    "smith_vs_bruteforce",
    "closed_form_bandwidth_vs_grid",
    "closed_form_price_vs_grid",
    "fixed_point_consistency",
    "lower_bound_mc",
    "payoff_guarantee",
)
GRID_POINTS = 10_000          # grid of the validation battery's argmax searches
VALIDITY_MARGIN = 1e-6        # the bound needs (Pu - Pb) * f < 1 - margin
REPORTED_REL = 1e-5           # validation details print 6 significant digits


def config_facts(path) -> dict:
    """The config values the checks need, in model units."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise FileNotFoundError(path)
    users = cp.get("sweep", "users").strip()
    if ":" in users:
        start, stop, step = (int(x) for x in users.split(":"))
        users = tuple(range(start, stop + 1, step))
    else:
        users = tuple(int(x) for x in users.split(","))
    return {
        "W": cp.getfloat("cell", "bandwidth_mhz") / cp.getfloat("cell", "uc_grant_mhz"),
        "T": cp.getint("cell", "slots_per_interval"),
        "Pu": cp.getfloat("pricing", "unicast_price"),
        "cap_fraction": cp.getfloat("cell", "bc_cap_fraction", fallback=1.0),
        "users": users,
        "trials": cp.getint("simulation", "trials"),
    }


def catalog_record(catalog) -> dict:
    """JSON-ready arrays of a ``bcastopt`` catalog, as the checks read them."""
    rm = catalog.rate_model
    return {
        "sizes": catalog.sizes.tolist(), "popularity": catalog.popularity.tolist(),
        "theta": catalog.theta.tolist(), "delay_lo": catalog.delay_lo.tolist(),
        "delay_hi": catalog.delay_hi.tolist(),
        "r_high": rm.r_high, "r_low": rm.r_low, "prob_high": rm.prob_high,
    }


def catalog_arrays(record) -> dict:
    return {k: np.asarray(v) if isinstance(v, list) else v for k, v in record.items()}


def _close(a, b, rel, abs_=0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------- model

def suboptimal_completion(cat, pu) -> np.ndarray:
    """Completion sizes s_i of the closed-form order: files sorted by
    theta * p * (1 - Pu f / 2), descending, ties by index."""
    w = cat["theta"] * cat["popularity"] * (1.0 - pu * cat["sizes"] / 2.0)
    order = np.argsort(-w, kind="stable")
    s = np.empty_like(cat["sizes"])
    s[order] = np.cumsum(cat["sizes"][order])
    return s


def bound(cat, facts, n, s, price, bandwidth):
    """Revenue lower bound; ``price`` or ``bandwidth`` may be an array."""
    f, p, theta = cat["sizes"], cat["popularity"], cat["theta"]
    r_u = cat["r_low"] + (cat["r_high"] - cat["r_low"]) * cat["prob_high"]
    price = np.asarray(price, dtype=float)[..., None]
    bandwidth = np.asarray(bandwidth, dtype=float)[..., None]
    load = s * theta * r_u / (bandwidth * cat["r_low"])
    bracket = 1.0 - load * (1.0 - (facts["Pu"] - price) * f)
    bc = price[..., 0] * n * (f * p * bracket).sum(axis=-1)
    return bc + facts["Pu"] * (facts["W"] - bandwidth[..., 0]) * facts["T"]


def price_floor(cat, pu) -> float:
    """Lowest price at which the bound is defined: (Pu - Pb) * max f < 1."""
    return max(0.0, pu - (1.0 - VALIDITY_MARGIN) / cat["sizes"].max())


def closed_form_point(cat, facts, n, s):
    """(bandwidth, raw closed-form price, floored price) at ``n`` users."""
    f, p, theta = cat["sizes"], cat["popularity"], cat["theta"]
    pu, t = facts["Pu"], facts["T"]
    r_u = cat["r_low"] + (cat["r_high"] - cat["r_low"]) * cat["prob_high"]
    mean_size = float(f @ p)
    moment = float(s @ (theta * f * p))
    bandwidth = min(n * mean_size / (4.0 * pu * t), facts["cap_fraction"] * facts["W"])
    raw = min(0.5 * (n * cat["r_low"] * mean_size ** 2 / (4.0 * pu * t * r_u * moment) + pu), pu)
    return bandwidth, raw, min(pu, max(raw, price_floor(cat, pu)))


def policy_revenue(cat, s, facts, n, price, bandwidth, trials, seed, chunk=500):
    """Monte Carlo revenue of the documented selection policy.

    Users are served in popularity order. A user is given unicast while
    their demand ceil(f / r) fits in what is left of the (W - Wb) * T pool;
    otherwise broadcast if their broadcast payoff (at the low-region plan
    rate) is at least their unicast payoff, else nothing. Revenue is the
    fixed unicast term plus Pb times the broadcast file sizes. Trials run
    in batches, one user position at a time across the batch.
    Returns (mean, standard error).
    """
    rng = np.random.default_rng(seed)
    f_all, pu = cat["sizes"], facts["Pu"]
    rank = np.argsort(-cat["popularity"], kind="stable")
    position = np.empty_like(rank)
    position[rank] = np.arange(len(rank))
    pool = (facts["W"] - bandwidth) * facts["T"]
    revenues = []
    for start in range(0, trials, chunk):
        k = min(chunk, trials - start)
        files = rng.choice(len(f_all), size=(k, n), p=cat["popularity"])
        files = rank[np.sort(position[files], axis=1)].T.copy()   # (user, trial)
        f = f_all[files]
        rate = np.where(rng.random(files.shape) < cat["prob_high"], cat["r_high"], cat["r_low"])
        thr = rng.uniform(cat["delay_lo"][files], cat["delay_hi"][files])
        uc = np.log((1.0 + f) / (f / rate - thr)) - pu * f
        bc = np.log((1.0 + f) / (s[files] / (bandwidth * cat["r_low"]) - thr)) - price * f
        broadcast_if_refused = np.where(bc >= uc, f, 0.0)
        demand = np.ceil(f / rate)
        left = np.full(k, pool)
        broadcast = np.zeros(k)
        for j in range(n):
            fits = demand[j] <= left
            left -= np.where(fits, demand[j], 0.0)
            broadcast += np.where(fits, 0.0, broadcast_if_refused[j])
        revenues.append(pu * pool + price * broadcast)
    r = np.concatenate(revenues)
    return float(r.mean()), float(r.std(ddof=1) / math.sqrt(trials))


# ---------------------------------------------------------------- sweep

def check_sweep(rows, facts) -> tuple[dict, list]:
    """(problems per configured user count, problems with the output as a
    whole). A missing row is a problem of its user count."""
    pu, w, t = facts["Pu"], facts["W"], facts["T"]
    cap = facts["cap_fraction"] * w
    problems = {n: [] for n in facts["users"]}
    by_n, report = {}, []
    for row in rows:
        n = row.get("N")
        if n not in problems:
            report.append(f"row for unconfigured N={n!r}")
            continue
        if n in by_n:
            problems[n].append("duplicate row")
        by_n[n] = row
    for n in problems:
        if n not in by_n:
            problems[n].append("missing row")
    rows = [by_n[n] for n in sorted(by_n) if not by_n[n].get("error")]
    for n, row in by_n.items():
        if row.get("error"):
            problems[n].append(f"error: {row['error']}")
    uncapped = [r["W_b_star"] / r["N"] for r in rows if r["W_b_star"] < cap * (1 - 1e-12)]
    slope = float(np.median(uncapped)) if uncapped else None
    for row in rows:
        n, wb, pb = row["N"], row["W_b_star"], row["P_b_star"]
        mean, se = row["L0_mc_mean"], row["L0_mc_stderr"]
        bad = problems[n]
        if not _close(row["gain_mc"], mean / (pu * w * t), 1e-12):
            bad.append(f"gain_mc {row['gain_mc']} != L0_mc_mean / (Pu W T)")
        uc = pu * (w - wb) * t
        if not (uc - 1e-9 * abs(uc) <= mean <= uc + pb * n + 1e-9 * abs(uc)):
            bad.append(f"L0_mc_mean {mean} outside [{uc}, {uc + pb * n}]")
        if wb < cap * (1 - 1e-12):
            if not _close(wb / n, slope, 1e-9):
                bad.append(f"W_b_star {wb} off the line {slope} * N")
        elif not _close(wb, cap, 1e-12) or (slope is not None and slope * n < cap * (1 - 1e-9)):
            bad.append(f"W_b_star {wb} at the cap {cap} below the line's crossing")
        if not (pu / 2 * (1 - 1e-12) <= pb <= pu * (1 + 1e-12)):
            bad.append(f"P_b_star {pb} outside [Pu/2, Pu]")
        if mean < row["L"] - 3.0 * se:
            bad.append(f"L0_mc_mean {mean} below L - 3 se = {row['L'] - 3.0 * se}")
        if row.get("payoff_guarantee_violations") != 0:
            bad.append(f"payoff-guarantee violations: {row.get('payoff_guarantee_violations')}")
    return problems, report


def check_policy_point(row, cat, facts, seed, trials) -> list:
    """Agreement of a row's simulated revenue with :func:`policy_revenue`
    within four combined standard errors."""
    s = suboptimal_completion(cat, facts["Pu"])
    mean, se = policy_revenue(cat, s, facts, row["N"], row["P_b_star"], row["W_b_star"],
                              trials, seed)
    limit = 4.0 * math.hypot(se, row["L0_mc_stderr"])
    if abs(mean - row["L0_mc_mean"]) > limit:
        return [f"N={row['N']}: L0_mc_mean {row['L0_mc_mean']} vs policy "
                f"simulation {mean} (limit {limit})"]
    return []


# ---------------------------------------------------------------- validate

def _numbers(pattern, detail):
    m = re.search(pattern, detail)
    return tuple(float(x) for x in m.groups()) if m else None


def _grid_check(entry, closed_form, grid, values, step):
    """Reported closed form, grid argmax and verdict against the recomputed ones."""
    argmax = float(grid[int(np.argmax(values))])
    verdict = "PASS" if abs(closed_form - argmax) <= 2 * step + 0.05 * abs(argmax) else "FAIL"
    got = _numbers(r"closed form (\S+) vs grid argmax (\S+) ", entry["detail"])
    if got is None:
        return [f"unparsable detail {entry['detail']!r}"]
    bad = []
    if not _close(got[0], closed_form, REPORTED_REL, 1e-12):
        bad.append(f"closed form {got[0]} != recomputed {closed_form}")
    if abs(got[1] - argmax) > step + REPORTED_REL * abs(argmax):
        bad.append(f"grid argmax {got[1]} != recomputed {argmax}")
    if entry["status"] != verdict:
        bad.append(f"verdict {entry['status']} != recomputed {verdict}")
    return bad


def check_validation(entries, exit_code, cat, facts) -> tuple[dict, list]:
    """(problems per expected check, problems with the report as a whole)."""
    by_name = {}
    for e in entries:
        by_name.setdefault(e["check"], []).append(e)
    report = []
    if len(entries) != len(VALIDATION_CHECKS):
        report.append(f"{len(entries)} entries, expected {len(VALIDATION_CHECKS)}")
    expected_rc = 2 if any(e["status"] == "FAIL" for e in entries) else 0
    if exit_code != expected_rc:
        report.append(f"exit code {exit_code}, expected {expected_rc}")

    n = max(facts["users"]) if max(facts["users"]) > 0 else 10
    pu, cap = facts["Pu"], facts["cap_fraction"] * facts["W"]
    s = suboptimal_completion(cat, facts["Pu"])
    bandwidth, raw_price, price = closed_form_point(cat, facts, n, s)
    w_grid = np.linspace(cap / GRID_POINTS, cap, GRID_POINTS)
    p_lo = max(pu / 2.0, price_floor(cat, pu))
    p_grid = np.linspace(p_lo, pu, GRID_POINTS)

    problems = {}
    for name in VALIDATION_CHECKS:
        found = by_name.get(name, [])
        if len(found) != 1:
            problems[name] = [f"{len(found)} entries"]
            continue
        e = found[0]
        if name in ("smith_vs_bruteforce", "fixed_point_consistency", "payoff_guarantee"):
            problems[name] = [] if e["status"] == "PASS" else [f"status {e['status']}"]
        elif name == "closed_form_bandwidth_vs_grid":
            problems[name] = _grid_check(e, bandwidth, w_grid,
                                         bound(cat, facts, n, s, price, w_grid),
                                         cap / GRID_POINTS)
        elif name == "closed_form_price_vs_grid":
            problems[name] = _grid_check(e, raw_price, p_grid,
                                         bound(cat, facts, n, s, p_grid, bandwidth),
                                         (pu - p_lo) / (GRID_POINTS - 1))
        else:  # lower_bound_mc: skipped exactly when the bound is undefined
            undefined = (pu - raw_price) * cat["sizes"].max() >= 1.0
            got = _numbers(r"vs bound (\S+) ", e["detail"])
            if undefined:
                problems[name] = [] if e["status"] == "SKIPPED" else [f"status {e['status']}"]
            elif e["status"] == "SKIPPED" or got is None:
                problems[name] = [f"status {e['status']}, bound is defined"]
            else:
                expected = float(bound(cat, facts, n, s, raw_price, bandwidth))
                problems[name] = ([] if _close(got[0], expected, REPORTED_REL, 1e-9)
                                  else [f"bound {got[0]} != recomputed {expected}"])
    return problems, report
