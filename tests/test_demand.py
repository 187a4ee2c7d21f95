import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcastopt.channel import RateModel
from bcastopt.cli import main
from bcastopt.demand import (
    FileCatalog,
    aggregate_delay_tolerance,
    build_catalog,
    zipf_pmf,
)
from bcastopt.errors import InvalidParameterError, PreconditionError
from bcastopt.scenario import load_spec, normalize

from conftest import CONFIG_DIR, catalog_from, point_rate


class TestZipfPmf:
    def test_two_files_harmonic_by_hand(self):
        p = zipf_pmf(1.0, 2)
        assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-15)

    def test_near_zero_exponent_is_uniform(self):
        p = zipf_pmf(1e-9, 3)
        assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)

    def test_large_catalog_against_direct_summation(self):
        # Oracle: direct summation of the truncated harmonic series.
        harmonic = sum(1.0 / i for i in range(1, 2001))
        assert harmonic == pytest.approx(8.1784, abs=1e-3)
        p = zipf_pmf(1.0, 2000)
        assert p[0] == pytest.approx(1.0 / harmonic, abs=1e-12)

    @pytest.mark.parametrize("gamma,m", [(0.3, 11), (1.0, 999), (2.7, 40), (4.0, 100_000)])
    def test_normalization(self, gamma, m):
        p = zipf_pmf(gamma, m)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(np.diff(p) < 0)

    def test_concentration_grows_with_exponent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g1, g2 = sorted(rng.uniform(0.05, 4.0, size=2))
            m = int(rng.integers(2, 5000))
            p1 = zipf_pmf(g1, m)[0]
            p2 = zipf_pmf(g2, m)[0]
            assert p2 >= p1

    @pytest.mark.parametrize("gamma,m", [(0.0, 5), (-1.0, 5), (1.0, 0)])
    def test_invalid_parameters(self, gamma, m):
        with pytest.raises(InvalidParameterError) as exc:
            zipf_pmf(gamma, m)
        assert str(exc.value) == (f"catalog size must be >= 1, got {m}" if gamma > 0
                                  else f"Zipf exponent must be > 0, got {gamma}")


def _midpoint_tolerance(size, lo, hi, model, points=200_000):
    """Independent oracle: E[1/(size - r t)] by the midpoint rule over
    t ~ U[lo, hi], mixed over the two regions."""
    t = lo + (np.arange(points) + 0.5) * ((hi - lo) / points)
    total = 0.0
    for rate, weight in ((model.r_high, model.prob_high),
                         (model.r_low, 1.0 - model.prob_high)):
        if weight > 0:
            total += weight * float(np.mean(1.0 / (size - rate * t)))
    return total


def _scalar_tolerance(size, lo, hi, model):
    """Reference: the closed form one file at a time, in Python floats."""
    total = 0.0
    for rate, weight in ((model.r_high, model.prob_high),
                         (model.r_low, 1.0 - model.prob_high)):
        if weight > 0.0:
            d = size - rate * hi
            x = rate * (hi - lo) / d
            total += weight * (1.0 / d if x == 0.0 else math.log1p(x) / (x * d))
    return total


class TestAggregateDelayTolerance:
    def test_point_masses_by_hand(self):
        theta = aggregate_delay_tolerance(5.0, 1.0, 1.0, point_rate(1.0))
        assert theta == pytest.approx(1.0 / (5.0 - 1.0), abs=1e-12)

    def test_uniform_threshold_against_closed_form(self):
        # Oracle: for unit rate and theta ~ U(1, 2),
        # E[1/(5 - t)] = integral = ln(4/3).
        theta = aggregate_delay_tolerance(5.0, 1.0, 2.0, point_rate(1.0))
        assert theta == pytest.approx(math.log(4.0 / 3.0), rel=1e-12)

    def test_mixed_regions_against_closed_form(self):
        # Weighted mix of the per-region closed forms.
        model = RateModel(r_high=1.0, r_low=0.5, prob_high=0.3)

        def region_integral(rate):
            return math.log((5.0 - rate * 1.0) / (5.0 - rate * 2.0)) / rate

        expected = 0.3 * region_integral(1.0) + 0.7 * region_integral(0.5)
        theta = aggregate_delay_tolerance(5.0, 1.0, 2.0, model)
        assert theta == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("size,lo,hi,model", [
        (5.0, 1.0, 2.0, RateModel(r_high=1.0, r_low=1.0, prob_high=1.0)),
        (3.1, 0.5, 2.0, RateModel(r_high=1.0, r_low=1.0, prob_high=1.0)),
        (3.1, 0.5, 2.0, RateModel(r_high=1.0, r_low=0.4, prob_high=0.3)),
        (0.7, 0.02, 0.9, RateModel(r_high=0.36, r_low=0.2, prob_high=0.1)),
        (4.0, 0.1, 2.5, RateModel(r_high=2.0, r_low=0.5, prob_high=0.0)),
    ])
    def test_against_midpoint_quadrature(self, size, lo, hi, model):
        theta = aggregate_delay_tolerance(size, lo, hi, model)
        assert theta == pytest.approx(_midpoint_tolerance(size, lo, hi, model), rel=1e-9)

    @pytest.mark.parametrize("width", [1e-6, 1e-9, 1e-14])
    def test_continuous_as_interval_shrinks_to_point_mass(self, width):
        model = RateModel(r_high=1.0, r_low=0.5, prob_high=0.3)
        point = aggregate_delay_tolerance(5.0, 1.0, 1.0, model)
        narrow = aggregate_delay_tolerance(5.0, 1.0, 1.0 + width, model)
        # the mean threshold moves by width/2, so theta moves by about
        # r * width / (2 (f - r)^2) relative to 1/(f - r)
        assert narrow == pytest.approx(point, rel=width)

    def test_zero_denominator_rejected(self):
        with pytest.raises(PreconditionError):
            aggregate_delay_tolerance(3.0, 3.0, 3.0, point_rate(1.0))

    def test_zero_probability_region_is_not_checked(self):
        # size / r_high = 1.5 < threshold + 1, but no user sees r_high.
        theta = aggregate_delay_tolerance(
            3.0, 1.0, 1.0, RateModel(r_high=2.0, r_low=0.5, prob_high=0.0))
        assert theta == pytest.approx(1.0 / (3.0 - 0.5), rel=1e-15)
        with pytest.raises(PreconditionError, match=re.escape(
                "fails for 1 file(s): file 1 (size/rate=1.5, needs > 2.0)")):
            aggregate_delay_tolerance(
                3.0, 1.0, 1.0, RateModel(r_high=2.0, r_low=0.5, prob_high=0.01))

    def test_decreasing_in_file_size_for_common_draws(self):
        model = RateModel(r_high=1.0, r_low=0.5, prob_high=0.4)
        values = [
            aggregate_delay_tolerance(s, 0.5, 1.5, model) for s in (4.0, 5.0, 7.0, 12.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestBuildCatalog:
    def test_eager_delay_sensitivity_rejection_names_files(self):
        with pytest.raises(PreconditionError) as err:
            build_catalog(
                1.0, sizes=[5.0, 1.2], delay_lo=1.0, delay_hi=2.0,
                rate_model=point_rate(1.0),
            )
        assert "file 2" in str(err.value)

    def test_zero_probability_rate_is_not_checked(self):
        # size / r_high = 1.5 < threshold + 1, but no user sees r_high.
        catalog = build_catalog(
            1.0, sizes=[3.0], delay_lo=1.0, delay_hi=1.0,
            rate_model=RateModel(2.0, 0.5, 0.0),
        )
        assert catalog.theta.tolist() == [1.0 / 2.5]
        with pytest.raises(PreconditionError, match="file 1"):
            build_catalog(
                1.0, sizes=[3.0], delay_lo=1.0, delay_hi=1.0,
                rate_model=RateModel(2.0, 0.5, 0.01),
            )

    def test_boundary_file_is_named(self):
        # size <= rate * (hi + 1) is false here while size / rate > hi + 1 is
        # false too: the catalog check must use the tolerance's own division.
        size, rate, hi = 5.560996632855533, 2.72268870741246, 1.0424650889085636
        assert not size <= rate * (hi + 1.0) and not size / rate > hi + 1.0
        with pytest.raises(PreconditionError) as err:
            build_catalog(1.0, sizes=[size], delay_lo=0.5, delay_hi=hi,
                          rate_model=point_rate(rate))
        assert str(err.value) == ("delay-sensitivity condition fails for 1 file(s): "
                                  "file 1 (size/rate=2.0424650889085636, "
                                  "needs > 2.0424650889085636)")

    def test_catalog_invariants(self):
        catalog = build_catalog(
            0.8, sizes=[6.0, 5.0, 7.0, 8.0, 5.5],
            delay_lo=0.5, delay_hi=1.5, rate_model=point_rate(1.0),
        )
        assert abs(catalog.popularity.sum() - 1.0) < 1e-12
        assert np.all(catalog.theta > 0)
        assert catalog.mean_size == pytest.approx(catalog.sizes @ catalog.popularity)
        # theta_i > 1/f_i always (the threshold term only shrinks the denominator)
        assert np.all(catalog.theta > 1.0 / catalog.sizes)

    def test_theta_is_per_file_tolerance(self):
        model = RateModel(r_high=1.0, r_low=0.5, prob_high=0.4)
        lo, hi = [0.5, 0.2, 1.0], [1.5, 0.2, 2.5]
        catalog = build_catalog(
            1.0, sizes=[6.0, 5.0, 7.0], delay_lo=lo, delay_hi=hi,
            rate_model=model,
        )
        expected = [_scalar_tolerance(f, a, b, model)
                    for f, a, b in zip([6.0, 5.0, 7.0], lo, hi)]
        assert catalog.theta.tolist() == expected
        assert catalog.delay_lo.tolist() == lo
        assert catalog.delay_hi.tolist() == hi

    @pytest.mark.parametrize("config", ["single_cell", "seven_cell"])
    @pytest.mark.parametrize("seed", [0, 11, 99251])
    def test_shipped_theta_equals_the_scalar_reference(self, config, seed):
        spec = replace(load_spec(str(CONFIG_DIR / f"{config}.cfg")), seed=seed)
        catalog = normalize(spec)[0]
        expected = [_scalar_tolerance(f, a, b, catalog.rate_model) for f, a, b in zip(
            catalog.sizes.tolist(), catalog.delay_lo.tolist(), catalog.delay_hi.tolist())]
        assert catalog.theta.tolist() == expected

    @pytest.mark.parametrize("case", range(60))
    def test_random_theta_equals_the_scalar_reference(self, case):
        # Point masses, prob_high 0 and 1, and per-file bounds.
        rng = np.random.default_rng([case, 27])
        r_high = rng.uniform(0.05, 3.0)
        model = RateModel(r_high, r_high * rng.uniform(0.05, 1.0),
                          (0.0, 1.0, rng.uniform())[case % 3])
        m = int(rng.integers(1, 40))
        hi = rng.uniform(0.01, 3.0, m)
        lo = np.where(rng.uniform(size=m) < 0.3, hi, hi * rng.uniform(0.01, 1.0, m))
        top = model.r_high if model.prob_high > 0 else model.r_low
        sizes = top * (hi + 1.0) * rng.uniform(1.001, 5.0, m)
        catalog = build_catalog(1.0, sizes=sizes, delay_lo=lo, delay_hi=hi,
                                rate_model=model)
        files = list(zip(sizes.tolist(), lo.tolist(), hi.tolist()))
        assert catalog.theta.tolist() == [_scalar_tolerance(*f, model) for f in files]
        # a scalar call is a Python float, equal to its element of the array call
        scalars = [aggregate_delay_tolerance(*f, model) for f in files]
        assert all(type(v) is float for v in scalars)
        assert scalars == catalog.theta.tolist()

    def test_deterministic_for_fixed_seed(self):
        kw = dict(sizes=[6.0, 5.0], delay_lo=0.5, delay_hi=1.5,
                  rate_model=point_rate(1.0))
        a = build_catalog(1.0, **kw)
        b = build_catalog(1.0, **kw)
        assert np.array_equal(a.theta, b.theta)

    def test_bad_popularity_rejected(self):
        with pytest.raises(InvalidParameterError, match="must be a pmf"):
            catalog_from([1.0, 1.0], [0.7, 0.7], [1.0, 1.0])
        with pytest.raises(InvalidParameterError, match="^file 2: popularity must be > 0$"):
            catalog_from([1.0, 1.0, 1.0], [0.5, 0.0, 0.5], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("field, values, message", [
        ("sizes", [0.5, 0.0, 0.2], "file 2: size must be > 0"),
        ("delay_lo", [0.1, 0.1, 0.0], "file 3: need 0 < delay_lo <= delay_hi"),
        ("delay_lo", [0.5, 0.1, 0.1], "file 1: need 0 < delay_lo <= delay_hi"),
        ("theta", [3.0, 4.0], "catalog arrays must be non-empty and same length"),
        ("theta", [3.0, 0.0, 6.0], "aggregate delay tolerances must be positive"),
    ])
    def test_invalid_files_rejected(self, field, values, message):
        kw = dict(sizes=[0.5, 0.3, 0.2], popularity=[0.5, 0.3, 0.2], theta=[3.0, 4.0, 6.0],
                  delay_lo=[0.1, 0.1, 0.1], delay_hi=[0.4, 0.4, 0.4],
                  rate_model=point_rate(1.0))
        kw[field] = values
        with pytest.raises(InvalidParameterError, match=message):
            FileCatalog(**kw)

    def test_invalid_delay_bounds_rejected_before_tolerances(self):
        with pytest.raises(InvalidParameterError, match="file 2: need 0 < delay_lo"):
            build_catalog(1.0, sizes=[5.0, 5.0], delay_lo=[1.0, 2.5],
                          delay_hi=2.0, rate_model=point_rate(1.0))

    def test_csv_export(self, small_config, capsys):
        catalog = normalize(load_spec(small_config))[0]
        assert main(["schedule", small_config, "--catalog"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,f_i,p_i,theta_i"
        assert len(lines) == catalog.size + 1 == 7
        row = lines[1].split(",")
        assert int(row[0]) == 1
        # printed at 12 significant digits
        assert float(row[1]) == pytest.approx(catalog.sizes[0], rel=1e-11)
        assert float(row[2]) == pytest.approx(catalog.popularity[0], rel=1e-11)
        assert float(row[3]) == pytest.approx(catalog.theta[0], rel=1e-11)


@given(
    gamma=st.floats(min_value=0.01, max_value=4.0, allow_nan=False),
    m=st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=60, deadline=None)
def test_zipf_pmf_is_distribution(gamma, m):
    p = zipf_pmf(gamma, m)
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p > 0)


@given(gamma=st.floats(min_value=-300.0, max_value=3.0).map(lambda e: 10.0 ** e),
       m=st.integers(min_value=1, max_value=2000))
@example(gamma=1e-13, m=2000)
@example(gamma=1e-300, m=2000)
@example(gamma=200.0, m=2000)
@settings(max_examples=100, deadline=None)
def test_every_admitted_exponent_builds_or_names_the_first_zero(gamma, m):
    # gamma is log-uniform over the zipf_exponent rule's domain. Where
    # i^-gamma rounds to equal values, the catalog serves the tied files by
    # index; where it underflows to 0, the catalog names the first such file.
    zero = np.flatnonzero(zipf_pmf(gamma, m) == 0.0)
    try:
        catalog = build_catalog(gamma, sizes=np.full(m, 5.0), delay_lo=0.5, delay_hi=1.5,
                                rate_model=point_rate(1.0))
    except InvalidParameterError as exc:
        assert zero.size and str(exc) == f"file {zero[0] + 1}: popularity must be > 0"
    else:
        order = catalog.processing_order
        ranked = catalog.popularity[order]
        assert np.all(ranked[:-1] >= ranked[1:])
        tied = ranked[:-1] == ranked[1:]
        assert np.all(order[:-1][tied] < order[1:][tied])
