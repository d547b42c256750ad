import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storesched import (
    PriceCsvError,
    PricePartition,
    PriceSeries,
    partition,
    read_price_csv,
    write_price_csv,
)


def make(values):
    return PriceSeries(np.asarray(values, dtype=float), 1.0)


def reference_partition(series):
    """partition as a plain loop over the prices, one period at a time."""
    c = series.prices
    t_neg = tuple(int(i) + 1 for i in np.flatnonzero(c < 0))
    t_pos = tuple(int(i) + 1 for i in np.flatnonzero(c >= 0))
    t_zero = tuple(int(i) + 1 for i in np.flatnonzero(c == 0))
    blocks = []
    i, T = 0, len(c)
    while i < T:
        p = 0
        while i < T and c[i] >= 0:
            p += 1
            i += 1
        n = 0
        while i < T and c[i] < 0:
            n += 1
            i += 1
        blocks.append((p, n))
    longest, n_bar, pos = None, 0, 0
    for p, n in blocks:
        start = pos + p + 1
        if n > n_bar:  # strict: ties keep the earliest run
            n_bar = n
            longest = (start, start + n - 1)
        pos += p + n
    return PricePartition(t_neg=t_neg, t_pos=t_pos, t_zero=t_zero, blocks=tuple(blocks),
                          longest_neg=longest, n_bar=n_bar)


class TestSeries:
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt"):
            PriceSeries([1.0], dt)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_prices_must_be_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            PriceSeries([1.0, value], 1.0)

    def test_prices_must_be_a_nonempty_vector(self):
        for values in ([[1.0, 2.0], [3.0, 4.0]], []):
            with pytest.raises(ValueError, match="non-empty 1-D"):
                PriceSeries(values, 1.0)


class TestPartition:
    def test_mixed_signs(self):
        part = partition(make([5, -1, -2, 0, 3, -4]))
        assert part.t_neg == (2, 3, 6)
        assert part.t_pos == (1, 4, 5)
        assert part.t_zero == (4,)
        assert part.blocks == ((1, 2), (2, 1))
        assert part.longest_neg == (2, 3)
        assert part.n_bar == 2
        assert part.num_negative_blocks == 2

    def test_zero_counts_as_nonnegative(self):
        part = partition(make([0.0, -1.0, 0.0]))
        assert part.t_zero == (1, 3)
        assert part.t_pos == (1, 3)
        assert part.t_neg == (2,)

    def test_all_positive(self):
        part = partition(make([1, 2, 3]))
        assert part.t_neg == ()
        assert part.longest_neg is None
        assert part.n_bar == 0
        assert part.blocks == ((3, 0),)

    def test_all_negative(self):
        part = partition(make([-1, -2]))
        assert part.blocks == ((0, 2),)
        assert part.longest_neg == (1, 2)

    def test_tie_keeps_earliest_run(self):
        part = partition(make([-1, -1, 5, -2, -2]))
        assert part.longest_neg == (1, 2)
        assert part.n_bar == 2

    def test_leading_and_trailing_runs(self):
        part = partition(make([-1, 5, 5, -1, -1, -1]))
        assert part.blocks == ((0, 1), (2, 3))
        assert part.longest_neg == (4, 6)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_invariants(self, values):
        part = partition(make(values))
        assert part == reference_partition(make(values))
        T = len(values)
        assert sorted(part.t_neg + part.t_pos) == list(range(1, T + 1))
        assert set(part.t_zero) <= set(part.t_pos)
        assert sum(p + n for p, n in part.blocks) == T
        neg_runs = [n for _, n in part.blocks if n > 0]
        assert part.n_bar == (max(neg_runs) if neg_runs else 0)
        if part.longest_neg is not None:
            tau1, tau2 = part.longest_neg
            assert tau2 - tau1 + 1 == part.n_bar
            assert all(values[t - 1] < 0 for t in range(tau1, tau2 + 1))


class TestCsv:
    def test_round_trip(self, tmp_path):
        series = make([30.5, -0.25, 0.0, 12.125])
        path = tmp_path / "p.csv"
        write_price_csv(path, series)
        back = read_price_csv(path)
        np.testing.assert_array_equal(back.prices, series.prices)

    def test_header_text(self, tmp_path):
        path = tmp_path / "p.csv"
        write_price_csv(path, make([1.0]))
        assert path.read_text().splitlines()[0] == "t,price_eur_per_mwh"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("time,price\n1,2\n")
        with pytest.raises(PriceCsvError) as info:
            read_price_csv(path)
        assert info.value.line == 1
        assert str(info.value).startswith(f"{path}: line 1: expected header")

    def test_noncontiguous_t(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t,price_eur_per_mwh\n1,5\n3,6\n")
        with pytest.raises(PriceCsvError) as info:
            read_price_csv(path)
        assert info.value.line == 3
        # a blank line is skipped, not taken as a row
        path.write_text("t,price_eur_per_mwh\n1,5\n\n2,6\n")
        np.testing.assert_array_equal(read_price_csv(path).prices, [5.0, 6.0])

    def test_t_must_start_at_one(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t,price_eur_per_mwh\n0,5\n")
        with pytest.raises(PriceCsvError):
            read_price_csv(path)

    def test_non_numeric_price(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t,price_eur_per_mwh\n1,abc\n")
        with pytest.raises(PriceCsvError) as info:
            read_price_csv(path)
        assert info.value.line == 2

    def test_empty_body(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t,price_eur_per_mwh\n")
        with pytest.raises(PriceCsvError):
            read_price_csv(path)
