"""Price series and its sign-pattern decomposition.

Period indices are 1-based everywhere in this module, matching the ``t``
column of the price CSV format.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np


class PriceCsvError(ValueError):
    """Malformed price CSV. Names the file in its message and carries the
    offending line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}: line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class PriceSeries:
    """Per-period energy prices (EUR/MWh) over a horizon of T periods of
    length dt hours.  Prices must be a non-empty 1-D sequence of finite
    real numbers and dt one finite, positive real number (stored as a
    float); anything else is refused by a ValueError that names the field."""

    prices: np.ndarray
    dt: float

    def __post_init__(self):
        try:
            prices = np.asarray(self.prices)
            real = prices.dtype.kind in "biuf"  # no strings, None or complex numbers
        except ValueError:  # ragged nesting
            real = False
        if not real:
            raise ValueError("prices must be real numbers")
        object.__setattr__(self, "prices", np.asarray(prices, dtype=float))
        if self.prices.ndim != 1 or len(self.prices) < 1:
            raise ValueError("prices must be a non-empty 1-D sequence")
        if not np.logical_and.reduce(np.isfinite(self.prices)):
            raise ValueError("prices must be finite")
        if not isinstance(self.dt, numbers.Real):
            raise ValueError("dt must be a real number")
        try:
            object.__setattr__(self, "dt", float(self.dt))
        except OverflowError:  # an integer beyond double precision
            object.__setattr__(self, "dt", math.inf)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and positive")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class PricePartition:
    """Sign-pattern structure of a price series.

    t_neg / t_pos / t_zero are sorted tuples of 1-based period indices
    (prices < 0, >= 0 and == 0 respectively; t_zero is a subset of t_pos).
    blocks is the ordered run-length decomposition into (p_j, n_j) pairs:
    p_j consecutive nonnegative-price periods followed by n_j consecutive
    strictly-negative ones.  longest_neg is the earliest longest negative
    run as an inclusive interval (tau1, tau2), or None; n_bar its length.
    """

    t_neg: tuple
    t_pos: tuple
    t_zero: tuple
    blocks: tuple
    longest_neg: tuple | None
    n_bar: int

    @property
    def num_negative_blocks(self) -> int:
        return sum(1 for _, n in self.blocks if n > 0)


def partition(series: PriceSeries) -> PricePartition:
    """Decompose a price series into the structures the exactness
    conditions consume.  Zero prices count as nonnegative; the comparison
    with zero is exact (market prices are exact decimals)."""
    c = series.prices
    neg = c < 0  # prices are finite: every other price is >= 0
    t_neg = tuple((neg.nonzero()[0] + 1).tolist())
    t_pos = tuple(((~neg).nonzero()[0] + 1).tolist())
    t_zero = tuple(((c == 0).nonzero()[0] + 1).tolist())

    blocks = []
    neg = neg.tolist()
    i, T = 0, len(neg)
    while i < T:
        p = 0
        while i < T and not neg[i]:
            p += 1
            i += 1
        n = 0
        while i < T and neg[i]:
            n += 1
            i += 1
        blocks.append((p, n))

    longest = None
    n_bar = 0
    pos = 0
    for p, n in blocks:
        start = pos + p + 1
        if n > n_bar:  # strict: ties keep the earliest run
            n_bar = n
            longest = (start, start + n - 1)
        pos += p + n

    return PricePartition(
        t_neg=t_neg,
        t_pos=t_pos,
        t_zero=t_zero,
        blocks=tuple(blocks),
        longest_neg=longest,
        n_bar=n_bar,
    )


def read_price_csv(path, dt: float = 1.0) -> PriceSeries:
    """Read a price CSV with header ``t,price_eur_per_mwh`` and 1-based
    contiguous t values.  Raises PriceCsvError with the path and a line
    number on any format violation."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise PriceCsvError(path, 1, "empty file")
    header = lines[0].strip()
    if header != "t,price_eur_per_mwh":
        raise PriceCsvError(path, 1, f"expected header 't,price_eur_per_mwh', got {header!r}")
    prices = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise PriceCsvError(path, lineno, f"expected 2 fields, got {len(parts)}")
        try:
            t = int(parts[0])
            price = float(parts[1])
        except ValueError as exc:
            raise PriceCsvError(path, lineno, str(exc)) from None
        if t != len(prices) + 1:
            raise PriceCsvError(path, lineno, f"expected t={len(prices) + 1}, got t={t}")
        if not np.isfinite(price):
            raise PriceCsvError(path, lineno, "price must be finite")
        prices.append(price)
    if not prices:
        raise PriceCsvError(path, 2, "no price rows")
    return PriceSeries(prices=np.array(prices), dt=dt)


def write_price_csv(path, series: PriceSeries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,price_eur_per_mwh\n")
        for t, price in enumerate(series.prices, start=1):
            fh.write(f"{t},{float(price)!r}\n")
