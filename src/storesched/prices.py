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


def _is_real(kind: type) -> bool:
    """Whether values of this type are real numbers: no bool, string, None or complex."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def real_number(name: str, value) -> float:
    """value as a float, refused by name unless it is a real number; an
    integer beyond double precision reads as inf, for the caller's
    finiteness check to refuse."""
    if not _is_real(type(value)):
        raise ValueError(f"{name} must be a real number")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def number_text(text: str, kind: type = float):
    """A text field read as kind (float or int), refused naming the text unless it is
    ASCII with no '_': int() and float() also read 1_000 and other scripts' digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return kind(text)


def real_column(name: str, values) -> np.ndarray:
    """values as a float array of their own shape (the caller's to check),
    refused by name unless every entry is a real number within double
    precision: an integer or float ndarray by its dtype, anything else entry
    by entry, as np.asarray reads [True, 0] as integers, [np.True_, 1.5] as floats."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return np.asarray(values, dtype=float)
    try:
        entries = np.asarray(values, dtype=object)  # the caller's own objects
        real = all(map(_is_real, set(map(type, entries.ravel().tolist()))))
    except ValueError:  # arrays of ragged shapes
        real = False
    if not real:
        raise ValueError(f"{name} must be real numbers")
    try:
        return entries.astype(float)
    except OverflowError:
        raise ValueError(f"{name} holds an integer beyond double precision") from None


def require_int(name: str, value, lo: int, hi: float = math.inf) -> None:
    """Refuse, by name, anything but an integer (no bool) in [lo, hi]."""
    if not (_is_real(type(value)) and isinstance(value, numbers.Integral) and lo <= value <= hi):
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


@dataclass(frozen=True)
class PriceSeries:
    """Per-period energy prices (EUR/MWh) over a horizon of T periods of
    length dt hours.  Prices must be a non-empty 1-D sequence of finite
    real numbers and dt one finite, positive real number (stored as a
    float); anything else is refused by a ValueError that names the field."""

    prices: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "prices", real_column("prices", self.prices))
        if self.prices.ndim != 1 or len(self.prices) < 1:
            raise ValueError("prices must be a non-empty 1-D sequence")
        if not np.logical_and.reduce(np.isfinite(self.prices)):
            raise ValueError("prices must be finite")
        object.__setattr__(self, "dt", real_number("dt", self.dt))
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

    # one pass over the sign runs, which end where the sign changes and
    # alternate from the first price's sign; a negative run closes a block
    ends = [*((neg[1:] != neg[:-1]).nonzero()[0] + 1).tolist(), len(neg)]
    blocks, longest, n_bar, p, start, negative = [], None, 0, 0, 0, bool(neg[0])
    for end in ends:
        n = end - start
        if negative:
            blocks.append((p, n))
            if n > n_bar:  # strict: ties keep the earliest run
                n_bar, longest = n, (start + 1, end)
        p = 0 if negative else n
        start, negative = end, not negative
    if p:
        blocks.append((p, 0))
    return PricePartition(t_neg, t_pos, t_zero, tuple(blocks), longest, n_bar)


def read_price_csv(path, dt: float = 1.0) -> PriceSeries:
    """Read a price CSV with header ``t,price_eur_per_mwh`` and 1-based
    contiguous t values.  Raises PriceCsvError with the path and a line
    number on any format violation."""
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is no header
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
            t = number_text(parts[0], int)
            price = number_text(parts[1])
        except ValueError as exc:
            raise PriceCsvError(path, lineno, str(exc)) from None
        if t != len(prices) + 1:
            raise PriceCsvError(path, lineno, f"expected t={len(prices) + 1}, got t={t}")
        if not math.isfinite(price):
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
