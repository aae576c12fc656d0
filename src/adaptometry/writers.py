"""Text formatters of the outputs, which format numbers in numpy one block
of rows at a time (see blocks). Imports nothing from adaptometry."""

from __future__ import annotations

import csv
import io
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

# Entries in one block of every text writer (see blocks): the rows of
# matrix_csv_chunks, the units of panel_csv_chunks (cells), the edges of
# report.json, and each pass of float_reprs. At 2**14, draining panel.csv of a
# 300 x 150 x 4 synth panel peaked at 3.83 MiB under tracemalloc (1.91 at
# 2**13), and float_reprs of 2**14 values held 1.54 times what their
# float.__repr__ texts hold (1.12); at 2**12, the matrix CSVs of 4 periods of
# 400 units and 20 indicators took 1.25 times as long as at 2**13.
_FORMAT_BLOCK_ELEMENTS = 2**13

# _fixed_decimal_block rounds y = |x| * 100 in numpy only where y < 2**31.
# 100 is an exact double, so y is the exact product Y rounded once to nearest;
# y < 2**31 implies Y < 2**31, so |y - Y| is at most half an ulp below 2**31,
# 2**(30 - 52) / 2 = 2**-23. Where the fraction of y lies further than
# _TIE_MARGIN (> 2**-23) from .5, Y is on the same side of floor(y) + .5 as y
# and is no tie, so "%.2f", which rounds Y to nearest, writes the digits of
# floor(y) + (fraction > .5). "%" writes every other entry.
_FAST_LIMIT = 2.0**31
_TIE_MARGIN = 1e-6

# The powers of ten float_reprs scales by
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def csv_field(label: str) -> str:
    """``label`` as ``csv.writer`` writes it among other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([label, ""])
    return buf.getvalue()[:-2]


def blocks(rows: int, width: int, elements: int | None = None) -> Iterator[slice]:
    """Slices that cut ``rows`` rows of ``width`` entries each into blocks,
    in order, of at most ``elements`` (default _FORMAT_BLOCK_ELEMENTS)
    entries, or one row, each."""
    step = max(1, (elements or _FORMAT_BLOCK_ELEMENTS) // max(width, 1))
    return (slice(s, s + step) for s in range(0, rows, step))


def matrix_csv_chunks(corner: str, labels: Sequence[str], values: np.ndarray) -> Iterator[str]:
    """The CSV of a square matrix in pieces: the header row ``corner,label,...``,
    then one text per block of rows ``label,v,...,v``, each ending in a newline.

    ``labels`` are written as they are, so each must be a CSV field. Each
    entry reads exactly as ``"%.2f" % v`` writes it, and NaN as an empty
    field. Only one block's temporaries are held at a time, whatever the
    matrix size.
    """
    values = np.asarray(values, dtype=float)
    yield ",".join([corner, *labels]) + "\n"
    for rows in blocks(len(values), values.shape[1]):
        yield _fixed_decimal_block(labels[rows], values[rows])


def _fixed_decimal_block(labels: Sequence[str], block: np.ndarray) -> str:
    """Round each entry in numpy and lay out its ASCII text right-aligned in a
    uint8 grid, one fixed-width slot per entry, padded with spaces that are
    then dropped: no other byte of the output is a space."""
    nan = np.isnan(block)
    with np.errstate(over="ignore"):  # an inf product only fails the guard
        y = np.abs(block) * 100.0
    fast = y < _FAST_LIMIT  # False for NaN and inf
    y[~fast] = 0.0
    whole = np.floor(y)
    frac = y - whole  # exact
    slow = (np.abs(frac - 0.5) <= _TIE_MARGIN) | ~(fast | nan)
    fast &= ~slow
    k = whole.astype(np.uint32) + (frac > 0.5)  # at most 2**31

    width = max(3, len(str(k.max(initial=0))))  # digits in the widest entry
    slot = 3 + width  # comma, sign, then digits and point
    rows, n = block.shape
    lines = np.full((rows, n * slot + 1), ord(" "), np.uint8)
    lines[:, -1] = ord("\n")
    grid = lines[:, :-1].reshape(rows, n, slot)  # a view: one slot per entry
    grid[..., 0] = ord(",")
    # the first 3 digits (d.dd) always show; from the units digit on, left of the point
    _put_digits(grid, k, [c for c in range(slot - 1, 1, -1) if c != slot - 3], 3)
    grid[..., slot - 3] = ord(".")
    grid[~fast, 2:] = ord(" ")  # NaN and "%" entries
    grid[..., 1] = np.where(fast & np.signbit(block), ord("-"), ord(" "))
    grid[slow, 1] = 0  # NUL marks where a "%" text goes

    text = lines.tobytes().translate(None, b" ").decode("ascii")
    patches = iter(["%.2f" % v for v in block[slow].tolist()])  # row-major, as the NULs
    out = []
    for label, row, patched in zip(labels, text.split("\n"), slow.any(axis=1).tolist()):
        if patched:
            head, *tail = row.split("\0")
            row = head + "".join(next(patches) + part for part in tail)
        out.append(f"{label}{row}\n")
    return "".join(out)


def float_reprs(values: np.ndarray) -> list[str]:
    """``[float.__repr__(v) for v in values.tolist()]`` for a float64 array,
    from exact numpy digits where 1e-2 <= v < 1e15, one block of values at a
    time (see blocks), so a call on any size holds one block's temporaries.

    There repr is positional and V = v * 10**s is in [1e16, 1e17), s = 16 -
    floor(log10 v); Dekker's product with the exact double 10**s gives floor(V)
    as an int64 and V - floor(V) exactly, and so the ends of the interval that
    reads back as v: half the gap to each neighbour (a quarter below a power of
    two), scaled, all terms below 16 and multiples of 2**(e + s - 2) for v's
    last bit 2**e; ends in only for an even mantissa (float() rounds half to
    even). repr writes the digits in it that are shortest, then nearest (Gay
    1990): the multiple of 10**k nearest V for the largest k with one inside.
    float.__repr__ writes the rest: other values, a log10 that misses, inexact
    ends, an exact tie, a nearest multiple outside (the other one is shortest).
    """
    flat = np.asarray(values, dtype=float).ravel()
    return list(chain.from_iterable(_repr_pass(flat[rows]) for rows in blocks(flat.size, 1)))


def _repr_pass(values: np.ndarray) -> list[str]:
    ok, near, s, k = _shortest(values)  # rows not ok are blanked, then patched
    ints, fracs = np.divmod(near, _POW10[s])
    digits = np.maximum(s - k, 1)  # after the point
    fracs = fracs // _POW10[np.minimum(k, s)] + _POW10[digits]  # a leading 1 marks the point
    iw, fw = len(str(ints.max(initial=0))), int(digits.max(initial=1))
    lines = np.full((values.size, iw + fw + 2), ord(" "), np.uint8)
    lines[:, -1] = ord("\n")
    _put_digits(lines, ints, range(iw - 1, -1, -1), 1)
    _put_digits(lines, fracs, range(iw + fw, iw - 1, -1), 1)
    lines[np.arange(values.size), iw + fw - digits] = ord(".")
    lines[~ok, :-1] = ord(" ")
    out = lines.tobytes().translate(None, b" ").decode("ascii").split("\n")[:-1]
    for j, v in zip(np.flatnonzero(~ok).tolist(), values[~ok].tolist()):
        out[j] = float.__repr__(v)
    return out


def _shortest(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Where the numpy path holds, the multiple of 10**k nearest V, with s and k."""
    ok = (values >= 1e-2) & (values < 1e15)  # False for NaN
    x = np.where(ok, values, 1.0)
    s = np.clip(16 - np.floor(np.log10(x)).astype(np.int64), 2, 18)
    p = _POW10[s].astype(float)  # exact
    high = x * p
    (xh, xl), (ph, pl) = _split(x), _split(p)
    low = ((xh * ph - high) + xh * pl + xl * ph) + xl * pl  # x * p - high, exactly
    floor = np.floor(low)
    whole = high.astype(np.int64) + floor.astype(np.int64)  # floor(V): high is an integer
    frac = low - floor
    half = np.spacing(x) * p / 2  # half the gap above x, scaled
    bits = x.view(np.int64)
    lo = frac - np.where((bits & (2**52 - 1)) == 0, half / 2, half)
    hi = frac + half
    odd = (bits & 1).astype(bool)  # the ends are out: only the integers strictly inside
    first = np.where(odd, np.floor(lo) + 1, np.ceil(lo)).astype(np.int64)  # less floor(V)
    last = np.where(odd, np.ceil(hi) - 1, np.floor(hi)).astype(np.int64)
    del p, high, xh, xl, ph, pl, low, floor, half, lo, hi, odd  # a pass's largest temporaries
    ok &= (whole >= 10**16) & (whole < 10**17) & ((bits >> 52) - 1075 + s >= -47)
    # a multiple of 10**(k+1) is one of 10**k; the interval being under 100 wide, k >= 2
    # where top's last 2 digits are at most room, and then k - 2 is top // 100's last zeros
    top, room = whole + last, np.where(ok, last - first, -1)
    k = (top % 10 <= room) + (top % 100 <= room).astype(np.int64)
    at = np.flatnonzero(k == 2)
    rest = top[at] // 100
    for step in (8, 4, 2, 1):
        zeros = rest % 10**step == 0
        rest[zeros] //= 10**step
        k[at] += step * zeros
    p10 = _POW10[k]
    rest = whole % p10
    twice = p10 - 2 * rest  # round up where 2 * frac exceeds it
    near = (2 * frac > twice) * p10 - rest  # less floor(V)
    ok &= (2 * frac != twice) & (near >= first) & (near <= last)
    return ok, near + whole, s, k


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: high + low == a, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _put_digits(grid: np.ndarray, n: np.ndarray, cols: Sequence[int], keep: int) -> None:
    """Write the nonnegative integers ``n`` in decimal into the uint8 ``grid``
    (one row of columns per entry of ``n``) at ``cols``, listed from the units
    digit leftwards: the first ``keep`` digits always, the others up to the
    leading nonzero one, and spaces left of it."""
    digits = np.empty((len(cols), *n.shape), np.uint8)  # a contiguous row per digit
    for j in range(len(cols)):
        if j % 9 == 0:  # 9 digits at a time in uint32, whose division is fast
            n, part = np.divmod(n, 10**9) if len(cols) - j > 9 else (0, n)
            part = part.astype(np.uint32, copy=False)
        quotient = part // 10
        np.subtract(part, 10 * quotient, out=digits[j], casting="unsafe")
        part = quotient
    digits += ord("0")
    lead = np.ones(digits.shape[1:], bool)  # no nonzero digit yet, from the left
    for j in range(len(cols) - 1, keep - 1, -1):
        lead &= digits[j] == ord("0")
        np.copyto(digits[j], ord(" "), where=lead)
    for col, row in zip(cols, digits):
        grid[..., col] = row
