"""Text formatters of the outputs, which format numbers in numpy one block
of rows at a time (see blocks). Imports nothing from adaptometry."""

from __future__ import annotations

import csv
import io
from itertools import chain
from typing import Iterable, Iterator, Sequence

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

# The powers of ten float_reprs scales by, and _fixed_decimal_block counts digits by
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _word_table(texts: Iterable[bytes]) -> np.ndarray:
    """The 8-byte ``texts`` as little-endian words: the bytes of a word array
    in "<u8" are its texts in order on any host."""
    return np.frombuffer(b"".join(texts), "<u8")


# The words of _fixed_decimal_block, where 0xFF pads: no UTF-8 text holds it.
# The tables total 17.3 KiB; one word per k < 10**5 would add 800 KiB to every
# run's memory. An entry k = |x| * 100 < 10**5 is _LOW[k % 1000] |
# _HIGH[k // 1000]: the comma, a sign slot, the two leading digits (0xFF for
# leading zeros) and d.dd.
_LOW = _word_table(b",\xff\0\0%d.%02d" % divmod(r, 100) for r in range(1000))
_HIGH = _word_table(
    b"\0\0" + (b"%d" % q if q else b"").rjust(2, b"\xff") + bytes(4) for q in range(100)
)
# Two words where k >= 10**5 (k <= 2**31 has at most 10 digits): the comma,
# the sign slot, 3 slots always padded and digits 10 to 8 of k (_TOP), then
# digits 7 to 4 (_PAIR) and d.dd; _LEADING_ZEROS[i] pads the slots left of
# k's 3 + i digits.
_TOP = _word_table(b"\0\0\xff\xff\xff%03d" % c for c in range(1000))
_PAIR = _word_table(b"%02d" % j + bytes(6) for j in range(100))
_LEADING_ZEROS = _word_table(
    bytes(2) + b"\xff" * (10 - i) + bytes(4 + i) for i in range(8)
).reshape(8, 2)
_NAN, _PATCH, _NEWLINE, _NO_TEXT = _word_table(
    text.ljust(8, b"\xff") for text in (b",", b",\xfe", b"\n", b"")
)
_DIGITS = np.uint64(2**64 - 2**16)  # all but the comma and sign slot
_MINUS = np.uint64(0xD200)  # turns the 0xFF of the sign slot into "-"


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
    """Round each entry in numpy and lay out the block's whole lines in one
    grid of 8-byte words (see _word_table): per line the label's UTF-8 bytes,
    one or two words per entry and a newline word, padded with 0xFF bytes
    that are then dropped. "%" writes the entries marked 0xFE."""
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

    q = k // 1000  # "//" and a product: "%" takes 4 times as long
    low = _LOW[(k - 1000 * q).astype(np.intp)]
    words = 1 if k.max(initial=0) < 10**5 else 2  # per entry, as the widest needs
    if words == 1:
        low |= _HIGH[q.astype(np.intp)]
        first = low
    else:
        top = k // 10**7
        mid = q // 100
        pad = _LEADING_ZEROS[np.searchsorted(_POW10[3:10], k, side="right")]
        first = _TOP[top.astype(np.intp)] | pad[..., 0] | (low & 0xFFFF)
        low &= _DIGITS
        low |= pad[..., 1] | _PAIR[(mid - 100 * top).astype(np.intp)]
        low |= _PAIR[(q - 100 * mid).astype(np.intp)] << np.uint64(16)
        low[~fast] = _NO_TEXT
    neg = np.signbit(block)
    if neg.any():  # no distance is negative
        first -= neg * _MINUS
    odd = ~fast  # overwritten whatever their sign
    if odd.any():
        first[odd] = np.where(slow[odd], _PATCH, _NAN)
    entries = first if words == 1 else np.stack([first, low], -1)

    rows, n = block.shape
    encoded = [label.encode() for label in labels]
    width = -(-max(map(len, encoded), default=0) // 8)  # words per label
    lines = np.empty((rows, width + n * words + 1), "<u8")
    padded = (label.ljust(8 * width, b"\xff") for label in encoded)
    lines[:, :width] = _word_table(padded).reshape(rows, width)
    lines[:, width:-1] = entries.reshape(rows, n * words)
    lines[:, -1] = _NEWLINE
    text = lines.tobytes().translate(None, b"\xff")
    if slow.any():
        parts = text.split(b"\xfe")  # row-major, as block[slow]
        patches = (b"%.2f" % v for v in block[slow].tolist())
        text = b"".join([parts[0], *(a + b for a, b in zip(patches, parts[1:]))])
    return text.decode()


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
