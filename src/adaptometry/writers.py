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

# _fixed_decimal_block rounds y = |x| * 100 in numpy only where y < 99999,
# so k = round(y) < 10**5, which _HIGH indexes. 100 is an exact double, so y
# is the exact product Y rounded once to nearest; y < 2**17 implies Y < 2**17,
# so |y - Y| is at most half an ulp below 2**17, 2**(16 - 52) / 2 = 2**-37.
# Where the fraction of y lies further than _TIE_MARGIN (> 2**-37) from .5, Y
# is on the same side of floor(y) + .5 as y and is no tie, so "%.2f", which
# rounds Y to nearest, writes the digits of floor(y) + (fraction > .5). "%"
# writes every other entry: |x| >= 999.99, which no prevalence or correlation
# and few distances reach, and the ties.
_FAST_LIMIT = 99999.0
_TIE_MARGIN = 1e-6

# The powers of ten float_reprs scales by
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: high + low == a, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


# the halves of each 10**s that _shortest multiplies by (see _split)
_POW10_HIGH, _POW10_LOW = _split(_POW10.astype(float))


def _word_table(texts: Iterable[bytes], dtype: str = "<u8") -> np.ndarray:
    """The ``texts``, each as long as one word of ``dtype``, as little-endian
    words: the bytes of a word array in "<u8" or "<u4" are its texts in order
    on any host."""
    return np.frombuffer(b"".join(texts), dtype)


def label_words(labels: Sequence[bytes], dtype: str = "<u8") -> np.ndarray:
    """The encoded ``labels`` as rows of words of ``dtype`` (see
    _word_table), each padded with 0xFF bytes to as many words as the
    longest needs."""
    size = np.dtype(dtype).itemsize
    width = -(-max(map(len, labels), default=0) // size)
    padded = (label.ljust(size * width, b"\xff") for label in labels)
    return _word_table(padded, dtype).reshape(len(labels), width)


def splice(text: bytes, patches: Iterable[bytes]) -> bytes:
    """``text`` with its 0xFE marks replaced by ``patches``, in order."""
    parts = text.split(b"\xfe")
    return b"".join([parts[0], *(a + b for a, b in zip(patches, parts[1:]))])


# The words of _fixed_decimal_block, where 0xFF pads: no UTF-8 text holds it.
# The tables total 8.6 KiB; one word per k < 10**5 would add 800 KiB to every
# run's memory. An entry k = |x| * 100 < 10**5 is _LOW[k % 1000] |
# _HIGH[k // 1000]: the comma, a sign slot, the two leading digits (0xFF for
# leading zeros) and d.dd.
_LOW = _word_table(b",\xff\0\0%d.%02d" % divmod(r, 100) for r in range(1000))
_HIGH = _word_table(
    b"\0\0" + (b"%d" % q if q else b"").rjust(2, b"\xff") + bytes(4) for q in range(100)
)
_NAN, _PATCH, _NEWLINE = _word_table(text.ljust(8, b"\xff") for text in (b",", b",\xfe", b"\n"))
_MINUS = np.uint64(0xD200)  # turns the 0xFF of the sign slot into "-"

# The 4-byte words of repr_words: _WORDS[q] is q's 4 digits, _WORDS[_DOT + a]
# "." and a's 3, then a newline, a pad and a 0xFE mark. OR-ing in
# _INT_MASK[d] pads all but the last 1 + d bytes of the integer word, and
# column m of _FRAC_MASK all but the first 1 + m of its 5 words' 20 (m = 0:
# all of them).
_WORDS = _word_table(chain(
    (b"%04d" % q for q in range(10**4)),
    (b".%03d" % a for a in range(1000)),
    (text.ljust(4, b"\xff") for text in (b"\n", b"", b"\xfe")),
), "<u4")
_DOT, _LINE_END, _BLANK, _MARK = 10**4, 11000, _WORDS[11001], _WORDS[11002]
_INT_MASK = _word_table((b"\xff" * (3 - d) + bytes(1 + d) for d in range(4)), "<u4")
_FRAC_MASK = _word_table(
    (bytes(m + (m > 0)) + b"\xff" * (20 - m - (m > 0)) for m in range(19)), "<u4"
).reshape(19, 5).T


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
    one word per entry and a newline word, padded with 0xFF bytes
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
    k = whole.astype(np.uint32) + (frac > 0.5)  # at most 99999

    q = k // 1000  # "//" and a product: "%" takes 4 times as long
    entries = _LOW[(k - 1000 * q).astype(np.intp)] | _HIGH[q.astype(np.intp)]
    neg = np.signbit(block)
    if neg.any():  # no distance is negative
        entries -= neg * _MINUS
    odd = ~fast  # overwritten whatever their sign
    if odd.any():
        entries[odd] = np.where(slow[odd], _PATCH, _NAN)

    rows, n = block.shape
    encoded = label_words([label.encode() for label in labels])
    width = encoded.shape[1]
    lines = np.empty((rows, width + n + 1), "<u8")
    lines[:, :width] = encoded
    lines[:, width:-1] = entries
    lines[:, -1] = _NEWLINE
    text = lines.tobytes().translate(None, b"\xff")
    if slow.any():  # the marks are row-major, as block[slow]
        text = splice(text, (b"%.2f" % v for v in block[slow].tolist()))
    return text.decode()


def float_reprs(values: np.ndarray) -> list[str]:
    """``[float.__repr__(v) for v in values.tolist()]`` for a float64 array,
    from exact numpy digits where 1e-2 <= v < 1e4, one block of values at a
    time (see blocks), so a call on any size holds one block's temporaries.
    That range holds every panel value from 0.01 up (parse_panel takes
    [0, 100]) and every edge weight from 0.01 up (|r| <= 1).

    There repr is positional and V = v * 10**s is in [1e16, 1e17), s = 16 -
    floor(log10 v); Dekker's product with the exact double 10**s gives floor(V)
    as an int64 and V - floor(V) exactly, and so the ends of the interval that
    reads back as v: half the gap to each neighbour (a quarter below a power of
    two), scaled, all terms below 16 and multiples of 2**(e + s - 2) for v's
    last bit 2**e; ends in only for an even mantissa (float() rounds half to
    even). repr writes the digits in it that are shortest, then nearest (Gay
    1990): the multiple of 10**k nearest V for the largest k with one inside.
    float.__repr__ writes the rest: other values, a log10 that misses, inexact
    ends, an exact tie, a nearest multiple outside (the other one is shortest),
    and integral values, which repr_words writes without the ".0".
    """
    flat = np.asarray(values, dtype=float).ravel()
    return list(chain.from_iterable(_repr_pass(flat[rows]) for rows in blocks(flat.size, 1)))


def _repr_pass(values: np.ndarray) -> list[str]:
    words, ok = repr_words(values)
    out = words.T.tobytes().translate(None, b"\xfe\xff").decode("ascii").split("\n")[:-1]
    del words
    patch = ~ok | (values == np.floor(values))
    for j, v in zip(np.flatnonzero(patch).tolist(), values[patch].tolist()):
        out[j] = float.__repr__(v)
    return out


def repr_words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest digits of each of the float64 ``values`` as a column of
    little-endian 4-byte words (see _word_table), padded with 0xFF bytes, and
    whether each value is on the numpy path (see float_reprs): ``words.T``
    holds one line per value.

    A line is the integer part, right-aligned in one word with no leading
    zero; "." and 3 digits; 4 words of 4 digits; a newline word. The digits
    past the shortest count are padding, and an integral value has no point
    at all. A value off the path is a 0xFE mark.
    """
    ok, near, s, k = _shortest(values)
    # floor(v): no integer, each being a double, lies between v and digits that read back as it
    ints = np.where(ok, values, 0.0).astype(np.int64)
    fracs = np.where(ok, near - ints * _POW10[s], 0).view(np.uint64)
    fracs *= _POW10[19 - s].view(np.uint64)  # 19 digits, under 2**64
    dots = fracs // 10**16
    fracs -= dots * 10**16
    high = fracs // 10**8
    fracs -= high * 10**8
    eights = np.stack([high, fracs]).astype(np.uint32)  # "//" on uint32 is fast
    fours = eights // 10**4
    del fracs, high

    index = np.empty((7, values.size), np.intp)  # into _WORDS, a row per word
    index[0] = ints
    index[1] = dots
    index[1] += _DOT
    index[2:-1:2] = fours
    index[3:-1:2] = eights - fours * 10**4
    index[-1] = _LINE_END
    words = np.take(_WORDS, index)
    words[0] |= _INT_MASK[np.searchsorted(_POW10[1:4], ints, side="right")]  # digits less 1
    words[1:-1] |= np.take(_FRAC_MASK, np.maximum(s - k, 0), axis=1)
    if not ok.all():
        words[:-1, ~ok] = _BLANK
        words[0, ~ok] = _MARK
    return words, ok


def _shortest(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Where the numpy path holds, the multiple of 10**k nearest V, with s and k."""
    ok = (values >= 1e-2) & (values < 1e4)  # False for NaN
    x = np.where(ok, values, 1.0)
    s = np.clip(16 - np.floor(np.log10(x)).astype(np.int64), 2, 18)
    ph, pl = _POW10_HIGH[s], _POW10_LOW[s]
    p = ph + pl  # 10**s, exactly
    high = x * p
    xh, xl = _split(x)
    low = ((xh * ph - high) + xh * pl + xl * ph) + xl * pl  # x * 10**s - high, exactly
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
    tens = top // 10  # "//" and a product: "%" takes longer
    hundreds = tens // 10
    k = (top - 10 * tens <= room) + (top - 100 * hundreds <= room).astype(np.int64)
    at = np.flatnonzero(k == 2)
    rest = hundreds[at]
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
