"""CSV text of numpy columns, with every float exactly as C ``%.17g``.

A float becomes a fixed-width field of 52 bytes and a keep mask; text
becomes a fixed-width field of its bytes.  ``blocks`` turns a table into
CSV text by one boolean compaction per block of rows; ``float_text``
compacts each float's field into a fixed-width text column.  No Python
code runs per value, apart from the rare values CPython formats itself
(see ``float_fields``).

``%.17g`` rounds ``x`` to 17 significant digits, the integer ``N`` in
[1e16, 1e17) times ``10**(X - 16)``.  It prints fixed point when ``X`` lies
in [-4, 16] and scientific otherwise, dropping the trailing zeros of the
fraction and then a bare '.'.  Fixed point with ``X >= 0`` is the first
``X + 1`` digits of ``N``, '.', and the rest; with ``X < 0`` it is '0.',
``-X - 1`` zeros and all of ``N``; scientific is ``X = 0`` plus an
exponent.  So a float field holds the digits of ``N`` twice, and which
bytes are kept depends only on ``X``, the sign and the number of
significant digits: one row of a mask table.  The field, as 13 uint32
words of 4 bytes::

    words 0-4   copy A: '0', then ',-' (negative) or '0,', then d0; d1..d16
    word 5      2 unused bytes, '0.'
    words 6-10  copy B: '000', d0; d1..d16
    words 11-12 the exponent 'e+dd' or 'e+ddd', ending at byte 48

The first column of a row takes its mask without the separator.  Text
that CPython formats goes to bytes 3.. of the field, after a separator at
byte 2.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

#: bytes of one float field
_WIDTH = 52
#: decimal exponents of finite nonzero doubles
_XMIN, _XMAX = -324, 308
#: powers 10**k tabulated for the scaling ``a * 10**(16 - X)``
_KMIN, _KMAX = 16 - _XMAX - 1, 16 - _XMIN + 1
#: mask shapes: fixed point at X = -4..16, then scientific with 2 and 3
#: exponent digits
_SHAPES = 23
#: mask rows: shape x end of the significant digits (0..20) x sign x
#: separator, then fallback text rows (with and without separator) by length
_FALLBACK = _SHAPES * 21 * 2 * 2
#: the longest ``%.17g`` text, '-2.2250738585072014e-308'
_LONGEST = 24
#: a block of CSV text holds at most this many rows and ``_BLOCK_BYTES`` of
#: buffer: wide rows make blocks of fewer rows, which bounds the memory a
#: block takes, its temporaries included
_BLOCK_ROWS = 4096
_BLOCK_BYTES = 1 << 19
#: a scaled value whose fraction is this close to 1/2 goes to CPython
_TIE = 2.0 ** -30


def _words(text: str) -> np.ndarray:
    """The uint32 words of an ASCII text, 4 bytes each."""
    return np.frombuffer(text.encode("ascii"), np.uint32)


@functools.cache
def _tables() -> SimpleNamespace:
    """Read-only lookup tables, built from ints on the first CSV call (a few
    ms)."""
    # 10**k = (hi + lo) * 2**shift with hi + lo in [1, 2); int / int true
    # division rounds correctly, so hi is 10**k / 2**shift rounded and lo
    # the rounded remainder: hi + lo is within 2**-105 of the power.
    shift, hi, lo = [], [], []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        b = num.bit_length() - den.bit_length()
        if (num << max(-b, 0)) < (den << max(b, 0)):
            b -= 1
        num, den = (num, den << b) if b >= 0 else (num << -b, den)
        h = num / den
        hn, hd = h.as_integer_ratio()
        shift.append(b)
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    hi_c = hi * 134217729.0  # Veltkamp split of hi into two 26-bit halves
    hi_h = hi_c - (hi_c - hi)

    digits = np.arange(10_000)
    dig4 = np.stack([digits // 1000, digits // 100 % 10, digits // 10 % 10, digits % 10], -1)
    # end of the significant digits of chunk j = 1..4, as an offset in its copy
    kept4 = 4 - (digits % 10 == 0) - (digits % 100 == 0) - (digits % 1000 == 0)
    stop = np.where(digits > 0, 4 * np.arange(1, 5)[:, None] + kept4, 0).astype(np.uint8)

    x = np.arange(_XMIN, _XMAX + 1)
    fixed = (x >= -4) & (x <= 16)
    shape = np.where(fixed, x + 4, np.where(np.abs(x) < 100, 21, 22))
    expo = _words("".join(f"e{v:+04d}   " if abs(v) >= 100 else f" e{v:+03d}   "
                          for v in x.tolist())).reshape(-1, 2)

    # Keep masks by (shape, end of the digits in copy B, sign, first column),
    # then for fallback text of each length, with and without separator.
    masks = np.zeros((_FALLBACK + 2 * (_LONGEST + 1), _WIDTH), bool)
    grid = masks[:_FALLBACK].reshape(_SHAPES, 21, 2, 2, _WIDTH)
    grid[:, :, 1, :, 2] = True  # '-'
    grid[:, :, 0, 0, 2] = grid[:, :, 1, 0, 1] = True  # separator
    for s in range(_SHAPES):
        xs = s - 4 if s < 21 else 0  # scientific is laid out as X = 0
        if xs >= 0:
            grid[s, :, :, :, 3:4 + xs] = True  # d0..dX of copy A
            grid[s, 5 + xs:, :, :, 23] = True  # '.', when digits follow
        else:
            grid[s, :, :, :, 22:24] = True  # '0.'
        for end in range(4 + max(xs, 0), 21):
            # copy B: -X-1 of its zeros when X < 0, then the digits after dX
            grid[s, end, :, :, 28 + xs:24 + end] = True
        if s >= 21:
            grid[s, :, :, :, 66 - s:49] = True  # 'e+dd' or 'e+ddd'
    for length in range(_LONGEST + 1):
        masks[_FALLBACK + length, 2:3 + length] = True
        masks[_FALLBACK + _LONGEST + 1 + length, 3:3 + length] = True

    tables = SimpleNamespace(
        shift=np.array(shift, np.int32), hi=hi, hi_h=hi_h, hi_l=hi - hi_h, lo=np.array(lo),
        dig4=(dig4 + 48).astype(np.uint8).view(np.uint32)[:, 0], stop=stop,
        # d0 in copy B, then in copy A after '0,' and after ',-'
        first=_words("".join(f"{lead}{d}" for lead in ("000", "00,", "0,-") for d in range(10))),
        point=_words("  0.")[0], expo=expo.T.copy(), shape=shape,
        masks=masks.view(f"V{_WIDTH}")[:, 0],
    )
    for table in vars(tables).values():
        if isinstance(table, np.ndarray):
            table.flags.writeable = False  # shared by every caller
    return tables


def _digits(a, e):
    """``N = round(a * 10**(16 - e))`` and whether ``a * 10**(16 - e)`` lies
    within ``_TIE`` of a half-integer, for positive ``a`` with the scaled
    value below 2**57."""
    t = _tables()
    k = (16 - _KMIN) - e
    big = np.ldexp(a, t.shift[k])  # exact: a power of two
    hi = t.hi[k]
    p = big * hi
    # Dekker's product: p + err == big * hi exactly (numpy has no FMA)
    c = big * 134217729.0
    big_h = c - (c - big)
    big_l = big - big_h
    hi_h, hi_l = t.hi_h[k], t.hi_l[k]
    err = ((big_h * hi_h - p) + big_h * hi_l + big_l * hi_h) + big_l * hi_l
    # The scaled value is p + frac.  |err| <= 8 and |big * lo| < 16, so
    # frac < 25 carries at most four roundings of 2**-49 and the 2**-105
    # error of hi + lo times big < 2**57: it is within 2**-46 of exact,
    # far inside the 2**-30 that decides a near-tie.
    whole = np.floor(p)
    frac = (p - whole) + (err + big * t.lo[k])
    carry = np.floor(frac)
    frac -= carry
    n = whole.astype(np.int64) + carry.astype(np.int64) + (frac > 0.5)
    return n, np.abs(frac - 0.5) < _TIE


def _retry(a, e, n, tie, rows, step):
    """Redo ``rows`` at exponent ``e + step``; keep the digits that land in
    [1e16, 1e17)."""
    if rows.size:
        n2, tie2 = _digits(a[rows], e[rows] + step)
        ok = (n2 >= 10 ** 16) & (n2 < 10 ** 17)
        rows = rows[ok]
        n[rows], tie[rows], e[rows] = n2[ok], tie2[ok], e[rows] + step


def float_fields(x: np.ndarray, field: np.ndarray, first: bool) -> np.ndarray:
    """Write the ``%.17g`` field of each float of the 2-D array ``x`` into
    ``field`` (uint8, shape ``x.shape + (52,)``) and return each field's row
    of ``_tables().masks``; with ``first``, column 0 has no separator.
    ``x`` must have negative zero folded into zero.

    Exact digits: ``e`` guesses the decimal exponent, the value is scaled by
    ``10**(16 - e)`` in double-double arithmetic and rounded to the integer
    ``N``, and a guess that misses [1e16, 1e17) is redone once at the
    neighbouring exponent.  Zeros take the digits 0.  Non-finite values and
    near-ties go to CPython, so no digit rests on the fast rounding.
    """
    t = _tables()
    flat = x.reshape(-1)
    a = np.abs(flat)
    finite = np.isfinite(a)
    ok = finite & (a > 0)
    a = np.where(ok, a, 1.5)
    e = np.floor(np.log10(a)).astype(np.int64)
    n, tie = _digits(a, e)
    _retry(a, e, n, tie, np.flatnonzero(n <= 10 ** 16), -1)
    _retry(a, e, n, tie, np.flatnonzero(n >= 10 ** 17), 1)
    n[~ok] = 0
    e[~ok] = 0
    e -= _XMIN

    # the 13 words of each field, one row of ``words`` each
    words = np.empty((13, flat.size), np.uint32)
    lead = n // 10 ** 16
    n -= lead * 10 ** 16
    end = np.where(lead > 0, np.uint8(4), np.uint8(0))
    for j, power in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1), 1):
        chunk = n // power
        n -= chunk * power
        np.take(t.dig4, chunk, out=words[j])
        np.maximum(end, t.stop[j - 1][chunk], out=end)
    words[7:11] = words[1:5]
    neg = flat < 0
    np.take(t.first, lead, out=words[6])
    lead += 10 + 10 * neg
    np.take(t.first, lead, out=words[0])
    words[5] = t.point
    np.take(t.expo[0], e, out=words[11])
    np.take(t.expo[1], e, out=words[12])
    field.view(np.uint32)[...] = words.T.reshape(x.shape + (13,))
    rows = ((t.shape[e] * 21 + end) * 2 + neg) * 2
    rows = rows.reshape(x.shape)
    if first:
        rows[:, 0] += 1

    for i in np.flatnonzero(~finite | (tie & ok)):
        at = np.unravel_index(i, x.shape)
        text = ("%.17g" % flat[i]).encode("ascii")
        field[at][2] = ord(",")
        field[at][3:3 + len(text)] = np.frombuffer(text, np.uint8)
        rows[at] = _FALLBACK + (_LONGEST + 1) * (first and at[1] == 0) + len(text)
    return rows


def float_text(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each float of the 1-D ``values``, as a
    fixed-width bytes array as wide as the longest text.

    Each block of values is formatted by one ``float_fields`` call, and the
    kept bytes of its fields are scattered, by their ``masks`` rows, straight
    into its rows of one zeroed result of ``_LONGEST`` bytes per value, so
    no Python object is made per value and the text is held once.  The
    array returned views the first bytes of each row: unless some text is
    ``_LONGEST`` bytes long it is not contiguous.
    """
    t = _tables()
    values = np.asarray(values, float)
    result = np.zeros((values.size, _LONGEST), np.uint8)
    size = _BLOCK_BYTES // _WIDTH
    field = np.empty((min(values.size, size), 1, _WIDTH), np.uint8)
    width = 1
    for start in range(0, values.size, size):
        with np.errstate(invalid="ignore"):  # a signalling NaN
            x = values[start:start + size, None] + 0.0
        n = x.shape[0]
        keep = t.masks[float_fields(x, field[:n], True)].view(bool)
        lengths = keep.sum(1)
        width = max(width, int(lengths.max()))
        result[start:start + n][np.arange(_LONGEST) < lengths[:, None]] = field[:n, 0][keep]
    return result[:, :width].view(f"S{width}")[:, 0]


def _as_text(column) -> np.ndarray:
    """A text column as a contiguous fixed-width bytes array."""
    text = np.asarray(column)
    return np.ascontiguousarray(text if text.dtype.kind == "S" else text.astype("S"))


def blocks(parts):
    """Yield the CSV text of a table, at most ``_BLOCK_ROWS`` rows (and
    ``_BLOCK_BYTES`` of buffer) at a time.  ``parts`` yields the table's
    rows in order, each part a list of equal-length 1-D columns; every part
    has the columns of the first, of the same kinds and text widths, so
    that one buffer, allocated for the first part, serves the whole table.

    Float arrays print as ``%.17g`` with negative zero folded into zero;
    any other column prints as the ASCII text of its ``bytes`` or ``str``
    values.  A row of the block buffer holds a field per column (separator
    first) and a newline, each padded to whole uint32 words.  Each run of
    adjacent float columns is formatted by one ``float_fields`` call, and
    the block's text is one compaction of the buffer.
    """
    t = _tables()
    parts = iter(parts)
    columns = next(parts, None)
    if columns is None:
        return
    at = 0
    # float runs as (offset, column numbers); texts as (offset, column
    # number, width, the mask of a text of each length)
    floats, texts = [], []
    for i, column in enumerate(columns):
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            if floats and floats[-1][0] + _WIDTH * len(floats[-1][1]) == at:
                floats[-1][1].append(i)
            else:
                floats.append((at, [i]))
            at += _WIDTH
        else:
            width = _as_text(column).dtype.itemsize
            # the mask of a text of each length, as one void item per length
            masks = np.zeros((width + 1, -(-(width + 1) // 4) * 4), bool)
            masks[:, 0] = at != 0
            masks[:, 1:width + 1] = np.tri(width + 1, width, -1, bool)
            masks = masks.view(f"V{masks.shape[1]}")[:, 0]
            texts.append((at, i, width, masks))
            at += masks.itemsize

    # one buffer for every block; the separators and newline stay put
    size = max(1, min(len(columns[0]), _BLOCK_ROWS, _BLOCK_BYTES // (at + 4)))
    buf = np.zeros((size, at + 4), np.uint8)
    keep = np.zeros(buf.shape, bool)
    buf[:, at] = ord("\n")
    keep[:, at] = True
    for off, _, _, masks in texts:
        buf[:, off] = ord(",")
    values = [np.empty((size, len(run))) for _, run in floats]

    while columns is not None:
        rows = len(columns[0])
        text_columns = []
        for off, i, width, masks in texts:
            text = _as_text(columns[i])
            if text.dtype.itemsize != width:
                raise ValueError(f"text column {i} is {text.dtype.itemsize} bytes wide "
                                 f"in a later part, {width} in the first")
            text_columns.append((off, text.view(np.uint8).reshape(rows, width),
                                 np.char.str_len(text), masks))
        for start in range(0, rows, size):
            stop = min(start + size, rows)
            n = stop - start
            for (off, run), x in zip(floats, values):
                x = x[:n]
                for j, i in enumerate(run):
                    x[:, j] = columns[i][start:stop]
                with np.errstate(invalid="ignore"):  # a signalling NaN
                    x += 0.0
                end = off + _WIDTH * len(run)
                shape = (n, len(run), _WIDTH)
                rows_at = float_fields(x, buf[:n, off:end].reshape(shape), off == 0)
                keep[:n, off:end] = t.masks[rows_at].view(bool)
            for off, text, lengths, masks in text_columns:
                buf[:n, off + 1:off + 1 + text.shape[1]] = text[start:stop]
                mask = masks[lengths[start:stop]].view(bool)
                keep[:n, off:off + masks.itemsize] = mask.reshape(n, -1)
            yield buf[:n][keep[:n]].tobytes().decode("ascii")
        columns = next(parts, None)
