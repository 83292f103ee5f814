"""Float64 arrays as CSV text, each cell exactly ``repr`` of its double.

``csv_lines(block)`` returns the lines of a 2-D float array, cells joined by
"," and each row ended by "\\n".  A cell reads as ``repr(float(cell))``: the
shortest decimal that reads back as the same double and, of several that
short, the nearest one, a tie going to the even last digit.

A cell x with 1e-4 <= |x| < 1e16 (repr's fixed notation) is decided for the
whole block at once, exactly, in float64 and int64 arithmetic (the
shortest-digits criterion of Adams, "Ryu: fast float-to-string conversion",
PLDI 2018):

- E = floor(log10 |x|), corrected so that N = |x| 10^(16-E) lies in
  [10^16, 10^17).  10^(16-E) is an exact double, so Dekker's error-free
  product (Numer. Math. 18, 1971) gives N exactly as hi + lo, hi an even
  integer and |lo| <= 8.
- The 15-, 16- and 17-digit candidates D are N rounded half-even to a
  multiple of 100, 10 and 1, from the integer hi + floor(lo) and whether lo
  is an integer.
- The result is the shortest candidate strictly within half an ulp of x:
  |D - N| < h, h = ulp(x) 10^(16-E) / 2, an exact double in (0.55, 11.2).
  The test reads D - hi - h < lo < D - hi + h; both bounds are exact
  wherever lo lies near them.  The 17-digit candidate always passes.
- Its digits are laid out in repr's notation for E: "0.000ddd" below 1,
  "ddd.ddd" or "ddd.0" above.

A power of two needs no rule of its own (the doubles below it lie half as
far apart): none in the range has a shorter candidate in that narrower
half.  Nor does a candidate exactly half an ulp away, or one rounding up to
10^(E+1): none occurs in the range.

Every other cell (+-0, +-inf, nan, subnormals, |x| < 1e-4 or >= 1e16) goes
through ``repr`` itself, in one ``%`` call per block.
"""

import numpy as np

# Cells per block.  A block's work arrays peak near 140 kB; at 2048 cells
# the mixed-grid CLI process's peak RSS rose 0.9 % over the per-cell repr
# writer's, at 1024 0.4 %, for 8 ms more on fig7's trace.csv.
BLOCK_CELLS = 1024
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter of a 53-bit mantissa


def _split(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


# 10^k for k = 0..21, exact doubles, and their Dekker halves.
_POW10 = np.array([float(10**k) for k in range(22)])
_POW10_HI, _POW10_LO = _split(_POW10)
# A normal double's exponent bits, 2^floor(log2 x) read as a double, and
# half its ulp (2^(floor(log2 x) - 53)) scaled by 10^k, both exact.
_EXPONENT = 0x7FF0000000000000
_HALF_ULP = _POW10 * 2.0**-53
# The four ASCII digits of 0..9999, as one uint32 each, and how many of
# them are trailing zeros.
_CHARS = np.arange(48, 58, dtype=np.uint8)
_QUAD_CHARS = np.stack(np.broadcast_arrays(*np.ix_(_CHARS, _CHARS, _CHARS, _CHARS)),
                       axis=-1).reshape(10000, 4)
_QUADS = _QUAD_CHARS.view(np.uint32).ravel()
_z = (_QUAD_CHARS == 48).astype(np.int8)
_QUAD_ZEROS = _z[:, 3] * (1 + _z[:, 2] * (1 + _z[:, 1] * (1 + _z[:, 0])))

# A cell is laid out in 32 bytes, four little-endian uint64 words, then
# its zero bytes are dropped.  Digit j of a fixed-notation cell sits at
# byte 11 + j, or 12 + j past the dot at byte 12 + E; the sign, and below 1
# the "0." and zeros before the digits, end at byte 10.  A repr from the
# fallback starts at byte 0.  The separator follows the last byte kept.
_ROW = 32
_FIRST = 11
_U64 = np.dtype("<u8")


def _bytes_table(rows):
    return np.ascontiguousarray(rows, np.uint8).view(_U64)


# ONES[b]: bytes 0..b-1 set; ONES_FROM[b]: bytes b.. set; DIGITS_BEFORE[b]:
# bytes 11..b-1 set.
_ONES = _bytes_table((np.arange(_ROW) < np.arange(_ROW + 2)[:, None]) * 255)
_ONES_FROM = ~_ONES
_DIGITS_BEFORE = _ONES & _ONES_FROM[_FIRST]
# SEP[2 b + last]: "," at byte b, or "\n" closing a row.
_SEP = np.zeros((_ROW, 2, _ROW), np.uint8)
_SEP[np.arange(_ROW), 0, np.arange(_ROW)] = 44
_SEP[np.arange(_ROW), 1, np.arange(_ROW)] = 10
_SEP = _bytes_table(_SEP.reshape(2 * _ROW, _ROW))
# MARKS[2 (E + 4) + negative]: the sign, the dot and the zeros before the
# digits of a cell of decimal exponent E.
_MARKS = np.zeros((20, 2, _ROW), np.uint8)
for _e in range(-4, 16):
    _m = _MARKS[_e + 4]
    if _e >= 0:
        _m[:, _FIRST + 1 + _e] = 46
        _m[1, _FIRST - 1] = 45
    else:
        _m[:, _FIRST - 1 + _e:_FIRST] = 48
        _m[:, _FIRST + _e] = 46
        _m[1, _FIRST - 2 + _e] = 45
_MARKS = _bytes_table(_MARKS.reshape(40, _ROW))


def _scaled(ax, e):
    """N = ax 10^(16-e) as hi + lo, exactly (Dekker's product)."""
    k = 16 - e
    hi = ax * _POW10[k]
    xh, xl = _split(ax)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    return hi, lo


def _round_half_even(n, fractional, m):
    """N rounded half-even to a multiple of m, from n = floor(N) and
    whether N has a fractional part."""
    q = n // m
    r = 2 * (n - q * m)
    return (q + ((r > m) | ((r == m) & (fractional | (q & 1 == 1))))) * m


def _shortest(ax):
    """Decimal exponent E of each ax in [1e-4, 1e16) and its shortest
    candidate D: 17 digits, zeros past the shortest ones."""
    e = np.floor(np.log10(ax)).astype(np.intp)
    hi, lo = _scaled(ax, e)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    if low.any() or high.any():  # log10 rounded across a power of ten
        e += high
        e -= low
        hi, lo = _scaled(ax, e)
    h = (ax.view(np.int64) & _EXPONENT).view(float) * _HALF_ULP[16 - e]
    whole = hi.astype(np.int64)
    below = np.floor(lo)
    floor_n = whole + below.astype(np.int64)
    fractional = lo != below
    d = whole + np.rint(lo).astype(np.int64)  # 17 digits, hi even: ties to even
    for m in (10, 100):
        cand = _round_half_even(floor_n, fractional, m)
        u = (cand - whole).astype(float)
        d = np.where((u - h < lo) & (lo < u + h), cand, d)
    return e, d


def _digit_words(d):
    """The 32-byte rows holding D's 17 ASCII digits at bytes 11-27, and how
    many of them are significant."""
    groups = np.empty((len(d), 5), np.intp)  # one digit, then four of four
    for k in (4, 3, 2, 1):
        q = d // 10000
        groups[:, k] = d - 10000 * q
        d = q
    groups[:, 0] = d
    z = _QUAD_ZEROS.take(groups[:, 1:])
    sig = 17 - (z[:, 3] + (z[:, 3] == 4) * (z[:, 2] + (z[:, 2] == 4) * (
        z[:, 1] + (z[:, 1] == 4) * z[:, 0])))
    words = np.zeros((len(d), _ROW // 4), np.uint32)
    words[:, 2:7] = _QUADS.take(groups)  # bytes 8-10 "000", then D's digits
    return words.view(_U64), sig


def _open_dot(words, dot):
    """Move each row's bytes from ``dot`` on one byte on, leaving byte
    ``dot`` zero."""
    flat = words.ravel()
    moved = flat << np.uint64(8)
    moved[1:] |= flat[:-1] >> np.uint64(56)
    moved = moved.reshape(words.shape)
    moved &= _ONES_FROM.take(dot + 1, axis=0)
    words &= _ONES.take(dot, axis=0)
    words |= moved


def csv_lines(block):
    """The CSV lines of a 2-D float array, every cell ``repr`` of its double."""
    block = np.asarray(block, dtype=float)
    x = block.ravel()
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16)  # False on nan
    e, d = _shortest(np.where(fast, ax, 1.0))
    words, sig = _digit_words(d)
    upper = e >= 0
    _open_dot(words, np.where(upper, _FIRST + 1 + e, _ROW))
    end = _FIRST + np.where(upper, np.where(sig > e + 1, sig + 1, e + 3), sig)
    words &= _DIGITS_BEFORE.take(end, axis=0)
    words |= _MARKS.take(2 * (e + 4) + (x < 0.0), axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%-24r" * slow.size) % tuple(x[slow].tolist())
        cells = np.zeros((slow.size, _ROW), np.uint8)
        cells[:, :24] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
        cells[cells == 32] = 0
        words[slow] = cells.view(_U64)
        end[slow] = np.count_nonzero(cells, axis=1)
    last = np.zeros(block.shape, np.intp)
    last[:, -1] = 1
    words |= _SEP.take(2 * end + last.ravel(), axis=0)
    flat = words.view(np.uint8).ravel()
    return np.compress(flat != 0, flat).tobytes()


def row_blocks(n_rows, n_cols):
    """Row slices of an n_rows x n_cols table, BLOCK_CELLS cells (or one
    row) each."""
    step = max(1, BLOCK_CELLS // n_cols)
    return (slice(a, a + step) for a in range(0, n_rows, step))


def write_csv(path, header, blocks):
    """Write a header line, then every block's ``csv_lines``."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for block in blocks:
            fh.write(csv_lines(block))
