"""Exact '%.17g' and '%.2f' on whole arrays of doubles, for the CSV and SVG
writers.

format_g17(values, seps) and format_f2(values, seps) return the bytes of
'%.17g' % v, or '%.2f' % v, followed by its separator byte, for each value,
joined: the bytes Python's '%' gives, from arithmetic on doubles in place of
one dtoa call per value.  A separator 0 writes nothing.  Fewer than _SMALL
values are one '%' template call, which costs less there than either
kernel's fixed cost.

The rest of this docstring is format_g17's argument; format_f2's is its own
docstring.

Digits.  Let k = floor(log10|x|) and s = 16 - k.  A table holds 10^s as
hi + lo, hi the double nearest 10^s and lo the double nearest 10^s - hi,
both from exact integer arithmetic, and hi's Veltkamp split.  The exact
P = |x| 10^s is carried as p + q: p + e is the Dekker two-product of |x|
and hi, exact, and q = e + |x| lo.  p is an even integer, as P > 2^53.

Exponent.  k is chosen so that the exact P lies in [1e16, 1e17): the tests
are the signs of (p - 1e16) + q and (p - 1e17) + q, whose differences are
exact, never the rounded N.  Next to a power of ten the rounded N alone
picks the wrong side: log10 gives -280 for 9.9999999999999996e-281, whose
P at k = -280 is 1e16 - 0.43; that rounds to N = 1e16, which would print
as 1e-280.  Where P lies within the arithmetic's error of 1e16 or 1e17,
either choice of k gives the same bytes, through the carry below.

Rounding.  N = p + rint(q), as an integer; if N = 1e17 it becomes 1e16 and
k becomes k + 1.  k is then the exponent of the rounded value, which
selects fixed or scientific notation as '%g' does.

Exactness.  For 1e-283 <= |x| <= 1e283 every table entry, lo included, is
a normal double, no step of the two-product overflows or underflows, and
p + q is within 2^-47 of P: hi + lo is 10^s to a relative 2^-106, and q
carries the rounding of |x| lo and of its sum with e, each at most 2^-53
of a number below 32.  So rint(q) rounds as the exact P does whenever the
fraction of q is more than 2^-47 from 1/2.  A value goes through
'%.17g' % v on its own when its fraction lies within 2^-30 of 1/2, a
margin far wider than the error that takes in every exact 17-digit tie;
when its magnitude lies outside [1e-283, 1e283], where a table entry or
a step of the two-product would overflow or leave the normal range; and
when it is nan or +-inf.  +-0 is written directly.

Layout.  Each value owns 48 byte slots, six little-endian 8-byte words:
its sign, '0.' and up to three zeros for -4 <= k < 0, its first digit and
that digit's '.' slot; four words of four digits, each followed by a '.'
slot; 'e', the exponent's sign and three digits, the separator and two
slots that stay 0, so that every value starts on a word.  Each digit word
is one table entry per 4-digit group.  A slot left 0 is dropped when the
block is joined: '%g' strips the trailing zeros after the point, and the
point with nothing after it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_TINY, _HUGE = 1e-283, 1e283  # the magnitudes the arithmetic formats exactly
_K_MIN, _K_MAX = -284, 284    # their exponents k, and k + 1 after a carry
_TIE_MARGIN = 2.0 ** -30      # fractions of q this close to 1/2 go through '%'
_SPLIT = 134217729.0          # 2^27 + 1, Veltkamp's constant

_ROW = 48   # byte slots per value (see the docstring)
_FIRST = 6  # the first digit's slot; digit j is at _FIRST + 2j, its '.' after it
_SEP = 45   # the separator's slot
_WORDS = np.dtype("<u8")

# Fewer values than this are one '%' template call.  A kernel call has a
# fixed cost of 0.03 to 0.1 ms; on a 2-core Xeon format_f2 breaks even with
# the template near 200 values and format_g17 near 270.
_SMALL = 256

_F2_CAP = 1e7 - 1  # '%.2f' of a smaller magnitude has at most 7 integer digits
_F2_WORDS = np.dtype("<u4")


def _word(text: bytes, at: int = 0) -> int:
    """text as a little-endian word, from byte at on."""
    return int.from_bytes(text.ljust(8 - at, b"\0"), "little") << 8 * at


@cache
def _tables():
    """The powers 10^(16 - k), k from _K_MIN to _K_MAX, as hi's split halves
    and lo; each 4-digit group as a word and its trailing zeros; the first
    word's "0." prefixes by -k and the last word's exponents by k."""
    hi, lo = [], []
    for s in range(16 - _K_MIN, 15 - _K_MAX, -1):
        if s >= 0:
            exact = 10 ** s
            h = float(exact)
            lo.append(float(exact - int(h)))
        else:
            den = 10 ** -s
            h = 1 / den  # int / int is correctly rounded
            num, pow2 = h.as_integer_ratio()
            lo.append((pow2 - num * den) / (den * pow2))
        hi.append(h)
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    groups = np.arange(10000)
    pairs = np.zeros(10000, _WORDS)
    zeros = np.zeros(10000, np.int64)
    for j in range(4):
        pairs |= (ord("0") + groups // 10 ** (3 - j) % 10).astype(_WORDS) << 16 * j
        zeros += groups % 10 ** (j + 1) == 0
    # masks[j] keeps the slots of digits 1 to j in the four digit words
    masks = np.array([[(1 << 16 * min(max(j - 4 * w, 0), 4)) - 1 for w in range(4)]
                      for j in range(17)], dtype=_WORDS)
    prefix = np.array([0] + [_word(b"0." + b"0" * (j - 1), 1) for j in range(1, 5)],
                      dtype=_WORDS)
    exponents = np.array([0 if -4 <= k < 17 else _word(b"e%+03d" % k)
                          for k in range(_K_MIN, _K_MAX + 1)], dtype=_WORDS)
    return (hh, hi - hh, np.array(lo)), pairs, zeros, masks, prefix, exponents


def _by_template(spec: bytes, values: np.ndarray, seps: np.ndarray) -> bytes:
    """The bytes of spec % v and its separator for each value: one '%' call."""
    template = np.empty((values.size, len(spec) + 1), np.uint8)
    template[:, :-1] = np.frombuffer(spec, np.uint8)
    template[:, -1] = seps
    return template.tobytes().translate(None, b"\0") % tuple(values.tolist())


def _scaled(a: np.ndarray, row: np.ndarray, powers):
    """p, q with p + q = a 10^(16 - k) to within 2^-47 (see the docstring)."""
    hh, hl, lo = (t.take(row) for t in powers)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * (hh + hl)
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, e + a * lo


def format_g17(values: np.ndarray, seps: np.ndarray) -> bytes:
    """b''.join(b'%.17g' % v + sep for v, sep in zip(values, seps)).

    values is a 1-d float64 array and seps a uint8 array of the same length
    holding each value's separator byte.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n < _SMALL:
        return _by_template(b"%.17g", x, seps)
    powers, pairs, zeros, masks, prefix, exponents = _tables()
    a = np.abs(x)
    plain = (a >= _TINY) & (a <= _HUGE)  # nan fails both
    a[~plain] = 1.0
    with np.errstate(all="ignore"):
        row = np.floor(np.log10(a)).astype(np.int64) - _K_MIN
        p, q = _scaled(a, row, powers)
        # log10 is off by at most one: one step of k brings P into [1e16, 1e17)
        step = ((p - 1e17) + q >= 0).astype(np.int64) - ((p - 1e16) + q < 0)
        moved = np.flatnonzero(step)
        if moved.size:
            row[moved] += step[moved]
            pm, qm = _scaled(a[moved], row[moved], powers)
            p[moved], q[moved] = pm, qm
            plain[moved] &= ((pm - 1e16) + qm >= 0) & ((pm - 1e17) + qm < 0)
        r = np.rint(q)
        plain &= np.abs(q - r) < 0.5 - _TIE_MARGIN
        big = p.astype(np.int64) + r.astype(np.int64)
    carry = big == 10 ** 17
    big[carry] = 10 ** 16
    row += carry
    k = row + _K_MIN

    groups = np.empty((n, 4), np.int64)
    upper = big // 10 ** 8  # the first 9 digits
    lead = upper // 10 ** 8
    groups[:, 0] = upper // 10 ** 4 - lead * 10 ** 4
    groups[:, 1] = upper % 10 ** 4
    lower = big - upper * 10 ** 8
    groups[:, 2] = lower // 10 ** 4
    groups[:, 3] = lower % 10 ** 4
    trail = zeros.take(groups[:, 3])
    run = groups[:, 3] == 0
    for j in (2, 1, 0):
        trail += run * zeros.take(groups[:, j])
        run &= groups[:, j] == 0
    last = 16 - trail  # the last nonzero digit
    fixed = (k >= -4) & (k < 17)
    point = np.where(fixed, k, 0)  # the digit the '.' follows; < 0 before them

    out = np.empty((n, _ROW // 8), _WORDS)
    out[:, 0] = ((np.signbit(x) * ord("-")).astype(_WORDS)
                 | prefix.take(np.where(fixed & (k < 0), -k, 0))
                 | (ord("0") + lead).astype(_WORDS) << 8 * _FIRST)
    out[:, 1:5] = pairs.take(groups) & masks.take(np.maximum(last, point), axis=0)
    out[:, 5] = exponents.take(row) | seps.astype(_WORDS) << 8 * (_SEP % 8)
    text = out.view(np.uint8).reshape(n, _ROW)
    dot = np.flatnonzero((point >= 0) & (last > point))
    text.ravel()[dot * _ROW + _FIRST + 2 * point[dot] + 1] = ord(".")

    zero = np.flatnonzero(x == 0)
    text[zero, 1:_SEP] = 0
    text[zero, _FIRST] = ord("0")
    plain[zero] = True
    for i in np.flatnonzero(~plain).tolist():
        field = b"%.17g" % x[i]
        text[i, :_SEP] = 0
        text[i, :len(field)] = np.frombuffer(field, np.uint8)
    return text.tobytes().translate(None, b"\0")


@cache
def _f2_tables():
    """The first word of a value: its sign and the integer part's upper 3
    digits, by upper + 1000 * sign; the second: the lower 4 digits, by
    lower, or by lower + 10000 when upper digits precede them; the third:
    '.dd' by the cents."""
    groups = np.arange(10000)
    full = np.zeros(10000, _F2_WORDS)
    lead = np.zeros(10000, _F2_WORDS)  # leading zeros left 0
    for j in range(4):
        digit = (ord("0") + groups // 10 ** (3 - j) % 10).astype(_F2_WORDS) << 8 * j
        full |= digit
        lead |= np.where(groups >= 10 ** (3 - j), digit, 0).astype(_F2_WORDS)
    head = np.concatenate((lead[:1000], lead[:1000] | ord("-")))
    lower = np.concatenate((lead, full))
    lower[0] = ord("0") << 24  # a lone 0
    cents = np.arange(100)
    dots = ord(".") | (ord("0") + cents // 10) << 8 | (ord("0") + cents % 10) << 16
    return head, lower, dots.astype(_F2_WORDS)


def format_f2(values: np.ndarray, seps: np.ndarray) -> bytes:
    """b''.join(b'%.2f' % v + sep for v, sep in zip(values, seps)).

    values is a 1-d float64 array and seps a uint8 array of the same length
    holding each value's separator byte.

    The 100 |x| that '%' rounds is exact as p + e, the Dekker two-product of
    |x| and 100, since 100 splits exactly.  With r = rint(p), f = p - r is
    exact, and so are f - 1/2 and f + 1/2 wherever |f| >= 1/4, and the sign
    of a rounded sum is the sign of the exact sum; so the signs of
    (f - 1/2) + e and (f + 1/2) + e say whether 100 |x| lies above r + 1/2
    or below r - 1/2, and the rounded value is r + 1, r - 1 or r.  An exact
    tie m + 1/2, below 2^53, is a double: then p is the tie, e = 0, and rint
    has already taken the even neighbour, as '%' does.  So no value needs
    '%' for its rounding, however near a tie.  The sign is written wherever
    x has its sign bit set, as for -0.0 and -0.001, which '%' writes as
    -0.00.

    Each value owns 12 byte slots, three little-endian 4-byte words from
    _f2_tables: the sign and the upper 3 integer digits, the lower 4, then
    '.dd' and the separator.  Leading zeros are left 0, and the 0 slots are
    dropped when the values are joined.  Magnitudes from _F2_CAP on, which
    would need more digits, nan and +-inf go through '%' one at a time.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n < _SMALL:
        return _by_template(b"%.2f", x, seps)
    head, lower_words, dots = _f2_tables()
    a = np.abs(x)
    plain = a < _F2_CAP  # nan fails
    a[~plain] = 0.0
    p = a * 100.0
    c = _SPLIT * a
    ah = c - (c - a)
    e = (ah * 100.0 - p) + (a - ah) * 100.0  # p + e = 100 |x|, exactly
    r = np.rint(p)
    f = p - r
    cents = r.astype(np.int32)
    cents += (f - 0.5) + e > 0  # 100 |x| lies above r + 1/2
    cents -= (f + 0.5) + e < 0  # 100 |x| lies below r - 1/2
    whole, cent = np.divmod(cents, 100)
    upper, lower = np.divmod(whole, 10000)

    out = np.empty((n, 3), _F2_WORDS)
    out[:, 0] = head.take(upper + 1000 * np.signbit(x))
    out[:, 1] = lower_words.take(lower + 10000 * (upper > 0))
    out[:, 2] = dots.take(cent) | seps.astype(_F2_WORDS) << 24
    text = out.view(np.uint8).reshape(n, 12)
    pieces, start = [], 0
    for i in np.flatnonzero(~plain).tolist():
        pieces += [text[start:i].tobytes(), b"%.2f%c" % (x[i], int(seps[i]))]
        start = i + 1
    pieces.append(text[start:].tobytes())
    return b"".join(pieces).translate(None, b"\0")
