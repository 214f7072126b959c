"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

``cells(values)`` gives, for every value v of a float64 array, the bytes of
``repr(float(v))``: the shortest decimal that reads back as v (of several,
the one closest to v, ties to an even last digit), laid out by Python's
``'r'`` rules: exponent form when the decimal point position ``decpt`` of
0.d1d2...dn x 10**decpt is <= -4 or > 16, ``.0`` after an integer, and
``nan``, ``inf``, ``-inf``, ``0.0``, ``-0.0``.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), run over whole arrays in fixed-width integer arithmetic:
the products with its 126-bit table entries are taken in 32-bit limbs of
uint64 arrays.  The published algorithm serves Java's Double.toString, which
wants at least two digits.  This module tries the one-digit-shorter
candidate at every length and does not widen the two smallest subnormals,
so that the digits are the shortest, as Python's.

Each text is assembled in three little-endian uint64 words, the 24 bytes of
the longest repr ('-2.2250738585072014e-308'), and returned NUL padded as a
numpy 'S24' array.  All arithmetic stays in uint64 (int64 for exponents),
never mixing the two, so numpy 1.x and 2.x promote alike.
"""

import functools

import numpy as np

WIDTH = 24

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(2**63 - 1)
_K_MIN = -324                      # floor(log10(2**-1074))
_K_MAX = 292                       # floor(log10(2**971))
_NO_DOT = 24                       # a dot position past every text


def _flog10pow2(e):
    """floor(e * log10(2)), exact for |e| < 5456721 (int or int64 array)."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2**e))."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e * log2(10))."""
    return (e * 913_124_641_741) >> 38


def _word(text):
    """text packed little-endian into one uint64 (at most 8 bytes)."""
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


def _frozen(values):
    a = np.array(values, dtype=np.uint64)
    a.setflags(write=False)
    return a


@functools.cache
def _tables():
    """Lookup tables, built on first use (a few ms), not at import."""
    # g(k) = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1, in [2**125, 2**126],
    # split in 63-bit halves g1, g0 and each half in 32-bit limbs.
    limbs = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            num = 10**-k
            beta = num << shift if shift >= 0 else num >> -shift
        else:
            beta = (1 << shift) // 10**k
        g = beta + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        limbs.append((g0 & 0xFFFFFFFF, g0 >> 32, g1 & 0xFFFFFFFF, g1 >> 32))
    g0_lo, g0_hi, g1_lo, g1_hi = (_frozen(col) for col in zip(*limbs))

    # LOW[j]: the low j bytes of the 24-byte text, per word; DOT[j]: '.' at byte j.
    low = [[(1 << 8 * min(max(j - 8 * w, 0), 8)) - 1 for w in range(3)]
           for j in range(_NO_DOT + 1)]
    dot = [[ord(".") << 8 * (j - 8 * w) if 8 * w <= j < 8 * w + 8 else 0
            for w in range(3)] for j in range(_NO_DOT + 1)]

    # Prefixes by sign + 2 * z: z = 0 none, z = 1..4 "0." and z - 1 zeros.
    prefixes = [("-" if i % 2 else "") + ("0." + "0" * (i // 2 - 1) if i // 2 else "")
                for i in range(10)]
    return {
        "g": (g0_lo, g0_hi, g1_lo, g1_hi),
        "pow10": _frozen([10**i for i in range(18)]),
        "low": tuple(_frozen(col) for col in zip(*low)),
        "dot": tuple(_frozen(col) for col in zip(*dot)),
        "prefix": _frozen([_word(p) for p in prefixes]),
        "prefix_bits": _frozen([8 * len(p) for p in prefixes]),
        # "e-05", "e+16", "e-324" for decimal exponents K_MIN .. 308
        "exponent": _frozen([_word(f"e{e:+03d}") for e in range(_K_MIN, 309)]),
    }


def _mul(a_lo, a_hi, c_lo, c_hi):
    """(high, low) 64-bit words of a * c, for a < 2**63 and c < 2**53 given
    in 32-bit limbs: the cross terms add up to less than 2**64."""
    p00 = a_lo * c_lo
    cross = a_hi * c_lo + a_lo * c_hi + (p00 >> _U(32))
    return a_hi * c_hi + (cross >> _U(32)), (cross << _U(32)) | (p00 & _M32)


def _scaled(g, c, h, irregular):
    """Schubfach's vb, vbl and vbr: rop(g, cp) for cp = 4c << h and for its
    bounds (4c - 2, or 4c - 1 below a power of two, and 4c + 2) << h.

    rop is floor(g * cp / 2**127), made odd when bits 64..126 of the
    product are not all zero; as in the published rop, the bits of g0 * cp
    below 2**64 are dropped.  Each 63-bit half of g is multiplied by c once;
    the three products follow by a shift and the add of g << (h + 1), or of
    g << h below a power of two.
    """
    c_lo, c_hi = c & _M32, c >> _U(32)
    up = h + _U(1)
    down = up - irregular.astype(np.uint64)
    halves = []
    for a_lo, a_hi in (g[:2], g[2:]):
        hi, lo = _mul(a_lo, a_hi, c_lo, c_hi)
        hi, lo = (hi << up + _U(1)) | (lo >> _U(63) - up), lo << up + _U(1)
        a = (a_hi << _U(32)) | a_lo
        lo_l, lo_r = lo - (a << down), lo + (a << up)
        halves.append(((hi, lo),
                       (hi - (a >> _U(64) - down) - (lo < lo_l), lo_l),
                       (hi + (a >> _U(64) - up) + (lo_r < lo), lo_r)))
    scaled = []
    for (x1, _), (y1, y0) in zip(*halves):
        z = (y0 >> _U(1)) + x1
        scaled.append((y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63)))
    return scaled


def _bit_length(x):
    """Bit length of each x >= 1, read off its float64 exponent: exact
    unless x rounds up to the next power of two."""
    return (x.astype(np.float64).view(np.int64) >> 52) - 1022


def _eight_digits(x):
    """Each x < 10**8 as its 8 decimal digits (values 0-9), most significant
    in the lowest byte: 4-digit halves in 32-bit lanes, then 2-digit
    quarters in 16-bit lanes, each lane divided by a multiply and shift."""
    hi = x // _U(10_000)
    merged = hi | ((x - hi * _U(10_000)) << _U(32))
    top = ((merged * _U(10_486)) >> _U(20)) & _U(0x0000007F_0000007F)
    pairs = ((merged - top * _U(100)) << _U(16)) | top
    tens = ((pairs * _U(103)) >> _U(10)) & _U(0x000F000F_000F000F)
    return tens | ((pairs - tens * _U(10)) << _U(8))


def _shift_bytes(words, nbits):
    """The 3-word little-endian text shifted up by nbits (a multiple of 8,
    at most 56) bits: prepends nbits / 8 NUL bytes."""
    w0, w1, w2 = words
    carry = _U(56) - nbits
    return (w0 << nbits,
            (w1 << nbits) | ((w0 >> _U(8)) >> carry),
            (w2 << nbits) | ((w1 >> _U(8)) >> carry))


def _digits(bits):
    """Shortest digits of the finite, nonzero values with these bits.

    Returns (f, k): f * 10**k is the shortest decimal in v's rounding
    interval, the closest to v of that length, ties to even f.
    """
    tab = _tables()
    be = (bits >> _U(52)) & _U(0x7FF)
    t = bits & _U(2**52 - 1)
    normal = be != 0
    c = np.where(normal, t | _U(2**52), t)
    q = np.maximum(be, _U(1)).astype(np.int64) - 1075      # v = c * 2**q
    # the interval below a power of two is half as wide, but for the
    # smallest normal, whose lower neighbour is a subnormal
    irregular = (t == 0) & (be > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)          # 2 <= h <= 5
    g = tuple(col.take(k - _K_MIN) for col in tab["g"])
    vb, vbl, vbr = _scaled(g, c, h, irregular)             # 4v and bounds, in 10**k

    out = c & _U(1)                                         # odd c: bounds excluded

    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    vbl_out = vbl + out
    upin = vbl_out <= sp10 << _U(2)
    wpin = ((sp10 + _U(10)) << _U(2)) + out <= vbr
    uin = vbl_out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    mid = (s << _U(2)) + _U(2)
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & (s & _U(1) == 1)))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + _U(10)),
                 s + up.astype(np.uint64))
    return f, k


def _text_words(sign, f, k):
    """Python's 'r' layout of (-1)**sign * f * 10**k, as 3 uint64 words."""
    tab = _tables()
    pow10 = tab["pow10"]
    # digits of f: from its bit length, which float conversion may round up
    # by one; either way floor(bits * log10(2)) is the count or one less
    ndigits = _flog10pow2(_bit_length(f))
    ndigits += f >= pow10.take(ndigits)
    decpt = k + ndigits
    f17 = f * pow10.take(17 - ndigits)                      # 17 digits, zero filled

    lead = f17 // pow10[16]
    rest = f17 - lead * pow10[16]
    above = rest // pow10[8]
    mid = _eight_digits(above)
    low = _eight_digits(rest - above * pow10[8])
    raw = (lead | (mid << _U(8)), (mid >> _U(56)) | (low << _U(8)), low >> _U(56))
    # n, the significant digits: up to the last nonzero byte of the raw
    # digits; as no byte exceeds 9, float conversion keeps the top byte
    n = np.where(raw[2] != 0, 17,
                 np.where(raw[1] != 0, 8 + (_bit_length(raw[1]) + 7) // 8,
                          (_bit_length(raw[0]) + 7) // 8))
    ascii0 = _U(0x30303030_30303030)
    digits = (raw[0] + ascii0, raw[1] + ascii0, raw[2] + _U(0x30))

    exp_form = (decpt < -3) | (decpt > 16)
    below_one = (decpt <= 0) & ~exp_form                    # "0.00ddd"
    length = np.where(exp_form | below_one, n, np.maximum(n, decpt + 1))
    words = [d & low_j.take(length) for d, low_j in zip(digits, tab["low"])]

    # "e+XX" after the n digits of the exponent form: in word n // 8 and the next
    suffix = np.where(exp_form, tab["exponent"].take(decpt - 1 - _K_MIN), _U(0))
    at_word = n // 8
    at_bits = ((n % 8) * 8).astype(np.uint64)
    lo_part = suffix << at_bits
    hi_part = (suffix >> _U(8)) >> (_U(56) - at_bits)
    for j in range(3):
        words[j] |= lo_part * (at_word == j)
        if j:
            words[j] |= hi_part * (at_word == j - 1)

    # the dot goes before digit ip; the bytes from ip on move up by one
    ip = np.where(exp_form, np.where(n > 1, 1, _NO_DOT), np.where(below_one, _NO_DOT, decpt))
    lows = [w & low_j.take(ip) for w, low_j in zip(words, tab["low"])]
    highs = [w ^ lw for w, lw in zip(words, lows)]
    words = [lows[j] | dot_j.take(ip) | (highs[j] << _U(8))
             | ((highs[j - 1] >> _U(56)) if j else _U(0))
             for j, dot_j in enumerate(tab["dot"])]

    which = sign.astype(np.int64) + 2 * np.where(below_one, 1 - decpt, 0)
    words = _shift_bytes(words, tab["prefix_bits"].take(which))
    return (words[0] | tab["prefix"].take(which),) + words[1:]


def cells(values):
    """repr(float(v)) of every value of a float64 array, as bytes.

    Returns an 'S24' array of the same shape; each cell holds the ASCII text
    of one value, NUL padded.
    """
    values = np.asarray(values, dtype=np.float64)
    flat = values.reshape(-1)
    special = np.flatnonzero(~np.isfinite(flat) | (flat == 0))
    bits = flat.view(np.uint64).copy()
    bits[special] = 0x3FF0_0000_0000_0000                       # as 1.0
    words = _text_words(bits >> _U(63), *_digits(bits))
    v = flat[special]
    nan = np.isnan(v)
    word = np.where(nan, _U(_word("nan")), np.where(v == 0, _U(_word("0.0")), _U(_word("inf"))))
    words[0][special] = np.where(np.signbit(v) & ~nan, (word << _U(8)) | _U(ord("-")), word)
    words[1][special] = 0
    words[2][special] = 0
    text = np.stack(words, axis=-1).astype("<u8", copy=False)
    return text.view(f"S{WIDTH}").reshape(values.shape)
