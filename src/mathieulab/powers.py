"""The integer power loop: L(g * f^m), m = 1..m_max, for the kernel-map and
constant-term scans.  Only the scan paths import it (`harness`, and
`imagemap.power_scan` on its call), so a cold call that runs no scan never
compiles it.  Over F_p a kernel-map row past m = p - 1 is read off Frobenius,
L(g f^m) = f_0(z^p) L(g f^(m-p)) (f_0: f's w-free part), not multiplied out.

`_int_powers` puts f over one common denominator d once, multiplies integer
numerators (an `int` over Q, an `(re, im)` pair over Q(i), a residue over F_p),
sums L's output on them, one numerator per key, and turns only the nonzero
numerators back into ring elements (`_decode_terms`), so only ring elements
leave the loop.  Inside the loop an exponent tuple is one packed int: variable
j takes the W-bit field at offset j*W, where W is one more than the bit length
of top * m_max + top(q) (top: f's largest exponent; top(q): the cofactors'
largest, 0 without one).  No exponent of q * f^m, and no b_i plus the pruning
slack s_i, exceeds that, so the top bit of every field stays clear and a
product's key is the sum of its factors' keys.  That clear guard bit also lets
one add-subtract-and-mask (`_pair_mask`) test a_i <= b_i + s_i on every pair
of a key zeta^a z^b at once: L skips a key outside its support by that test
(s = 0) before it computes a scale, and reads its output key z^(b-a) off the
packed key by one subtraction.  This encoding and its inverse live here and
nowhere else.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import lcm, perm

from .rings import GaussianRational, PrimeFieldElement


def _int_powers(f: Polynomial, m_max: int, pairs: int = 0, cofactors=(), ceiling=None):
    """Yield, for m = 1..m_max, one term dict per g in (1, *cofactors): L(g * f^m).

    Each dict maps an output exponent tuple to its nonzero ring-element
    coefficient.  Inside, f^m is over den = d^m, d the lcm of the
    denominators of f's coefficients (1 over F_p), and g * f^m is over den
    times q's own lcm; over F_p a numerator is reduced after each product.
    The products run on packed keys, so f and every q take non-negative
    exponents only.

    With `pairs=n`, f and q live in zeta_1..zeta_n, z_1..z_n and L is the
    kernel map, the rule of `imagemap.L_map`: zeta^a z^b goes to
    z^(b-a) with scale prod_i b_i!/(b_i-a_i)!, 0 when some a_i > b_i.  Each
    distinct output key is unpacked once.  The dict L reads for f^m is L's
    input after horizon pruning, not the true support of f^m: with D_i(g) =
    max(0, max over g's terms of b_i - a_i) and D_i(q) the largest over the
    cofactors, the product at step m drops every term with a_i > b_i +
    (h - m) D_i(f) + D_i(q), h the last power multiplied out (m_max, or p - 1
    below).  Each later factor f raises b_i - a_i by at most D_i(f) and any q
    by at most D_i(q), so no such term reaches L's support.

    Over F_p, f, each q and each power also drop every term with some a_i >= p
    (the p-cap): its scale b_i!/(b_i-a_i)! is a product of a_i consecutive
    integers, so p divides it, and a product's a is the sum of its factors'
    a, so no later factor lowers a_i.  So L kills the ideal (zeta_i^p) mod p,
    and f^p is f_0(z^p) modulo it, f_0 the zeta-free part of f (Frobenius:
    f^p is the sum of c M^p over f's terms c M); and z^(pc) commutes with L
    mod p, as (b + pc)!/(b + pc - a)! = b!/(b - a)! mod p for a < p.  Hence
    L(g f^m) = f_0(z^p) L(g f^(m-p)) for m >= p: with p <= m_max, h = p - 1,
    and each later row is f_0(z^p) times the residues of the row p steps back
    (row 0: L(1) = 1 and L(q)), or fresh empty dicts when f_0 = 0.

    With `pairs=0`, L is the identity: a dict holds the true support of f^m
    (and of q * f^m), unless `ceiling(m)` lists per variable the largest
    exponent that a read of f^m or of a later power needs: no later factor
    lowers an exponent, so the product at step m drops every term above it
    (`_below`).  A pruned power that is empty stays empty, so once one is,
    every remaining row is yielded as fresh empty dicts, with no product,
    predicate, kernel or decoding.
    """
    gs = (f, *cofactors)
    exponents = [list(chain.from_iterable(g.terms)) for g in gs]
    if min(chain.from_iterable(exponents), default=0) < 0:
        raise ValueError("the integer power loop takes non-negative exponents only")
    top = [max(e, default=0) for e in exponents]
    # b_i + slack <= top(f) * m_max + top(q): every field keeps its guard bit clear
    width = (top[0] * m_max + max(top[1:], default=0)).bit_length() + 1
    (base, d), *numerators = [_numerators(g, width, pairs) for g in gs]
    gaussian, p = f.ring.kind == "Qi", f.ring.characteristic
    if gaussian:
        multiply = _gaussian_product
    elif not p:
        def multiply(g, h, keep):
            return {k: c for k, c in _int_product(g, h).items() if c and keep(k)}
    else:
        def multiply(g, h, keep):
            return {k: r for k, c in _int_product(g, h).items() if (r := c % p) and keep(k)}
    cap = p - 1 if p else None
    last = cap if pairs and 0 < p <= m_max else m_max  # the last power multiplied out
    reach, *reach_q = [_reach(g, pairs) for g in gs]
    reach_q = [max(r) for r in zip([0] * pairs, *reach_q)]  # D(q) = 0 without a cofactor
    shift, field = pairs * width, (1 << width) - 1
    low, shifts = (1 << shift) - 1, range(0, shift, width)
    guard = _pack([1 << (width - 1)] * pairs, width)
    in_kernel = _pair_mask(pairs, width, cap=cap)
    unpack = _unpacker(len(f.variables) - pairs, width)
    key = cache(lambda k: (0,) * pairs + unpack(k))  # a packed output key's exponent tuple

    def kernel(power):
        """L's numerators c * prod perm(b_i, a_i), summed on the packed output key b - a."""
        out = {}
        get = out.get
        for k, c in power.items():
            a, b = k & low, k >> shift
            if (b | guard) - a & guard != guard:  # some a_i > b_i: the `_pair_mask` test
                continue
            scale = 1
            for s in shifts:
                scale *= perm(b >> s & field, a >> s & field)
            if gaussian:
                re, im = get(b - a, (0, 0))
                out[b - a] = re + c[0] * scale, im + c[1] * scale
            else:
                out[b - a] = get(b - a, 0) + c * scale
        return out

    power, den, d_gs = base, d, [1] + [d_q for _, d_q in numerators]
    if last < m_max:  # f_0(z^p) on the output keys, and row 0: L(1) = 1 and each L(q)
        frobenius = {(k >> shift) * p: c for k, c in base.items() if not k & low}
        rows = [[{0: 1}] + [kernel(q) for q, _ in numerators]]

    def row(sums):
        """One decoded row; when rows past `last` are read off it, its residues are kept."""
        if last < m_max:
            rows.append(sums := [{k: r for k, c in s.items() if (r := c % p)} for s in sums])
        return [_decode_terms(f.ring, s, den * d_g, key) for s, d_g in zip(sums, d_gs)]

    for m in range(1, last + 1):
        if m > 1:
            slack = _pack([(last - m) * r + r_q for r, r_q in zip(reach, reach_q)], width)
            keep = _below(ceiling(m), width) if ceiling else _pair_mask(pairs, width, slack, cap)
            power = multiply(power, base, keep)
            den *= d
        if not power:  # so is every later power: the rest of the rows are empty
            for _ in range(m, m_max + 1):
                yield [{} for _ in gs]
            return
        yield row([kernel(power)] + [kernel(multiply(power, q, in_kernel)) for q, _ in numerators])
    for m in range(last + 1, m_max + 1):  # over F_p: L(g f^m) = f_0(z^p) L(g f^(m-p))
        yield row([_int_product(r, frobenius) for r in rows[m - p]] if frobenius
                  else [{} for _ in gs])


def _numerators(g: Polynomial, width: int, pairs: int):
    """(packed key -> numerator, d): g over the lcm d of its denominators (1 over F_p).

    Over F_p a term zeta^a z^b with some a_i >= p, i < `pairs`, is left out.
    """
    if g.ring.kind == "Q":
        d = lcm(*(c.denominator for c in g.terms.values()))
        return {_pack(e, width): c.numerator * (d // c.denominator)
                for e, c in g.terms.items()}, d
    if g.ring.kind == "Qi":
        d = lcm(*(x.denominator for c in g.terms.values() for x in (c.re, c.im)))
        return {_pack(e, width): (c.re.numerator * (d // c.re.denominator),
                                  c.im.numerator * (d // c.im.denominator))
                for e, c in g.terms.items()}, d
    p = g.ring.characteristic
    return {_pack(e, width): c.residue for e, c in g.terms.items()
            if max(e[:pairs], default=0) < p}, 1


def _reach(g: Polynomial, n: int) -> list:
    """D_i(g) = max(0, max over g's terms zeta^a z^b of b_i - a_i), for i < n."""
    return [max(0, max((e[n + i] - e[i] for e in g.terms), default=0)) for i in range(n)]


def _pack(exps, width: int) -> int:
    return sum(e << (j * width) for j, e in enumerate(exps))


def _unpacker(nvars: int, width: int):
    """The inverse of `_pack` for keys of `nvars` fields."""
    field = (1 << width) - 1
    shifts = range(0, nvars * width, width)
    return lambda key: tuple(key >> s & field for s in shifts)


def _pair_mask(n: int, width: int, slack: int = 0, cap: int = None):
    """Predicate on packed keys zeta^a z^b: every a_i <= b_i + s_i and a_i <= cap.

    Fields 0..n-1 hold a, fields n..2n-1 hold b, and `slack` packs the s_i.
    Setting the guard bit of each field of b + s and subtracting the a
    fields borrows from field i's guard bit exactly when a_i > b_i + s_i; no
    borrow or carry crosses a field, because a_i and b_i + s_i stay below
    the guard bit.  The cap is `_below`'s test on the a fields; a cap of None
    or past the field keeps every key.  With n = 0 every key passes.
    """
    shift = n * width
    low = (1 << shift) - 1
    guard = sum(1 << (s + width - 1) for s in range(0, shift, width))
    if cap is None or cap >= (1 << (width - 1)) - 1:
        return lambda key: (((key >> shift) + slack | guard) - (key & low)) & guard == guard
    bound = _pack([cap] * n, width) | guard
    return lambda key: (((key >> shift) + slack | guard) - (a := key & low)
                        ) & (bound - a) & guard == guard


def _below(ceiling, width: int):
    """Predicate on packed keys: every e_j <= c_j, and none when some c_j < 0.  As in
    `_pair_mask`, field j of (packed ceiling | guard) - key borrows from its guard
    bit exactly when e_j > c_j; a c_j past the field is clamped below the guard bit."""
    if min(ceiling) < 0:
        return lambda key: False
    top = (1 << (width - 1)) - 1
    guard = _pack([top + 1] * len(ceiling), width)
    bound = _pack([min(c, top) for c in ceiling], width) | guard
    return lambda key: (bound - key) & guard == guard


def _int_product(g: dict, h: dict) -> dict:
    """Product of two integer-numerator term dicts on packed keys, zero sums included.

    The inner loop runs over g, the larger factor (f^(m-1) against f).
    """
    out = {}
    get = out.get
    for e2, c2 in h.items():
        for e1, c1 in g.items():
            key = e1 + e2
            out[key] = get(key, 0) + c1 * c2
    return out


def _gaussian_product(g: dict, h: dict, keep) -> dict:
    """Product of two (re, im) numerator term dicts: (a+bi)(c+di) = (ac-bd) + (ad+bc)i.

    Only the nonzero sums whose key passes `keep` are returned.
    """
    re, im = {}, {}
    re_get, im_get = re.get, im.get
    for e2, (c, d) in h.items():
        for e1, (a, b) in g.items():
            key = e1 + e2
            re[key] = re_get(key, 0) + a * c - b * d
            im[key] = im_get(key, 0) + a * d + b * c
    return {k: (r, im[k]) for k, r in re.items() if (r or im[k]) and keep(k)}


def _decode_terms(ring: RingDescriptor, sums: dict, den: int, key) -> dict:
    """Ring-element terms numerator / den of a {packed key: numerator} dict: one
    row of `_int_powers`, with `key` turning a packed key into its exponent tuple.

    The inverse of the power loop's encoding: a zero numerator (mod p over
    F_p) is dropped, and only the others become `Fraction`,
    `GaussianRational` or `PrimeFieldElement` values.
    """
    if ring.kind == "Q":
        return {key(k): Fraction(c, den) for k, c in sums.items() if c}
    if ring.kind == "Qi":
        return {key(k): GaussianRational(Fraction(r, den), Fraction(i, den))
                for k, (r, i) in sums.items() if r or i}
    p = ring.characteristic
    return {key(k): PrimeFieldElement(r, p) for k, c in sums.items() if (r := c % p)}

