"""Sparse multivariate (Laurent-capable) polynomials over a fixed exact ring.

Terms are keyed by dense exponent tuples aligned with the declared variable
order, so two equal polynomials always have identical representations.
Canonical printing uses graded lexicographic order, highest first.

The `Polynomial` constructor sums (key, coefficient) pairs with
`_sum_terms`, its only reader: sums, products, derivatives, the kernel map,
the t-operators and the image map's closed forms pass their pairs straight
in, and a key whose coefficients cancel is dropped.  A dict's keys are
already distinct, so it is only copied without its zero coefficients.
The kernel-map and constant-term scans read L(g * f^m), m = 1..m_max, off
the other route, the integer power loop: `_int_powers` puts f over one
common denominator d once, multiplies integer numerators (an `int` over Q,
an `(re, im)` pair over Q(i), a residue over F_p), sums L's output on them,
one numerator per key, and turns only the nonzero numerators back into ring
elements (`_decode_terms`), so only ring elements leave the loop.  Inside
the loop an exponent tuple is one packed int: variable j takes the W-bit
field at offset j*W, where W is one more than the bit length of
top * m_max + top(q) (top: f's largest exponent; top(q): the cofactors'
largest, 0 without one).  No exponent of q * f^m, and no b_i plus the
pruning slack s_i, exceeds that, so the top bit of every field stays clear
and a product's key is the sum of its factors' keys.  That clear guard bit
also lets one add-subtract-and-mask (`_pair_mask`) test a_i <= b_i + s_i on
every pair of a key zeta^a z^b at once: L skips a key outside its support
by that test (s = 0) before it computes a scale, and reads its output key
z^(b-a) off the packed key by one subtraction.  With `pairs=n` the loop drops each term of
f^m that no later product can bring back into L's support (horizon pruning)
and, over F_p, each term with some a_i >= p (the p-cap: L's scale is then 0 mod
p, and no later factor lowers a_i), so a dict L reads is L's input, not the
true support of f^m; an f with no zeta-free term has an empty capped f^m past
m = n(p-1).  With `pairs=0`
a per-step exponent ceiling (`_below`) may prune it instead; with neither it
is the true support.  This encoding and its inverse live here and nowhere
else.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm, perm
from operator import add
from types import SimpleNamespace

from .rings import GaussianRational, Immutable, PrimeFieldElement, RingDescriptor

NEG_INF = float("-inf")


class VerificationError(Exception):
    """A computed result failed its exact re-check (raised, so `python -O` keeps it)."""


class Report(SimpleNamespace):
    """A result with a printed report: keyword fields, in the order the JSON prints them.

    The values stay typed (polynomials, ring elements, fractions, matrices,
    nested Reports); equality compares every field.  `as_report` prints them
    once, into a fresh dict, and a nested Report prints as the dict of its fields.
    """

    def as_report(self) -> dict:
        return _printed(self)


def _printed(value):
    """`value` as the report prints it.

    A Report prints as the dict of its fields; dicts, lists and tuples are
    printed item by item (a tuple as a list); None, bool, int and str stay
    as they are; anything else becomes its `to_str()` if it has one, else
    its `str()`.
    """
    if isinstance(value, Report):
        value = vars(value)
    if isinstance(value, dict):
        return {k: _printed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_printed(v) for v in value]
    if value is None or isinstance(value, (int, str)):  # a bool is an int
        return value
    return value.to_str() if hasattr(value, "to_str") else str(value)


class VariableSet(Immutable):
    """Ordered variable names; a name in `laurent` may carry negative exponents."""

    __slots__ = __match_args__ = ("names", "laurent")

    def __init__(self, names, laurent=frozenset()):
        names, laurent = tuple(names), frozenset(laurent)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        unknown = laurent - set(names)
        if unknown:
            raise ValueError(f"laurent flags for unknown variables: {sorted(unknown)}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "laurent", laurent)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def is_laurent(self, name: str) -> bool:
        return name in self.laurent

    def __len__(self):
        return len(self.names)


class Grading(Immutable):
    """Integer weight per variable; a term's weight is the weighted exponent sum."""

    __slots__ = __match_args__ = ("weights",)

    def __init__(self, weights: dict):
        object.__setattr__(self, "weights", dict(weights))

    def term_weight(self, variables: VariableSet, exps: tuple) -> int:
        return sum(self.weights.get(n, 0) * e for n, e in zip(variables.names, exps))

    @staticmethod
    def total_degree(variables: VariableSet) -> "Grading":
        return Grading({n: 1 for n in variables.names})


class Polynomial(Immutable):
    """Immutable sparse polynomial; all operations return fresh values."""

    __slots__ = __match_args__ = ("ring", "variables", "terms")

    def __init__(self, ring: RingDescriptor, variables: VariableSet, terms=()):
        """`terms`: a dict {exponent tuple: coeff}, copied without its zero
        coefficients, or such pairs, summed; then checked."""
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "variables", variables)
        terms = ({e: c for e, c in terms.items() if c} if isinstance(terms, dict)
                 else _sum_terms(terms))
        if terms and {*map(len, terms)} != {len(variables.names)}:
            raise ValueError("exponent tuple length mismatch")
        if variables.names and terms and min(chain.from_iterable(terms)) < 0 and any(
                min(column) < 0 for name, column in zip(variables.names, zip(*terms))
                if not variables.is_laurent(name)):
            for exps in terms:  # name the variable of the first offending term
                for name, e in zip(variables.names, exps):
                    if e < 0 and not variables.is_laurent(name):
                        raise ValueError(f"negative exponent on non-Laurent variable {name}")
        object.__setattr__(self, "terms", terms)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ring, variables) -> "Polynomial":
        return Polynomial(ring, variables, {})

    @staticmethod
    def constant(ring, variables, c) -> "Polynomial":
        zero_key = (0,) * len(variables)
        return Polynomial(ring, variables, {zero_key: c})

    @staticmethod
    def one(ring, variables) -> "Polynomial":
        return Polynomial.constant(ring, variables, ring.one())

    @staticmethod
    def var(ring, variables, name, exp=1) -> "Polynomial":
        exps = [0] * len(variables)
        exps[variables.index(name)] = exp
        return Polynomial(ring, variables, {tuple(exps): ring.one()})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _compat(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.ring != self.ring:
            raise ValueError("coefficient ring mismatch")
        if other.variables != self.variables:
            raise ValueError("variable set mismatch")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        return Polynomial(self.ring, self.variables,
                          chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return Polynomial(self.ring, self.variables,
                          {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._compat(other)
        return Polynomial(self.ring, self.variables, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()))

    def scale(self, c) -> "Polynomial":
        if isinstance(c, int):
            c = self.ring.from_int(c)
        elif isinstance(c, Fraction) and self.ring.kind != "Q":
            c = self.ring.from_fraction(c)
        if not c:
            return Polynomial.zero(self.ring, self.variables)
        return Polynomial(self.ring, self.variables,
                          {e: coeff * c for e, coeff in self.terms.items()})

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.ring, self.variables)
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.ring == other.ring and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.variables, frozenset(self.terms.items())))

    # -- calculus and structure --------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal derivative; Laurent exponents follow n*t^(n-1) including n < 0."""
        i = self.variables.index(name)
        from_int = self.ring.from_int
        return Polynomial(self.ring, self.variables, (
            (exps[:i] + (exps[i] - 1,) + exps[i + 1:], c * from_int(exps[i]))
            for exps, c in self.terms.items() if exps[i]))

    def constant_coefficient(self):
        return self.terms.get((0,) * len(self.variables), self.ring.zero())

    def grade_degree(self, grading: Grading):
        """Max term weight under the grading; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(grading.term_weight(self.variables, e) for e in self.terms)

    def total_degree(self):
        return self.grade_degree(Grading.total_degree(self.variables))

    def homogeneous_components(self, grading: Grading) -> dict:
        """Split into graded pieces; values reassemble to self exactly."""
        buckets = {}
        for exps, c in self.terms.items():
            w = grading.term_weight(self.variables, exps)
            buckets.setdefault(w, {})[exps] = c
        return {w: Polynomial(self.ring, self.variables, t)
                for w, t in sorted(buckets.items())}

    # -- canonical form ----------------------------------------------

    def to_str(self) -> str:
        """Terms in graded-lex order on the declared variables, highest first.

        Each coefficient prints as its literal (`str`); a 1 before a monomial
        is implicit, and a Gaussian coefficient with both parts nonzero is
        parenthesized so the text re-parses.
        """
        names, gaussian = self.variables.names, self.ring.kind == "Qi"
        pieces = []
        for exps, c in sorted(self.terms.items(), key=_graded_lex, reverse=True):
            mono = "*".join([n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e])
            text, sign = str(c), " + "
            if gaussian and c.re.numerator and c.im.numerator:
                text = f"({text})"
            elif text[0] == "-":
                text, sign = text[1:], " - "
            pieces.append(sign + (text if not mono else mono if text == "1" else f"{text}*{mono}"))
        text = "".join(pieces)
        return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self):
        return f"<Polynomial {self.to_str()}>"

    def embed(self, ring: RingDescriptor, variables: VariableSet) -> "Polynomial":
        """Re-home into a larger variable set (matched by name) or wider ring."""
        idx = [variables.index(n) for n in self.variables.names]
        terms = {}
        for exps, c in self.terms.items():
            key = [0] * len(variables)
            for j, e in zip(idx, exps):
                key[j] = e
            terms[tuple(key)] = _convert_coeff(c, self.ring, ring)
        return Polynomial(ring, variables, terms)


def _graded_lex(term) -> tuple:
    """Sort key of a (key, coeff) term: total degree, then the exponent tuple."""
    return sum(term[0]), term[0]


def _sum_terms(pairs) -> dict:
    """Sum (key, coeff) pairs into a term dict without zero coefficients.

    A key whose sum cancels is dropped, and so is a coefficient that
    arrives as zero (such as c * n with p | n over F_p).
    """
    out = {}
    for key, c in pairs:
        if key in out:
            s = out[key] + c
            if s:
                out[key] = s
            else:
                del out[key]
        elif c:
            out[key] = c
    return out


def _int_powers(f: Polynomial, m_max: int, pairs: int = 0, cofactors=(), ceiling=None):
    """Yield, for m = 1..m_max, one term dict per g in (1, *cofactors): L(g * f^m).

    Each dict maps an output exponent tuple to its nonzero ring-element
    coefficient.  Inside, f^m is a dict of integer numerators over den = d^m,
    d the lcm of the denominators of f's coefficients (1 over F_p), and g * f^m
    is over den times q's own lcm.  A numerator is an `int` over Q, an
    `(re, im)` pair of ints over Q(i), and a residue mod p over F_p, reduced
    after each product.  L's output numerators are summed once per output key
    and only the nonzero sums are decoded (`_decode_terms`).  The products
    run on packed keys (see the module docstring), so f and every q take
    non-negative exponents only.

    With `pairs=n`, f and q live in zeta_1..zeta_n, z_1..z_n and L is the
    kernel map, the rule of `imagemap.L_map`: zeta^a z^b goes to
    z^(b-a) with scale prod_i b_i!/(b_i-a_i)!, 0 when some a_i > b_i.  The
    output key is formed on the packed key and each distinct one is
    unpacked once.  The dict L reads for f^m is L's input after horizon
    pruning, not the true support of f^m: with D_i(g) = max(0, max over g's
    terms of b_i - a_i) and D_i(q) the largest over the cofactors, the
    product at step m drops every term with a_i > b_i + (m_max - m) D_i(f)
    + D_i(q).  Each later factor f raises b_i - a_i by at most D_i(f) and
    any q by at most D_i(q), so no such term reaches L's support.  Over F_p,
    f, each q and each power also drop every term with some a_i >= p: its
    scale b_i!/(b_i-a_i)! is a product of a_i consecutive integers, so p
    divides it, and a product's a is the sum of its factors' a, so no later
    factor lowers a_i.  When no term of f is free of zeta, every term of f^m
    has sum(a) >= m, and the capped f^m is empty for m > n(p-1).  With
    `pairs=0`, L is the identity: a dict holds the true support of f^m (and
    of q * f^m), unless `ceiling(m)` lists per variable
    the largest exponent that a read of f^m or of a later power needs: no
    later factor lowers an exponent, so the product at step m drops every
    term above it.  A pruned power that is empty stays empty, so once one is,
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
    gaussian = f.ring.kind == "Qi"
    if gaussian:
        multiply = _gaussian_product
    elif f.ring.kind == "Q":
        def multiply(g, h, keep):
            return {k: c for k, c in _int_product(g, h).items() if c and keep(k)}
    else:
        p = f.ring.characteristic

        def multiply(g, h, keep):
            return {k: r for k, c in _int_product(g, h).items() if (r := c % p) and keep(k)}
    cap = f.ring.characteristic - 1 if f.ring.kind == "Fp" else None
    reach, *reach_q = [_reach(g, pairs) for g in gs]
    reach_q = [max(r) for r in zip([0] * pairs, *reach_q)]  # D(q) = 0 without a cofactor
    shift, field = pairs * width, (1 << width) - 1
    low, shifts = (1 << shift) - 1, range(0, shift, width)
    guard = _pack([1 << (width - 1)] * pairs, width)
    in_kernel = _pair_mask(pairs, width, cap=cap)
    unpack, keys = _unpacker(len(f.variables) - pairs, width), {}

    def kernel(power):
        """L's numerators c * prod perm(b_i, a_i), summed on the output key b - a."""
        out = {}
        get = out.get
        for k, c in power.items():
            a, b = k & low, k >> shift
            if (b | guard) - a & guard != guard:  # some a_i > b_i: the `_pair_mask` test
                continue
            scale = 1
            for s in shifts:
                scale *= perm(b >> s & field, a >> s & field)
            if (key := keys.get(b - a)) is None:
                key = keys[b - a] = (0,) * pairs + unpack(b - a)
            if gaussian:
                re, im = get(key, (0, 0))
                out[key] = re + c[0] * scale, im + c[1] * scale
            else:
                out[key] = get(key, 0) + c * scale
        return out

    power, den = base, d
    for m in range(1, m_max + 1):
        if m > 1:
            slack = _pack([(m_max - m) * r + r_q for r, r_q in zip(reach, reach_q)], width)
            keep = _below(ceiling(m), width) if ceiling else _pair_mask(pairs, width, slack, cap)
            power = multiply(power, base, keep)
            den *= d
        if not power:  # so is every later power: the rest of the rows are empty
            for _ in range(m, m_max + 1):
                yield [{} for _ in gs]
            return
        yield [_decode_terms(f.ring, kernel(power), den)] + [
            _decode_terms(f.ring, kernel(multiply(power, q, in_kernel)), den * d_q)
            for q, d_q in numerators]


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


def _decode_terms(ring: RingDescriptor, sums: dict, den: int) -> dict:
    """Ring-element terms numerator / den of a {key: numerator} dict: one row of `_int_powers`.

    The inverse of the power loop's encoding: a zero numerator (mod p over
    F_p) is dropped, and only the others become `Fraction`,
    `GaussianRational` or `PrimeFieldElement` values.
    """
    if ring.kind == "Q":
        return {key: Fraction(c, den) for key, c in sums.items() if c}
    if ring.kind == "Qi":
        return {key: GaussianRational(Fraction(r, den), Fraction(i, den))
                for key, (r, i) in sums.items() if r or i}
    p = ring.characteristic
    return {key: PrimeFieldElement(r, p) for key, c in sums.items() if (r := c % p)}


def _convert_coeff(c, source: RingDescriptor, target: RingDescriptor):
    if source == target:
        return c
    if source.kind == "Q":
        return target.from_fraction(c)
    raise ValueError(f"cannot convert coefficients from {source.kind} to {target.kind}")

