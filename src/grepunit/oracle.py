"""Brute-force numerical-semigroup engine used as ground truth.

Everything here works from first definitions, on big-integer bitsets:
membership by shift-or passes over the whole bound or, for the
multiplicity m from SIEVE_WINDOW_MIN on, about m bits at a time, each
window read from those below it, the Frobenius number confirmed by one
shift of that mask and the genus by one popcount, Apéry sets as
residue-indexed tables (entry r is the element congruent to r) by
Böcker-Lipták round-robin over residue classes, or, for m from
APERY_WINDOW_MIN on, one m-bit window of values at a time, the next
taken from a bitmask of the windows ahead, with the genus by Selmer's
formula, pseudo-Frobenius numbers by the generator test on the Apéry
set, read from the top, cross-checked mask against mask with the raw
definition on the membership mask at x + m, and the factorization
lengths of the Apéry elements by whole-mask length levels, each level
the one below shifted by the generators and kept within the Apéry mask.
Nothing in this module consults the closed formulas it is used to check,
nor the Apéry sets they build; the sieve's windows share no code with
the Apéry set's.
"""

from __future__ import annotations

import math
from operator import lt
from typing import Iterator, NamedTuple, Sequence

from .errors import CapacityError, NotNumericalSemigroupError, RouteDisagreementError, int_text

DEFAULT_SIEVE_CAP = 10**8


class GenericSemigroup(NamedTuple("GenericSemigroup", [("gens", tuple[int, ...])])):
    """A numerical semigroup given by a finite generating set with gcd 1."""

    __slots__ = ()

    def __new__(cls, gens: tuple[int, ...]):
        gens = tuple(gens)
        if not gens:
            raise NotNumericalSemigroupError("empty generating set")
        if not (gens[0] > 0 and all(map(lt, gens, gens[1:]))):  # one pairwise scan
            if any(g <= 0 for g in gens):
                raise NotNumericalSemigroupError(f"generators must be positive: {_gens_text(gens)}")
            raise NotNumericalSemigroupError(f"generators must be ascending and distinct: {_gens_text(gens)}")
        g = math.gcd(*gens)
        if g != 1:
            raise NotNumericalSemigroupError(
                f"gcd{_gens_text(gens)} = {int_text(g)}, must be 1 for the complement to be finite"
            )
        return super().__new__(cls, gens)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates again

    @classmethod
    def from_values(cls, values) -> "GenericSemigroup":
        return cls(tuple(sorted(set(values))))

    @property
    def multiplicity(self) -> int:
        return self.gens[0]


def _gens_text(gens: tuple[int, ...]) -> str:
    """`str(gens)` for an error's note, each value through `int_text`."""
    return f"({', '.join(map(int_text, gens))}{',' * (len(gens) == 1)})"


def _closure(gens, bound: int) -> int:
    """Bitmask whose bit x (0 <= x <= bound) is set iff x is a sum of gens.

    Folding in generator g shifts by g, 2g, 4g, ...: after the shift by
    2^k*g the set holds every sum with up to 2^(k+1) - 1 extra copies of g,
    which reaches every multiple of g up to the bound.  Needs no gcd
    hypothesis.
    """
    full = (1 << (bound + 1)) - 1
    s = 1
    for g in gens:
        step = g
        while step <= bound:
            s |= (s << step) & full
            step <<= 1
    return s


def _window_closure(gens, bound: int) -> int:
    """`_closure` of ascending gens, gens[0] at least 8, built one window
    of w bits at a time, w the least generator rounded down to whole
    bytes: bit r of window j is bit jw + r of the mask.

    A positive x is a member iff x - g is one for some generator g.  For
    x in window j and g = qw + s (q >= 1, as g >= w), x - g lies in
    window j - q or the one below it, so window j is read from earlier
    windows only: the pair (window j - q above window j - q - 1) shifted
    right by w - s, ORed over the generators.  Only the pairs a later
    window reads are kept, the top window is cut at the bound, and each
    window is written out as bytes once made, so the mask is held about
    twice at the peak, when the bytes are read back into it.
    """
    w = gens[0] & ~7
    full = (1 << w) - 1
    steps = sorted({(g // w, w - g % w) for g in gens})  # (q, right shift)
    depth = steps[-1][0]  # window j reads no pair below j - depth
    last = bound // w
    pairs = {0: 1 << w}  # pairs[j]: window j above window j - 1
    window = 1  # window 0 holds only 0: every other member is at least w
    chunks = [window.to_bytes(w >> 3, "little")]
    for j in range(1, last + 1):
        below, window = window, 0
        for q, shift in steps:
            window |= pairs.get(j - q, 0) >> shift
        window &= full if j < last else (1 << bound - j * w + 1) - 1
        pairs[j] = window << w | below
        pairs.pop(j - depth, None)  # later windows lie above j
        chunks.append(window.to_bytes(w >> 3, "little"))
    packed = b"".join(chunks)
    del chunks  # so the bytes are held once while the mask is read from them
    return int.from_bytes(packed, "little")


def _mask_of(values: list[int], top: int) -> int:
    """Bitmask with bit v set for each of the values, all in 0..top."""
    packed = bytearray((top >> 3) + 1)
    for v in values:
        packed[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(packed, "little")


_LEAF_BITS = 2048  # pieces this wide or narrower are formatted whole


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative mask, ascending.

    Binary formatting costs a character per bit, so the mask is halved
    until each piece is at most _LEAF_BITS wide, and only those pieces
    are formatted; a zero half is dropped, and a low half loses its
    leading zeros.  Each split is a pass over its piece, so even a sparse
    mask costs whole-width passes at the top: 100 µs for 5 bits in 627,452."""
    out = []
    pieces = [(mask, 0)]  # (piece, position of its bit 0); low halves on top
    while pieces:
        piece, base = pieces.pop()
        width = piece.bit_length()
        if width > _LEAF_BITS:
            half = width >> 1
            pieces.append((piece >> half, base + half))  # holds the top bit
            low = piece & ((1 << half) - 1)
            if low:
                pieces.append((low, base))
            continue
        digits = format(piece, "b")
        top = base + width - 1
        i = digits.rfind("1")
        while i >= 0:
            out.append(top - i)
            i = digits.rfind("1", 0, i)
    return out


# `_top_down_bits` reads a mask at most this wide, a whole-width pass per set bit: on the
# family's maximal masks (n - 1 set; Python 3.11, median of 9) 0.23-0.98x `_set_bits`' time up to
# 10^7 bits, 0.69-1.7x past it, 1.24x and up for b = 2 (18-22 set); workloads stay < 10^6 bits.
TOP_DOWN_MAX_BITS = 10**7


def _top_down_bits(mask: int) -> list[int]:
    """`_set_bits(mask)`, read by bit_length, each bit cleared by a pass."""
    if mask.bit_length() > TOP_DOWN_MAX_BITS:
        return _set_bits(mask)
    top = []
    while mask:
        top.append(mask.bit_length() - 1)
        mask ^= 1 << top[-1]
    return top[::-1]


# Multiplicity from which `sieve` builds its mask in windows rather than
# by shift-or passes over the whole bound: the crossover, measured with
# the two builds alone at the sieve bound basic_invariants uses, on the
# family's generators for a = 1..20 (Python 3.11, best of repeats, two
# runs; median over a of closure time / window time).  The closure is
# 1.3-1.5x faster at m = 781 and 1111, 1.0-1.1x at m = 1023, 1093 and
# 1365, and ties at m = 1555; the windows are 1.3x faster at m = 2047,
# 1.2x at 2801, 1.4-1.5x at 3280, 1.6-1.8x at 4095, 1.6x at 9331 and
# 11111, and 2.2-2.5x at 19608.
SIEVE_WINDOW_MIN = 2000


def sieve(sg: GenericSemigroup, bound: int, cap: int = DEFAULT_SIEVE_CAP) -> int:
    """Membership mask of 0..bound, bit x set iff x is a member: the
    closure of {0} under adding generators, in windows of about m bits
    (`_window_closure`) when the multiplicity m is at least
    SIEVE_WINDOW_MIN and by shift-or passes over the whole bound
    (`_closure`) below that.  Both checks come before either build."""
    if bound < max(sg.gens):
        raise ValueError(f"sieve bound {int_text(bound)} below largest generator {int_text(sg.gens[-1])}")
    if bound + 1 > cap:
        raise CapacityError(f"sieve bound {int_text(bound)} exceeds capacity cap {int_text(cap)}")
    build = _window_closure if sg.multiplicity >= SIEVE_WINDOW_MIN else _closure
    return build(sg.gens, bound)


def apery_set(sg: GenericSemigroup, q: int) -> list[int]:
    """Least member of each residue class mod q, by round-robin, as a
    residue-indexed table: entry r is the one congruent to r (mod q).

    best[r] holds the least sum of the generators folded in so far that is
    congruent to r.  Folding in g walks each cycle r -> r + g (mod q) once,
    starting from the cycle's least known value, which adding g cannot
    improve (Böcker and Lipták, Algorithmica 48, 2007).  q is a member, so
    the least member of a class is its Apéry element.
    """
    if q <= 0:
        raise ValueError(f"need a positive element, got {int_text(q)}")
    if q not in sg.gens and not _closure(sg.gens, q) >> q & 1:  # a generator needs no closure
        raise ValueError(f"{int_text(q)} is not an element of the semigroup {_gens_text(sg.gens)}")
    unreached = q * sum(sg.gens) + 1  # above every sum the walk below forms
    best = [unreached] * q
    best[0] = 0
    for g in sg.gens:
        d = math.gcd(g, q)
        if d == q:  # a multiple of q adds nothing
            continue
        for start in range(d):
            v = min(best[start::d]) if start else 0  # 0 is the least of its cycle
            if v == unreached:
                continue
            for _ in range(q // d - 1):
                v += g
                r = v % q
                cur = best[r]
                if cur < v:
                    v = cur
                else:
                    best[r] = v
    if unreached in best:  # with gcd 1 every class holds a member
        raise RouteDisagreementError(f"{best.count(unreached)} residue classes mod {q} never reached")
    return best


# Multiplicity from which basic_invariants builds Ap(S, m) in m-bit
# windows rather than by round-robin: the crossover, measured with
# basic_invariants on the family's generators for a = 1..60 (Python
# 3.11).  The round-robin is 1.7-2x faster at m = 121 and 156 and 1.3x
# at m = 259 (b = 6, n = 4); the windows are 1.1x faster at m = 255
# (b = 2, n = 8), tie at m = 341, and are 1.1-1.4x faster at m = 364
# and 400, 1.9-2.3x at m = 511 and 781, 5-7x at m >= 11111.
APERY_WINDOW_MIN = 300


def apery_windows(sg: GenericSemigroup, top_cap: int) -> list[tuple[int, int]] | None:
    """Ap(S, m), m the multiplicity, in windows of m bits: a pair (j, w)
    for each window visited, ascending in j, where bit r of w is set iff
    jm + r is an Apéry element; or None once some Apéry element is sure
    to exceed top_cap, which keeps the windows within about top_cap bits.

    A nonzero Apéry element is w' + g for a generator g not divisible by m
    and, since w' = w - g is a member and w - m is not, w' in Ap.  Each
    such g exceeds m, so the candidates of window j are the elements of
    the two windows j - g//m and j - g//m - 1, shifted by g mod m, and a
    candidate whose class no earlier window covers is the least member of
    its class.  Only windows that a step reaches from a non-empty window
    are visited, at most 2(e - 1)m + 1 of them for e generators.
    """
    m = sg.multiplicity
    full = (1 << m) - 1
    # a step reads window j - q and the top bits of window j - q - 1
    steps = sorted({(g // m, m - g % m) for g in sg.gens if g % m})  # (q, right shift)
    depth = max((q for q, _ in steps), default=0)  # window j reads no pair below j - depth
    # The frontier is one int: bit i of `ahead` is window j + 1 + i, bit
    # d - 1 of `reach` a step of d windows.  A window at or past `limit`
    # gives up however far past, so steps are cut to `limit` windows and
    # a huge generator costs no huge mask.
    limit = max(top_cap // m, 0) + 1
    reach = 0
    for d in {d for q, _ in steps for d in (q, q + 1)}:
        reach |= 1 << min(d, limit) - 1
    pairs = {0: 1 << m, 1: 1}  # pairs[j]: window j above window j - 1, so one shift reads both
    visited = [(0, 1)]  # window 0 holds only 0: every other generator exceeds m
    dropped = 0  # the windows visited[:dropped] have no pair left
    covered = 1
    j, ahead = 0, reach
    while covered != full:
        if not ahead:  # with gcd 1 every class holds a member
            raise RouteDisagreementError(
                f"{m - covered.bit_count()} residue classes mod {m} never reached"
            )
        skip = (ahead & -ahead).bit_length()  # to the lowest window ahead
        j += skip
        ahead >>= skip
        if j * m > top_cap:  # some class's element lies at or beyond window j
            return None
        cand = 0
        for q, r in steps:
            cand |= pairs.get(j - q, 0) >> r
        new = cand & full
        new ^= new & covered
        visited.append((j, new))
        while visited[dropped][0] < j - depth:  # later windows lie above j
            k = visited[dropped][0]
            pairs.pop(k, None)
            pairs.pop(k + 1, None)
            dropped += 1
        if new:
            covered |= new
            pairs[j] = new << m | pairs.get(j, 0)
            pairs[j + 1] = new
            ahead |= reach
    return visited


def _join(windows: list[tuple[int, int]], width: int) -> int:
    """One mask from (j, w) window pairs, ascending in j: bit j*width + r
    is set iff bit r of window j is.  Neighbours are joined pairwise, so
    each bit moves about log2(len(windows)) times."""
    pieces = [(j * width, w) for j, w in windows]
    while len(pieces) > 1:
        joined = [(lo, w | v << (hi - lo)) for (lo, w), (hi, v) in zip(pieces[::2], pieces[1::2])]
        pieces = joined + pieces[len(joined) * 2 :]
    start, w = pieces[0]
    return w << start


class SemigroupInvariants(NamedTuple):
    """Frobenius number, genus and friends, each computed two ways."""

    semigroup: GenericSemigroup
    apery_mask: int  # bit w set iff w is in Ap(S, m)
    sieve: int  # bit x set iff x is a member, for x up to the sieve bound
    frobenius: int
    genus: int
    n_below: int  # members strictly below the Frobenius number

    def __repr__(self):  # no masks: past 4300 decimal digits an int cannot be printed
        fields = ", ".join(
            f"{k}={v!r}" for k, v in self._asdict().items() if k not in ("apery_mask", "sieve")
        )
        return f"SemigroupInvariants({fields})"


def basic_invariants(
    sg: GenericSemigroup, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> SemigroupInvariants:
    """Compute F and g twice - from the Apéry set of the multiplicity m
    and from a raw gap sieve - and insist the routes agree, as they must
    on the Apéry set itself.

    Ap(S, m) comes from `apery_windows` when m >= APERY_WINDOW_MIN, with
    g = sum of floor(w/m) over its elements (Selmer, J. reine angew.
    Math. 293/294, 1977), and from `apery_set` below that, with g from
    the Apéry sum.  The sieve bound max(Apéry) + max generator covers
    every gap and every Apéry element, so both computations are complete.
    A multiplicity whose sieve cannot fit is refused before the Apéry set
    is built, and a sieve bound that the windows prove too large as soon
    as they give up.
    """
    m = sg.multiplicity
    if 2 * m > sieve_cap:  # the sieve bound is at least 2m - 1
        raise CapacityError(
            f"multiplicity {int_text(m)} needs a sieve bound of at least {int_text(2 * m - 1)}, "
            f"which exceeds capacity cap {int_text(sieve_cap)}"
        )
    if m >= APERY_WINDOW_MIN:
        top_cap = sieve_cap - 1 - max(sg.gens)  # the sieve admits bounds up to sieve_cap - 1
        windows = apery_windows(sg, top_cap)
        if windows is None:  # an Apéry element lies in window top_cap // m + 1 or above
            least = (top_cap // m + 1) * m + max(sg.gens)
            raise CapacityError(
                f"sieve bound of at least {int_text(least)} exceeds capacity cap {int_text(sieve_cap)}"
            )
        j, last = windows[-1]
        top = j * m + last.bit_length() - 1
        g_apery = sum(j * w.bit_count() for j, w in windows)
    else:
        ap = apery_set(sg, m)
        top = max(ap)
        num = 2 * sum(ap) - m * (m - 1)
        if num % (2 * m) != 0:
            raise RouteDisagreementError("Apéry sum inconsistent with an integer genus")
        g_apery = num // (2 * m)
    bound = top + max(sg.gens)
    s = sieve(sg, bound, cap=sieve_cap)
    f_apery = top - m

    # F is the sieve's too iff bits F..bound read a gap, then members only
    # (members from bit 0 when F = -1); the sieve's own F is for the note
    tail = s >> f_apery if f_apery >= 0 else s << 1
    if tail != (1 << bound - f_apery + 1) - 2:
        f_sieve = (((1 << bound + 1) - 1) ^ s).bit_length() - 1  # -1 when there is no gap
        raise RouteDisagreementError(f"Frobenius routes disagree: {f_apery} vs {f_sieve}")
    g_sieve = bound + 1 - s.bit_count()  # that test kept the mask within bits 0..bound
    if g_apery != g_sieve:
        raise RouteDisagreementError(f"genus routes disagree: {g_apery} vs {g_sieve}")

    # Apéry vs sieve agreement: the set holds exactly the members whose
    # predecessor in their class is a gap.  (Here and in pseudo_frobenius
    # x & ~y is written x ^ (x & y): ~ of a big int costs two's-complement
    # passes.)  The mask is built only past the sieve's cap check: the
    # round-robin's is top bits wide, and a huge generator puts top far
    # beyond the cap.
    ap_mask = _join(windows, m) if m >= APERY_WINDOW_MIN else _mask_of(ap, top)
    if ap_mask != s ^ (s & (s << m)):
        raise RouteDisagreementError("Apéry set disagrees with the sieve")

    # 0..F holds F + 1 integers, g of them gaps
    return SemigroupInvariants(sg, ap_mask, s, f_apery, g_sieve, f_apery + 1 - g_sieve)


def pseudo_frobenius(inv: SemigroupInvariants) -> list[int]:
    """Pseudo-Frobenius numbers, ascending.

    Computed from the Apéry set alone as {w - m : w maximal in Ap(S, m)
    under "difference is a member"}, where w is maximal iff w + g is not an
    Apéry element for any generator g != m (Rosales and García-Sánchez,
    Numerical Semigroups, 2009, §2), read by `_top_down_bits`.  Checked,
    mask against mask, with the definition on the membership mask s alone:
    x a gap with x + g in S for each generator g, which in the frame
    w = x + m is bit w of s ^ (s & (s << m)) and of each s >> (g - m), for
    all x >= -m (below, x + m < 0): S = N's x = -1 is w = 0, no case of its
    own.  A difference raises with both lists, the Apéry route's read first.
    """
    m, *others = inv.semigroup.gens
    ap, s = inv.apery_mask, inv.sieve
    covered = 0  # w with w + g in Ap(S, m) for some generator g != m
    for g in others:
        covered |= ap >> g
    maximal = ap ^ (ap & covered)
    del covered  # the first route's work is dropped before the second route's starts
    pf = [w - m for w in _top_down_bits(maximal)]
    candidates = s ^ (s & (s << m))  # w = x + m: x + m a member and x a gap
    for g in others:
        candidates &= s >> (g - m)  # and x + g a member
    if maximal != candidates:
        direct = [w - m for w in _set_bits(candidates)]
        raise RouteDisagreementError(f"pseudo-Frobenius routes disagree: {pf} vs {direct}")
    return pf


def minimal_generators(inv: SemigroupInvariants) -> list[int]:
    """Unique minimal generating set, read from the membership sieve: a
    generator v is redundant iff v - g is a member for a smaller generator
    g, as a sum below v uses only generators below v.  Bit x is read as
    s & 1 << x, x bits of work, where s >> x & 1 copies the whole sieve."""
    gens, s = inv.semigroup.gens, inv.sieve
    return [v for i, v in enumerate(gens) if not any(s & 1 << v - g for g in gens[:i])]


def apery_levels(inv: SemigroupInvariants) -> Iterator[int]:
    """Factorization-length levels of the Apéry elements of the
    multiplicity m, one at a time from k = 0: level k is the mask of the
    elements that are sums of exactly k generators.  Once the levels run
    out, an Apéry element that none of them reached raises.

    No factorization of w in Ap(S, m) uses m, and for a generator g,
    w - g in S forces w - g in Ap(S, m) (else w - m would be a member).
    So the elements of length k + 1 are those of length k shifted by a
    generator g != m, kept within the Apéry mask: one pass of whole-mask
    shifts per length, from the level {0}.
    """
    apery_mask = inv.apery_mask
    others = inv.semigroup.gens[1:]
    level, reached = 1, 0
    while level:
        yield level
        reached |= level
        shifted = 0
        for g in others:
            shifted |= level << g
        level = shifted & apery_mask
    missed = apery_mask ^ reached
    if missed:
        least = (missed & -missed).bit_length() - 1
        raise RouteDisagreementError(f"Apéry element {least} is no sum of the generators")


class WilfData(NamedTuple):
    """Wilf-inequality report: the minimal generating set, whose size is
    the embedding dimension e, whether F <= e*n(S) - 1, and whether the
    sharper bound F <= (t+1)*n(S) - 1 holds, t the type."""

    minimal_generators: tuple[int, ...]
    wilf_ok: bool
    type_bound_ok: bool


def wilf_data(inv: SemigroupInvariants, pf: Sequence[int]) -> WilfData:
    """Wilf and type bounds from `inv`'s sieve and pseudo-Frobenius numbers `pf`."""
    gens = tuple(minimal_generators(inv))
    f, n_below = inv.frobenius, inv.n_below
    return WilfData(
        minimal_generators=gens,
        wilf_ok=f <= len(gens) * n_below - 1,
        type_bound_ok=f <= (len(pf) + 1) * n_below - 1,
    )
