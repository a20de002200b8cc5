"""Exact point counts of smooth models of u^a = f over F_{p^i}.

The covers of one form are counted together, in one pass over P^1(F_q) per
field.  Away from the zeroes of f the fiber size of u^a depends only on the
class of f(P) modulo d-th powers (d = gcd(a, q-1)), and every cover order
divides 12, the lcm of the exponents 6 and 4.  So one table per field,
mapping each element code to its discrete-log residue modulo
D = gcd(12, q-1), serves every cover of both j-cases: the sweep histograms
the residue of f(P), and each cover reads its count off the histogram.  The
table is built by walking the cyclic group F_q* once on integer element
codes.  Every field product on this path is a deg x deg matrix over F_p
applied to blocks of digits: column k of the matrix of c is c X^k reduced
by gf's polynomial arithmetic.  Such products shift the table walk and run
Horner's rule for places of degree > 1.  The sweep reads the codes of
every field, F_p's one row included, as rows of p codes that differ only in
the lowest digit, and a linear place x + c0 changes only that digit: its
classes are the table's rows with their columns rotated by c0.  Zeroes of f
are found where a place vanishes and receive the branch-corrected local count
#{Y : Y^gcd(a,m) = local unit}.  The sweep already sums every place's class
at every point, so at a zero of one place the other places' sum is the
unit's class up to an m-th power, which a gcd(a, m, q-1)-th power test
cannot see: no field arithmetic at zeroes.

numpy is imported inside the functions that touch arrays (_codes_of,
_matrix, power_class_table, _place_value_codes, _sweep_chunk and
count_points), so it loads on the first count that misses the cache: a row
read from the count cache, the catalog and the usage and validation errors
found before a count never load it.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__ as TOOL_VERSION
from .curve import CurveSpec
from .errors import InvariantViolation, ValidationError
from .forms import JCASES, FactoredForm
from .gf import FieldContext, _poly_powmod, _poly_rem, _prime_factors, make_field

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 1 << 18  # points per sweep step
# powers per table-walk block, a power of 2 so that its last doubling step shifts the walk
_WALK_BLOCK = 1 << 16
_MAX_FIELD_Q = 2**27  # largest field a count may sweep: its one q-sized array is a table of q bytes
_CLASS_MODULUS = lcm(*(j.exponent for j in JCASES.values()))  # 12: every cover order divides it


# ---------------------------------------------------------------------------
# vectorized arithmetic: a block of field elements is a (deg, M) array of
# their base-p digits, and multiplying by an element is a matrix over F_p

def _codes_of(block: np.ndarray, ctx: FieldContext) -> np.ndarray:
    import numpy as np

    out = np.zeros(block.shape[1], dtype=np.int64)
    for j in range(ctx.degree - 1, -1, -1):
        out *= ctx.p
        out += block[j]
    return out


def _code_digits(code: int, ctx: FieldContext) -> list[int]:  # of one element, lowest first
    return [code // ctx.p**k % ctx.p for k in range(ctx.degree)]


def _matrix(code: int, ctx: FieldContext) -> np.ndarray:
    """The deg x deg matrix over F_p of multiplication by the element with
    the given code, column k the digits of its product with X^k modulo the
    modulus: one product with it multiplies a whole (deg, M) block of
    digits.  Below _MAX_FIELD_Q no sum of deg products of digits,
    deg (p-1)^2, reaches 2^63."""
    import numpy as np

    digits, modulus = _code_digits(code, ctx), list(ctx.modulus)
    columns = [_poly_rem([0] * k + digits, modulus, ctx.p) for k in range(ctx.degree)]
    return np.array(columns, dtype=np.int64).T


# ---------------------------------------------------------------------------
# multiplicative structure: generator and power-class table

def find_generator(ctx: FieldContext) -> int:
    """Code of the smallest-code generator of F_q*: the first code c, from 2
    over F_p and from p otherwise (constants never generate an extension),
    with c^((q-1)/ell) != 1 for every prime ell dividing q-1, each power taken
    by gf's polynomial arithmetic on the digits of c modulo the modulus."""
    order, p, modulus = ctx.q - 1, ctx.p, list(ctx.modulus)
    cofactors = [order // ell for ell in _prime_factors(order)]
    one = [1] + [0] * (ctx.degree - 1)
    for code in range(2 if ctx.degree == 1 else p, ctx.q):
        digits = _code_digits(code, ctx)
        if all(_poly_powmod(digits, cf, modulus, p) != one for cf in cofactors):
            return code
    raise InvariantViolation("no generator found; field construction is broken")


@lru_cache(maxsize=None)
def power_class_table(ctx: FieldContext) -> tuple[np.ndarray, int]:
    """uint8 array T with T[code(c)] = dlog(c) mod D, D = gcd(12, q-1).

    T[0] (the zero element) is the sentinel 255.  Built once per field by
    walking the powers of a generator on integer codes: a block of the first
    min(q-1, _WALK_BLOCK) powers is grown by doubling, then shifted along
    the group by the last doubling step, one matrix product per step.
    count_series refuses a field above _MAX_FIELD_Q before any table is
    asked for.  The table is shared by every caller and read-only.
    """
    import numpy as np

    q = ctx.q
    d_cls = gcd(_CLASS_MODULUS, q - 1)

    block_cap = min(q - 1, _WALK_BLOCK)
    digits = np.eye(ctx.degree, 1, dtype=np.int64)  # the block g^0, g^1, ... as digit columns
    step = _matrix(find_generator(ctx), ctx)  # times g^(block size): squares as the block doubles
    while digits.shape[1] < block_cap:
        head = step @ digits[:, : block_cap - digits.shape[1]] % ctx.p
        digits = np.concatenate([digits, head], axis=1)
        step = step @ step % ctx.p

    cls = np.full(q, 255, dtype=np.uint8)
    phase = (np.arange(block_cap) % d_cls).astype(np.uint8)
    cls[_codes_of(digits, ctx)] = phase
    for idx in range(block_cap, q - 1, block_cap):  # only when block_cap = _WALK_BLOCK
        digits = step @ digits
        digits %= ctx.p  # in place: a second temporary per segment costs ~0.5 s on F_{5^10}
        length = min(block_cap, q - 1 - idx)
        cls[_codes_of(digits[:, :length], ctx)] = (phase[:length] + idx % d_cls) % d_cls
    if cls[0] != 255 or cls[1:].max() == 255:  # a reduction: no second array of q bytes
        raise InvariantViolation("power-class table incomplete; generator order is wrong")
    cls.flags.writeable = False
    return cls, d_cls


# ---------------------------------------------------------------------------
# the sweep

def _place_value_codes(pl, codes: np.ndarray, ctx: FieldContext) -> np.ndarray:
    """Codes of the values of a place of degree > 1 at the finite points
    given by codes: Horner, acc x = sum of x_k (X^k acc) over the digits of
    x, X^k being the matrix of the code p^k, with X^k acc reduced before it
    is scaled, so entries stay below deg p^2."""
    import numpy as np

    x_blk = np.array(np.unravel_index(codes, (ctx.p,) * ctx.degree)[::-1])  # digits, lowest first
    x_pows = [_matrix(ctx.p**k, ctx) for k in range(ctx.degree)]
    acc = x_blk.copy()  # the place is monic: its first Horner step is 1 x
    for c in reversed(pl.poly[1:-1]):
        acc[0] = (acc[0] + c) % ctx.p
        prod = np.zeros_like(acc)
        for x_k, x_pow in zip(x_blk, x_pows):
            term = x_pow @ acc
            term %= ctx.p
            term *= x_k
            prod += term
        acc = prod % ctx.p
    acc[0] = (acc[0] + pl.poly[0]) % ctx.p
    return _codes_of(acc, ctx)


def _sweep_chunk(
    lo: int, hi: int, places, ctx: FieldContext, cls: np.ndarray, d_cls: int
) -> tuple[np.ndarray, list[tuple[int, list[int]]]]:
    """Histogram of dlog f mod D over the points of [lo, hi) where f does
    not vanish, plus the zeroes of f seen there: per place, the class mod D
    of the other places' product at each of its roots.  The chunk is whole
    rows of p codes, or a piece of F_p's one row: either way a linear place
    x + c0 reads the table's rows that hold it, rotated by (lo + c0) mod p,
    and vanishes only at the code -c0 mod p."""
    import numpy as np

    p = ctx.p
    flat = np.zeros(hi - lo, dtype=np.int32)  # places add to it by code
    acc = flat.reshape(-1, min(p, hi - lo))  # its rows, or the piece as one row
    rows = cls.reshape(-1, p)[lo // p : (hi - 1) // p + 1]
    seen: set[int] = set()  # positions of the zeroes found so far
    hits: list[tuple[int, int, list[int]]] = []
    for place_idx, (pl, m) in enumerate(places):
        if pl.at_infinity:
            continue  # value 1 at every finite point
        if pl.degree == 1:  # column j of acc reads column j + start of rows, cyclically
            start = (lo + pl.poly[0]) % p
            head, tail = acc[:, : p - start], acc[:, p - start :]
            head += np.multiply(rows[:, start : start + head.shape[1]], m, dtype=np.int32)
            tail += np.multiply(rows[:, : tail.shape[1]], m, dtype=np.int32)
            at = [x - lo for x in [(-pl.poly[0]) % p] if lo <= x < hi]
        else:
            vals = _place_value_codes(pl, np.arange(lo, hi, dtype=np.int64), ctx)
            flat += m * cls[vals].astype(np.int32)
            at = np.flatnonzero(vals == 0).tolist()
        if at:
            if seen.intersection(at):
                raise InvariantViolation(
                    f"place {pl.describe()} shares a root with another place in F_{ctx.q}"
                )
            seen.update(at)
            hits.append((place_idx, m, at))
    # at its own zeroes a place added m times the sentinel cls[0]: take it out
    sentinel = int(cls[0])
    zeros = [(idx, [(int(flat[x]) - m * sentinel) % d_cls for x in at]) for idx, m, at in hits]
    # away from the zeroes flat < D * (sum of m): drop the zeroes from the
    # histogram and fold it mod D, with no division per point
    span = d_cls * (1 + sum(m for pl, m in places if not pl.at_infinity))
    hist = np.bincount(flat, minlength=span)
    np.subtract.at(hist, flat[list(seen)], 1)
    return hist[:span].reshape(-1, d_cls).sum(axis=0), zeros


def count_points(curves: Sequence[CurveSpec], ctx: FieldContext) -> tuple[int, ...]:
    """F_q-point counts of the smooth projective models of covers of one
    form, in the order given, from one sweep of P^1(F_q) in chunks of
    whole rows of p codes, as many as fit in _CHUNK points."""
    import numpy as np

    f = curves[0].f  # count_series passes covers of one form and make_field(f.p, i)
    q = ctx.q
    cls, d_cls = power_class_table(ctx)
    # a row longer than _CHUNK is swept in pieces; that is F_p alone, as
    # _CHUNK^2 > _MAX_FIELD_Q
    step = _CHUNK // ctx.p * ctx.p or _CHUNK
    hist = np.zeros(d_cls, dtype=np.int64)
    by_place: dict[int, list[int]] = {}
    for lo in range(0, q, step):
        part, zeros = _sweep_chunk(lo, min(lo + step, q), f.places, ctx, cls, d_cls)
        hist += part
        for place_idx, others in zeros:
            by_place.setdefault(place_idx, []).extend(others)
    hist = hist.tolist()

    inf_mult = next((m for pl, m in f.places if pl.at_infinity), 0)  # 0: f(1:0) = 1
    totals = []
    for curve in curves:
        # d_a points above each finite non-zero whose value is a d_a-th
        # power, and gcd(a, m, q-1) above infinity, where the unit is 1
        d_a = gcd(curve.a, q - 1)
        totals.append(d_a * sum(hist[::d_a]) + gcd(curve.a, inf_mult, q - 1))

    # finite zeroes of a place of multiplicity m: the local unit is the other
    # places' product times, for a place of degree > 1, the m-th power of
    # the product of x - x' over the sibling roots x'.  An m-th power is a
    # d-th power for every d = gcd(a, m, q-1), so the unit is a d-th power
    # exactly when the other places' class is divisible by d.
    for place_idx, other_cls in by_place.items():
        pl, m = f.places[place_idx]
        if len(other_cls) != pl.degree:
            raise InvariantViolation(
                f"place {pl.describe()} has {len(other_cls)} roots in F_{q}, expected {pl.degree}"
            )
        for idx, curve in enumerate(curves):
            d = gcd(curve.a, m, q - 1)
            totals[idx] += d * sum(1 for c in other_cls if c % d == 0)
    return tuple(totals)


def _assert_weil(curve: CurveSpec, i: int, n_points: int, source: Optional[Path] = None) -> None:
    """|N - r_q(q+1)| <= 2 G sqrt(q) at q = p^i, p = f.p, exactly, with r_q
    the number of Frobenius-stable components and G the total geometric
    genus.  The message names the cover, the prime and, for a cached count,
    its file."""
    p = curve.f.p
    q = p**i
    r_q = curve.rational_components(i)
    g_tot = curve.total_genus
    if (n_points - r_q * (q + 1)) ** 2 > 4 * g_tot * g_tot * q:
        read_from = f"; count read from {source}" if source is not None else ""
        raise InvariantViolation(
            f"cover a={curve.a} over F_{p}: Weil bound violated at level {i}: N={n_points}, "
            f"q={q}, components={r_q}, total genus={g_tot}{read_from}"
        )


# ---------------------------------------------------------------------------
# series and cache

class CountCache:
    """Append-only count file of one prime, DIR/p<p>.counts, shared by every
    form counted at p.  One record per line: p, level, curve key, count,
    tool version; the last record of a key wins, and one of another p or
    version is a miss.  Every curve key starts with its form's key, so a
    run parses only the lines that name its form."""

    def __init__(self, directory: str | Path, f: FactoredForm) -> None:
        self.p = f.p
        self.path = Path(directory) / f"p{f.p}.counts"
        self._tag = f.key() + ":"
        self._records: Optional[dict[tuple[int, str], int]] = None

    def _load(self) -> dict[tuple[int, str], int]:
        if self._records is None:
            # the probe keeps a cold row from opening the file it will append
            # to; a file removed after it is a miss like one never written
            try:
                text = self.path.read_text() if self.path.exists() else ""
            except FileNotFoundError:
                text = ""
            except OSError as exc:
                raise ValidationError(f"count cache {self.path} is not readable: {exc}") from exc
            self._records = {}
            for lineno, line in enumerate(text.splitlines(), 1):
                if self._tag not in line:
                    continue  # another form's record, left unparsed
                fields = line.split()
                try:
                    p, i, key, value = int(fields[0]), int(fields[1]), fields[2], int(fields[3])
                    if len(fields) != 5:
                        raise ValueError
                except (ValueError, IndexError):
                    warnings.warn(f"{self.path}:{lineno}: corrupt cache record; recounting")
                    continue
                if p == self.p and fields[4] == TOOL_VERSION:
                    self._records[(i, key)] = value
        return self._records

    def get(self, i: int, key: str) -> Optional[int]:
        return self._load().get((i, key))

    def put(self, counts: dict[tuple[int, str], int]) -> None:
        """Append counts, {(level, curve key): count}, in one write; the
        directory is made only when the open finds it missing."""
        text = "".join(f"{self.p} {i} {key} {n} {TOOL_VERSION}\n" for (i, key), n in counts.items())
        try:
            try:
                fh = self.path.open("a")
            except FileNotFoundError:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fh = self.path.open("a")
            with fh:
                fh.write(text)
                fh.flush()
        except OSError as exc:
            raise ValidationError(f"count cache {self.path} is not writable: {exc}") from exc
        self._load().update(counts)


def field_fits(p: int, i: int) -> bool:  # F_{p^i} is within the limit a count may sweep
    return p**i <= _MAX_FIELD_Q


def count_series(
    curves: Sequence[CurveSpec],
    levels: Sequence[int],
    cache: Optional[CountCache] = None,
) -> tuple[tuple[int, ...], ...]:
    """N(p^1..p^levels[c]) for cover c of one form, in the order given.

    Walks the levels in turn: at each one, the covers the cache (the form's
    count file) does not hold there are counted together in one sweep.
    Every count is checked against the Weil bound once, as it is read or
    counted; the fresh counts that pass are appended to the cache in one
    write when the walk ends, or fails, so the cache never holds one out of
    bounds.  A level whose field is above _MAX_FIELD_Q is refused before
    any count or cache read, naming the first cover that needs it.
    """
    p = curves[0].f.p
    top = max(levels, default=0)
    over = next((i for i in range(1, top + 1) if not field_fits(p, i)), None)
    if over is not None:
        a = next(c.a for c, n in zip(curves, levels) if n >= over)
        raise ValidationError(
            f"counting cover a={a} at level {over} needs F_q with q = {p}^{over} = {p**over}, "
            f"above the field-size limit {_MAX_FIELD_Q}"
        )
    keys = [c.key() for c in curves]
    counts: list[list[int]] = [[] for _ in curves]
    fresh: dict[tuple[int, str], int] = {}  # checked counts the cache lacks
    try:
        for i in range(1, top + 1):
            due = [idx for idx, n in enumerate(levels) if i <= n]
            found = {idx: cache.get(i, keys[idx]) for idx in due} if cache is not None else {}
            missing = [idx for idx in due if found.get(idx) is None]
            if missing:
                swept = count_points([curves[idx] for idx in missing], make_field(p, i))
                found.update(zip(missing, swept))
            for idx in due:
                source = cache.path if idx not in missing else None  # a cached count's file
                _assert_weil(curves[idx], i, found[idx], source)
                counts[idx].append(found[idx])
            fresh.update(((i, keys[idx]), found[idx]) for idx in missing)
    finally:
        if fresh and cache is not None:
            cache.put(fresh)
    return tuple(map(tuple, counts))
