"""Elliptic-surface invariants read off the multiplicity pattern.

For constant j-invariant the Weierstrass model y^2 = x^3 + f (j=0) or
y^2 = x^3 + g x (j=1728) has one additive Kodaira fiber per geometric zero,
with type determined by the multiplicity alone.  Euler number, p_g, h^{1,1}
and the Shioda-Tate Mordell-Weil rank all follow by exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .curve import EigenDims, eigenspace_dims
from .errors import InvariantViolation
from .forms import FactoredForm, J0, J1728, JCase


@dataclass(frozen=True)
class FiberType:
    symbol: str
    euler: int
    components: int


# multiplicity -> additive fiber, per j-case
FIBERS_J0 = {
    1: FiberType("II", 2, 1),
    2: FiberType("IV", 4, 3),
    3: FiberType("I0*", 6, 5),
    4: FiberType("IV*", 8, 7),
    5: FiberType("II*", 10, 9),
}
FIBERS_J1728 = {
    1: FiberType("III", 3, 2),
    2: FiberType("I0*", 6, 5),
    3: FiberType("III*", 9, 8),
}


def _table(jcase: JCase) -> dict[int, FiberType]:
    return FIBERS_J0 if jcase == J0 else FIBERS_J1728


def fiber_types(f: FactoredForm) -> tuple[FiberType, ...]:
    """One additive fiber per geometric zero, in multiplicity order."""
    table = _table(f.jcase)
    return tuple(table[m] for m in f.multiplicities)


def mw_rank_char0(f: FactoredForm) -> int:
    """Shioda-Tate rank with Picard number h^{1,1}.

    Meaningful for the catalog families (either side of a rational-partner
    pair): the form side comes out 0 and the partner side 2(n-1).
    """
    fibers = fiber_types(f)
    e = sum(fb.euler for fb in fibers)
    n = f.n
    h11 = 10 * n
    if e != 12 * n:
        raise InvariantViolation(f"Euler number {e} != 12n = {12 * n}")
    rank = h11 - 2 - sum(fb.components - 1 for fb in fibers)
    if rank < 0:
        raise InvariantViolation(f"negative Mordell-Weil rank {rank}")
    return rank


@dataclass(frozen=True)
class SurfaceInvariants:
    n: int
    k: int
    euler: int
    chi_structure: int  # e / 12
    p_g: int
    b2: int
    h11: int
    fibers: tuple[FiberType, ...]
    mw_rank_char0: int
    ns_perp_dim: int


def invariants(f: FactoredForm) -> SurfaceInvariants:
    rank = mw_rank_char0(f)  # checks e = 12n
    fibers = fiber_types(f)
    e = sum(fb.euler for fb in fibers)
    chi = e // 12
    p_g = chi - 1
    b2 = e - 2
    h11 = b2 - 2 * p_g
    ns_dim = 2 + sum(fb.components - 1 for fb in fibers) + rank
    return SurfaceInvariants(
        n=f.n,
        k=f.k,
        euler=e,
        chi_structure=chi,
        p_g=p_g,
        b2=b2,
        h11=h11,
        fibers=fibers,
        mw_rank_char0=rank,
        ns_perp_dim=b2 - ns_dim,
    )


def ns_perp_check(
    f: FactoredForm, inv: Optional[SurfaceInvariants] = None, dims: Optional[EigenDims] = None
) -> bool:
    """Dimension form of 'the divisor classes fill all of h^{1,1}'.

    b2 minus the Neron-Severi dimension (2 + fiber contributions + MW rank)
    must equal 2 p_g, and that in turn must match twice the primitive
    eigenspace dimension of the cover curve.  inv and dims, if given, are f's.
    """
    inv = invariants(f) if inv is None else inv
    dims = eigenspace_dims(f) if dims is None else dims
    return inv.ns_perp_dim == 2 * inv.p_g == 2 * dims[1]
