"""Elliptic-surface invariants read off the multiplicity pattern.

For constant j-invariant the Weierstrass model y^2 = x^3 + f (j=0) or
y^2 = x^3 + g x (j=1728) has one additive Kodaira fiber per geometric zero,
with type determined by the multiplicity alone.  Euler number, p_g, h^{1,1}
and the Shioda-Tate Mordell-Weil rank all follow by exact arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .forms import FactoredForm, J0


class FiberType(NamedTuple):
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


def fiber_types(f: FactoredForm) -> tuple[FiberType, ...]:
    """One additive fiber per geometric zero, in multiplicity order."""
    table = FIBERS_J0 if f.jcase == J0 else FIBERS_J1728
    return tuple(table[m] for m in f.pattern)


class SurfaceInvariants(NamedTuple):
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
    """The invariants of X_f, with the Shioda-Tate rank taking the Picard
    number to be h^{1,1}.  The rank is meaningful for the catalog families
    (either side of a rational-partner pair): the form side comes out 0 and
    the partner side 2(n-1)."""
    fibers = fiber_types(f)
    e = sum(fb.euler for fb in fibers)
    chi = e // 12
    p_g = chi - 1
    b2 = e - 2
    h11 = b2 - 2 * p_g
    fiber_rank = sum(fb.components - 1 for fb in fibers)
    rank = h11 - 2 - fiber_rank
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
        ns_perp_dim=b2 - h11,  # b2 minus the Neron-Severi rank h11
    )


def ns_perp_check(inv: SurfaceInvariants, dims: tuple[int, ...]) -> bool:
    """Dimension form of 'the divisor classes fill all of h^{1,1}'.

    With the Picard number taken to be h^{1,1}, the complement of the
    Neron-Severi lattice in H^2 has dimension b2 - h11 = 2 p_g by
    construction; the check is that p_g matches the primitive eigenspace
    dimension of the cover curve.  It holds exactly when the partner form
    is rational (taxonomy.is_partner_rational).  inv and dims are of one
    form.
    """
    return inv.p_g == dims[0]
