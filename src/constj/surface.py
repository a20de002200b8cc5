"""Elliptic-surface invariants read off the multiplicity pattern.

For constant j-invariant the Weierstrass model y^2 = x^3 + f (j=0) or
y^2 = x^3 + g x (j=1728) has one additive Kodaira fiber per geometric zero,
with type determined by the multiplicity alone.  Euler number, p_g, h^{1,1}
and the Shioda-Tate Mordell-Weil rank all follow by exact arithmetic.
"""

from __future__ import annotations

from .forms import FactoredForm, J0, J1728

# j-case -> multiplicity -> additive fiber (symbol, Euler number, components)
FIBERS = {
    J0: {
        1: ("II", 2, 1),
        2: ("IV", 4, 3),
        3: ("I0*", 6, 5),
        4: ("IV*", 8, 7),
        5: ("II*", 10, 9),
    },
    J1728: {
        1: ("III", 3, 2),
        2: ("I0*", 6, 5),
        3: ("III*", 9, 8),
    },
}


def invariants(f: FactoredForm) -> dict:
    """The report's section for X_f: one additive fiber per geometric zero,
    in multiplicity order, and the numbers its Euler number e fixes, with
    the Shioda-Tate rank taking the Picard number to be h^{1,1}.  The rank
    is meaningful for the catalog families (either side of a
    rational-partner pair): the form side comes out 0 and the partner side
    2(n-1)."""
    fibers = [FIBERS[f.jcase][m] for m in f.pattern]
    e = sum(euler for _, euler, _ in fibers)
    p_g = e // 12 - 1
    h11 = e - 2 - 2 * p_g
    return {
        "n": f.n,
        "k": f.k,
        "euler": e,
        "chi_structure": e // 12,
        "p_g": p_g,
        "b2": e - 2,
        "h11": h11,
        "fibers": [symbol for symbol, _, _ in fibers],
        "mw_rank_char0": h11 - 2 - sum(components - 1 for _, _, components in fibers),
        "ns_perp_dim": 2 * p_g,  # b2 minus the Neron-Severi rank h11
    }


def ns_perp_check(inv: dict, dims: tuple[int, ...]) -> bool:
    """Dimension form of 'the divisor classes fill all of h^{1,1}'.

    With the Picard number taken to be h^{1,1}, the complement of the
    Neron-Severi lattice in H^2 has dimension b2 - h11 = 2 p_g by
    construction; the check is that p_g matches the primitive eigenspace
    dimension of the cover curve.  It holds exactly when the partner form
    is rational (taxonomy.is_partner_rational).  inv and dims are of one
    form.
    """
    return inv["p_g"] == dims[0]
