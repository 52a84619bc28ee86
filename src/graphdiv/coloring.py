"""Recursive division colorings with clique-bound certificates.

Both colorings spend a fresh palette on each side of every division, which
is exactly the additive accounting behind their bounds: the two-division
route stays within 2^(omega-1) colors, the perfect-division route within
omega*(omega+1)/2. Certificates record both numbers so audits are cheap.
Each checks its host's class once, as its division does, then recurses on
masks through the division's core: by heredity every set it divides is in
the class, and each division still verifies itself through its private
mask verifier, as the public division does. No division is built below
either coloring, and ``clique_number`` runs once, for the certificate. The
two-division coloring builds no vertex set either. The perfect-division
coloring wraps each P side in one vertex set and hands it to
``chromatic_number_exact``, whose lower bound runs ``_max_clique_mask`` on
that side.
"""

from dataclasses import dataclass

from .core import Graph, VertexSet, _bits, chromatic_number_exact, clique_number
from .errors import TheoremViolationError
from .divisibility import _perfect_divide, _require_p5c5_free, _require_perfect_divide_class, _two_divide

POWER_OF_TWO = "power-of-two"
QUADRATIC = "quadratic"
BOUND_KIND = {"two": POWER_OF_TWO, "perfect": QUADRATIC}


@dataclass(frozen=True)
class Coloring:
    """A proper coloring: ``assignment[v]`` is the color of vertex v and
    ``palette_size`` the number of distinct colors in use."""

    assignment: tuple
    palette_size: int

    def is_proper_for(self, g: Graph) -> bool:
        if len(self.assignment) != g.n:
            return False
        for u in range(g.n):
            for v in _bits(g.adj[u]):
                if v > u and self.assignment[u] == self.assignment[v]:
                    return False
        return len(set(self.assignment)) == self.palette_size if g.n else self.palette_size == 0


@dataclass(frozen=True)
class BoundCertificate:
    """Clique number, the bound it implies, and the colors actually spent.

    ``bound_value`` is 2^(omega-1) for the power-of-two kind and
    omega*(omega+1)/2 for the quadratic kind; an empty graph gets bound 0
    under either kind since it needs no colors at all.
    """

    omega: int
    bound_kind: str
    bound_value: int
    colors_used: int

    def to_json(self):
        return {
            "omega": self.omega,
            "kind": self.bound_kind,
            "bound": self.bound_value,
            "used": self.colors_used,
        }


def power_of_two_bound(omega: int) -> int:
    return 0 if omega <= 0 else 2 ** (omega - 1)


def quadratic_bound(omega: int) -> int:
    return (omega + 1) * omega // 2


def _certified(g: Graph, assignment, used: int, kind: str) -> tuple:
    """The one check of a finished coloring, shared by both colorings and
    ``verify``: raise ``TheoremViolationError`` unless it is proper and
    within the bound of its kind."""
    coloring = Coloring(tuple(assignment), used)
    omega = clique_number(g).value
    bound = power_of_two_bound(omega) if kind == POWER_OF_TWO else quadratic_bound(omega)
    certificate = BoundCertificate(omega, kind, bound, used)
    if not coloring.is_proper_for(g):
        raise TheoremViolationError("division coloring is not proper")
    if used > bound:
        raise TheoremViolationError(f"division coloring spent {used} colors, above the bound {bound}")
    return coloring, certificate


def color_via_two_division(g: Graph):
    """Color a (P5, C5)-free graph by recursive two-division.

    Each division colors its A side and B side with disjoint palettes;
    parts with clique number at most 1 take a single color. Returns
    ``(Coloring, BoundCertificate)`` with the power-of-two bound.
    """
    _require_p5c5_free(g)
    assignment = [0] * g.n

    def rec(mask: int, base: int) -> int:
        if not mask:
            return 0
        if not any(g.adj[v] & mask for v in _bits(mask)):
            for v in _bits(mask):
                assignment[v] = base
            return 1
        a_mask = _two_divide(g, mask)[0]
        used_a = rec(a_mask, base)
        return used_a + rec(mask & ~a_mask, base + used_a)

    used = rec((1 << g.n) - 1, 0)
    return _certified(g, assignment, used, POWER_OF_TWO)


def color_via_perfect_division(g: Graph):
    """Color a bull-free graph that is odd-hole-free or P5-free by
    recursive perfect division.

    The perfect side of every division is colored exactly (its chromatic
    number equals its clique number), the other side recurses on a fresh
    palette. Returns ``(Coloring, BoundCertificate)`` with the quadratic
    bound.
    """
    _require_perfect_divide_class(g)
    assignment = [0] * g.n

    def rec(mask: int, base: int) -> int:
        if not mask:
            return 0
        p_mask = _perfect_divide(g, (1,) * g.n, mask)[0]
        used_p, p_colors = chromatic_number_exact(g, VertexSet(g.n, p_mask))
        for v in _bits(p_mask):
            assignment[v] = base + p_colors[v]
        return used_p + rec(mask & ~p_mask, base + used_p)

    used = rec((1 << g.n) - 1, 0)
    return _certified(g, assignment, used, QUADRATIC)
