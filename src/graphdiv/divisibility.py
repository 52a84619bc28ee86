"""Constructive clique-number divisions, their oracles, and verifiers.

The two constructions never trust their own guarantees, so the package
doubles as a proof checker at the sizes it handles. Verification policy:

- ``two_divide`` checks its result with ``verify_two_division``; each
  ``recombine`` checks its merge on the quotient plus the contracted set;
  ``perfect_divide`` checks the final division, unless the last
  recombination already covered all of ``within``; the colorings check
  each finished coloring once, in ``coloring._certified``.
- A failed self-check raises ``TheoremViolationError`` with the
  derivation log. A class precondition raises ``NotInClassError`` or
  ``DegenerateCliqueError``, an oracle limit ``BudgetExceededError``, and
  malformed caller input ``ValueError``.
- ``harness.run_divide`` and ``harness.run_color`` never check again;
  ``harness.run_verify`` trusts nothing in a stored record.
"""

from dataclasses import dataclass, field

from .core import (
    Graph,
    VertexSet,
    WeightFn,
    _bits,
    _checked_weight_clique,
    _mask_components,
    _within_mask,
    clique_number,
)
from .errors import (
    BudgetExceededError,
    DegenerateCliqueError,
    NotInClassError,
    TheoremViolationError,
)
from .recognition import (
    Embedding,
    embedding_is_valid,
    find_bull,
    find_c5,
    find_homogeneous_set,
    find_odd_hole,
    find_p5,
    is_homogeneous,
    is_perfect,
    pattern_for_name,
)

ORACLE_BUDGET = 12


@dataclass(frozen=True)
class TwoDivision:
    """A partition (a, b) of the host's vertices, both sides with clique
    number strictly below the host's."""

    a: VertexSet
    b: VertexSet
    log: tuple = field(default=(), compare=False, repr=False)

    def to_json(self):
        return {"kind": "two", "a": list(self.a.members()), "b": list(self.b.members())}


@dataclass(frozen=True)
class PerfectDivision:
    """A partition (p, w_side): the p side induces a perfect graph, the w
    side has maximum clique weight strictly below the host's.

    ``weight`` is the certified weight function; None means unit weights
    (so the condition is the plain clique number one).
    """

    p: VertexSet
    w_side: VertexSet
    weight: WeightFn = None
    log: tuple = field(default=(), compare=False, repr=False)

    def to_json(self):
        return {
            "kind": "perfect",
            "p": list(self.p.members()),
            "w": list(self.w_side.members()),
            "weights": list(self.weight.weights) if self.weight is not None else None,
        }


@dataclass(frozen=True)
class QuotientStep:
    """Contraction of a homogeneous set ``x`` to its smallest member.

    ``quotient`` is the rest of the divided set plus that representative,
    whose neighbors there are the common neighbors of ``x``.
    ``quotient_weights`` is host-length: the representative carries the
    maximum clique weight of the part it replaced, every other vertex its
    original weight.
    """

    original: Graph
    original_weights: WeightFn
    x: VertexSet
    representative: int
    quotient: VertexSet
    quotient_weights: WeightFn


@dataclass(frozen=True)
class C5Classification:
    """How a vertex outside an induced 5-cycle attaches to it.

    ``kind`` is one of "center", "anticenter", "clone", "star",
    "violation"; clones and stars carry the 0-based cycle index, a
    violation carries the induced P5 or bull that the attachment forces.
    """

    kind: str
    index: int = None
    witness: Embedding = None


def _members(mask: int) -> list:
    return list(_bits(mask))


def _step(kind: str, **data) -> dict:
    return {"kind": kind, **data}


def _require_p5c5_free(g: Graph):
    p5 = find_p5(g)
    if p5 is not None:
        raise NotInClassError("graph contains an induced P5", [p5])
    c5 = find_c5(g)
    if c5 is not None:
        raise NotInClassError("graph contains an induced C5", [c5])


def verify_two_division(g: Graph, d: TwoDivision, within: VertexSet = None):
    """Re-check a claimed two-division of ``g[within]`` (all of ``g`` by
    default) with the exact clique oracle.

    Returns ``(ok, reason)``; ``reason`` names the violated clause.
    """
    full = _within_mask(g, within)
    if d.a.host_size != g.n or d.b.host_size != g.n:
        return False, "parts do not belong to this graph"
    if d.a.mask & d.b.mask:
        return False, "parts overlap"
    if (d.a.mask | d.b.mask) != full:
        return False, "parts do not cover the vertex set"
    w = clique_number(g, within).value
    wa = clique_number(g, d.a).value
    if wa >= w:
        return False, f"clique number of A is {wa}, not below {w}"
    wb = clique_number(g, d.b).value
    if wb >= w:
        return False, f"clique number of B is {wb}, not below {w}"
    return True, None


def verify_perfect_division(g: Graph, w: WeightFn, d: PerfectDivision, within: VertexSet = None):
    """Re-check a claimed perfect division of ``g[within]`` (all of ``g``
    by default): partition, perfection of the p side, and the strict
    weight drop on the w side.

    ``w`` may be None for unit weights. When the maximum clique weight of
    ``within`` is 0 (all-zero weights) the drop condition is vacuous, since
    no set can go below 0; the division only needs to be a partition then.
    """
    if w is None:
        w = WeightFn.unit(g.n)
    full = _within_mask(g, within)
    if d.p.host_size != g.n or d.w_side.host_size != g.n:
        return False, "parts do not belong to this graph"
    if d.p.mask & d.w_side.mask:
        return False, "parts overlap"
    if (d.p.mask | d.w_side.mask) != full:
        return False, "parts do not cover the vertex set"
    if not is_perfect(g, d.p):
        return False, "P side is not perfect"
    top = _checked_weight_clique(g, w, within)[0]
    side = _checked_weight_clique(g, w, d.w_side)[0]
    if top > 0 and side >= top:
        return False, f"maximum clique weight of W is {side}, not below {top}"
    return True, None


def two_divide(g: Graph, within: VertexSet = None, *, check_class: bool = True) -> TwoDivision:
    """Split ``g[within]`` (all of ``g`` by default), a (P5, C5)-free graph
    with an edge, into two parts of strictly smaller clique number.

    Per connected component: take the smallest vertex v with neighborhood N
    and non-neighborhood M. If every component of M has some vertex of N
    complete to it, the component splits as (M + v, N). Otherwise, among
    the vertices of N with a neighbor in the first uncovered component,
    pick the one with the most neighbors in M (smallest id on ties); its
    neighborhood becomes the A side. Edgeless components go wholly into A.
    The union of the per-component sides is verified before being returned.
    Class membership is checked on the whole host; heredity then covers
    every ``within``.
    """
    if check_class:
        _require_p5c5_free(g)
    full = _within_mask(g, within)
    adj = g.adj
    if not any(adj[v] & full for v in _bits(full)):
        raise DegenerateCliqueError("clique number is at most 1; there is nothing to divide")
    log = []
    comps = _mask_components(adj, full)
    log.append(_step("component-split", components=[_members(c) for c in comps]))
    a_mask = 0
    b_mask = 0
    for comp in comps:
        if all(adj[v] & comp == 0 for v in _bits(comp)):
            a_mask |= comp
            log.append(_step("base-partition", rule="stable-component", a=_members(comp), b=[]))
            continue
        ca, cb = _divide_connected(adj, comp, log)
        a_mask |= ca
        b_mask |= cb
    division = TwoDivision(VertexSet(g.n, a_mask), VertexSet(g.n, b_mask), log=tuple(log))
    ok, reason = verify_two_division(g, division, within)
    if not ok:
        raise TheoremViolationError(f"two-division failed verification: {reason}", log=log)
    return division


def _divide_connected(adj, comp: int, log: list):
    v = (comp & -comp).bit_length() - 1
    n_mask = adj[v] & comp
    m_mask = comp & ~n_mask & ~(1 << v)
    m_comps = _mask_components(adj, m_mask)
    log.append(
        _step(
            "vertex-choice",
            rule="smallest-in-component",
            v=v,
            neighborhood=_members(n_mask),
            non_neighborhood=_members(m_mask),
            m_components=[_members(c) for c in m_comps],
        )
    )
    uncovered = None
    for ci in m_comps:
        if not any(adj[u] & ci == ci for u in _bits(n_mask)):
            uncovered = ci
            break
    if uncovered is None:
        a = m_mask | (1 << v)
        b = n_mask
        log.append(_step("base-partition", rule="non-neighborhood-plus-v", a=_members(a), b=_members(b)))
        return a, b
    candidates = [u for u in _bits(n_mask) if adj[u] & uncovered]
    chosen = None
    best_count = -1
    scored = []
    for u in candidates:
        count = (adj[u] & m_mask).bit_count()
        scored.append({"vertex": u, "neighbors_in_m": count})
        if count > best_count:
            chosen = u
            best_count = count
    log.append(
        _step(
            "vertex-choice",
            rule="max-neighbors-in-m",
            uncovered_component=_members(uncovered),
            candidates=scored,
            chosen=chosen,
        )
    )
    a = adj[chosen] & comp
    b = comp & ~a
    log.append(_step("base-partition", rule="neighborhood-of-chosen", a=_members(a), b=_members(b)))
    return a, b


def is_two_divisible_oracle(g: Graph):
    """Brute-force 2-divisibility over every induced subgraph.

    A subset with an edge must admit a bipartition where both sides have
    strictly smaller clique number; edgeless subgraphs are exempt (their
    clique number cannot drop below 1). Returns ``(True, None)`` or
    ``(False, counterexample_set)``, the first failing subset in mask
    order.

    Subsets are decided in increasing mask order, so the split ``split[r]``
    of ``r = h`` minus its lowest vertex is known when ``h`` comes up. Its
    two sides, each with that vertex added back, are tried first; only when
    both fail the test is every submask of ``h`` through the lowest vertex
    scanned. When ω(h) > ω(r) the first candidate always passes.
    """
    n = g.n
    if n > ORACLE_BUDGET:
        raise BudgetExceededError(f"2-divisibility oracle limited to {ORACLE_BUDGET} vertices, asked for {n}")
    adj = g.adj
    size = 1 << n
    omega = [0] * size
    split = [0] * size
    for h in range(1, size):
        low = h & -h
        rest = h ^ low
        # compared by hand: a max() call here made the whole oracle 1.4 to
        # 1.9 times slower over the graphs on 8 vertices
        oh = omega[rest]
        through_low = 1 + omega[h & adj[low.bit_length() - 1]]
        if through_low > oh:
            oh = through_low
        omega[h] = oh
        if oh < 2:
            continue
        carried = split[rest]
        if omega[carried | low] < oh and omega[rest ^ carried] < oh:
            split[h] = carried | low
            continue
        if omega[h ^ carried] < oh and omega[carried] < oh:
            split[h] = h ^ carried
            continue
        a = h
        while not (a & low and omega[a] < oh and omega[h ^ a] < oh):
            if a == 0:
                return False, VertexSet(n, h)
            a = (a - 1) & h
        split[h] = a
    return True, None


def quotient_by_homogeneous_set(g: Graph, w: WeightFn, x: VertexSet, within: VertexSet = None) -> QuotientStep:
    """Contract the homogeneous set ``x`` of ``g[within]`` (all of ``g`` by
    default) to its smallest member, whose new weight is the maximum clique
    weight inside ``x``."""
    if len(w) != g.n:
        raise ValueError("weight function length does not match the graph")
    if not is_homogeneous(g, x, within):
        raise ValueError("x is not a homogeneous set of g")
    rep = x.members()[0]
    q_weights = list(w.weights)
    q_weights[rep] = _checked_weight_clique(g, w, x)[0]
    return QuotientStep(
        original=g,
        original_weights=w,
        x=x,
        representative=rep,
        quotient=VertexSet(g.n, (_within_mask(g, within) & ~x.mask) | (1 << rep)),
        quotient_weights=WeightFn(tuple(q_weights)),
    )


def recombine(step: QuotientStep, quotient_division: PerfectDivision, inner_division: PerfectDivision) -> PerfectDivision:
    """Merge a division of the quotient with a division of the contracted
    part into a division of the set they came from.

    If the representative landed on the W side, the whole contracted set
    joins W. If it landed on the P side, it is replaced by the perfect
    part of the inner division, and the inner W part joins W. The merged
    division is verified (including perfection of the combined P side)
    before being returned.
    """
    g = step.original
    w = step.original_weights
    x = step.x.mask
    if quotient_division.p | quotient_division.w_side != step.quotient:
        raise ValueError("quotient division does not cover the quotient")
    if inner_division.p | inner_division.w_side != step.x:
        raise ValueError("inner division does not cover the contracted part")
    rep_bit = 1 << step.representative
    if quotient_division.w_side.mask & rep_bit:
        case = "xhat-in-w"
        p = quotient_division.p.mask
        w_side = quotient_division.w_side.mask | x
    else:
        case = "xhat-in-p"
        p = (quotient_division.p.mask & ~rep_bit) | inner_division.p.mask
        w_side = quotient_division.w_side.mask | inner_division.w_side.mask
    log = (_step("recombination", case=case, x=_members(x), p=_members(p), w=_members(w_side)),)
    division = PerfectDivision(VertexSet(g.n, p), VertexSet(g.n, w_side), weight=w, log=log)
    ok, reason = verify_perfect_division(g, w, division, VertexSet(g.n, step.quotient.mask | x))
    if not ok:
        raise TheoremViolationError(f"recombination failed verification: {reason}", log=list(log))
    return division


def find_perfect_nonneighborhood_vertex(g: Graph, within: VertexSet = None):
    """Smallest vertex of ``within`` (all of ``g`` by default) whose
    non-neighborhood inside ``within`` induces a perfect graph, or None."""
    full = _within_mask(g, within)
    for v in _bits(full):
        if is_perfect(g, VertexSet(g.n, full & ~g.adj[v] & ~(1 << v))):
            return v
    return None


def _require_perfect_divide_class(g: Graph):
    bull = find_bull(g)
    if bull is not None:
        raise NotInClassError("graph contains an induced bull", [bull])
    hole = find_odd_hole(g, None)
    if hole is not None:
        p5 = find_p5(g)
        if p5 is not None:
            raise NotInClassError("graph contains both an odd hole and an induced P5", [hole, p5])


def perfect_divide(g: Graph, w: WeightFn = None, within: VertexSet = None, *, check_class: bool = True) -> PerfectDivision:
    """Divide ``g[within]`` (all of ``g`` by default), a bull-free graph
    that is odd-hole-free or P5-free, into a perfect part and a part with
    strictly smaller maximum clique weight.

    The work happens inside the set U of positively weighted vertices
    (zero-weight vertices join the W side for free). If the graph induced
    on U has a homogeneous set, it is contracted, both the quotient and the
    contracted part are divided recursively, and the results recombined.
    Otherwise the graph is prime and the smallest vertex v with a perfect
    non-neighborhood yields the split (M(v) + v, N(v)). Every recombination
    and the final result are verified, once each; ``w`` None means unit
    weights. Class membership is checked on the whole host; heredity then
    covers every ``within``.
    """
    effective = WeightFn.unit(g.n) if w is None else w
    if len(effective) != g.n:
        raise ValueError("weight function length does not match the graph")
    if check_class:
        _require_perfect_divide_class(g)
    full = _within_mask(g, within)
    u_mask = 0
    for v in _bits(full):
        if effective[v] > 0:
            u_mask |= 1 << v
    log = [_step("restrict", positive=_members(u_mask), zero=_members(full & ~u_mask))]
    p_mask = 0
    if u_mask:
        p_mask = _divide_all_positive(g, effective, VertexSet(g.n, u_mask), log).p.mask
    division = PerfectDivision(VertexSet(g.n, p_mask), VertexSet(g.n, full & ~p_mask), weight=w, log=tuple(log))
    # ``recombine`` has verified a division of all of ``within`` that ends in it
    if u_mask != full or log[-1]["kind"] != "recombination":
        ok, reason = verify_perfect_division(g, effective, division, within)
        if not ok:
            raise TheoremViolationError(f"perfect division failed verification: {reason}", log=log)
    return division


def _divide_all_positive(g: Graph, w: WeightFn, within: VertexSet, log: list) -> PerfectDivision:
    """Divide ``g[within]``, all of whose weights are positive."""
    x = find_homogeneous_set(g, within)
    if x is None:
        v = find_perfect_nonneighborhood_vertex(g, within)
        if v is None:
            raise TheoremViolationError(
                "prime graph has no vertex with perfect non-neighborhood",
                log=log,
                context={"vertices": list(within.members())},
            )
        p_mask = within.mask & ~g.adj[v]
        w_mask = within.mask & g.adj[v]
        log.append(
            _step(
                "base-partition",
                rule="perfect-non-neighborhood",
                chosen=v,
                rejected=_members(within.mask & ((1 << v) - 1)),
                p=_members(p_mask),
                w=_members(w_mask),
            )
        )
        return PerfectDivision(VertexSet(g.n, p_mask), VertexSet(g.n, w_mask), weight=w)
    step = quotient_by_homogeneous_set(g, w, x, within)
    log.append(
        _step(
            "quotient",
            x=_members(x.mask),
            representative=step.representative,
            lifted_weight=step.quotient_weights[step.representative],
            quotient=_members(step.quotient.mask),
        )
    )
    q_division = _divide_all_positive(g, step.quotient_weights, step.quotient, log)
    i_division = _divide_all_positive(g, w, x, log)
    combined = recombine(step, q_division, i_division)
    log.extend(combined.log)
    return combined


def classify_against_c5(g: Graph, c, v: int) -> C5Classification:
    """Classify how ``v`` attaches to the induced 5-cycle ``c``.

    ``c`` is the cycle in order (an Embedding from ``find_c5`` or any
    sequence of five vertices with consecutive adjacency). Outside
    vertices of a (P5, bull)-free graph always land in one of the four
    named categories; any other attachment forces an induced P5 or bull,
    which is returned as the violation witness (``TheoremViolationError``
    if it is no induced copy). Indices are 0-based positions in ``c``.
    """
    cs = tuple(c.vertices) if isinstance(c, Embedding) else tuple(c)
    if len(cs) != 5 or len(set(cs)) != 5:
        raise ValueError("c must list five distinct vertices")
    for u in cs:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex {u} out of range")
    if not 0 <= v < g.n or v in cs:
        raise ValueError("v must be a vertex outside c")
    for i in range(5):
        if not g.has_edge(cs[i], cs[(i + 1) % 5]):
            raise ValueError("c is not a 5-cycle in the given order")
        if g.has_edge(cs[i], cs[(i + 2) % 5]):
            raise ValueError("c is not induced: it has a chord")

    nbr = [i for i in range(5) if g.has_edge(v, cs[i])]
    k = len(nbr)
    if k == 0:
        return C5Classification("anticenter")
    if k == 5:
        return C5Classification("center")
    if k == 4:
        missing = next(i for i in range(5) if i not in nbr)
        return C5Classification("star", index=missing)
    if k == 1:
        i = nbr[0]
        path = (v, cs[i], cs[(i + 1) % 5], cs[(i + 2) % 5], cs[(i + 3) % 5])
        return _violation(g, "P5", path)
    if k == 2:
        i, j = nbr
        gap = (j - i) % 5
        if gap in (2, 3):
            mid = (i + 1) % 5 if gap == 2 else (j + 1) % 5
            return C5Classification("clone", index=mid)
        first = i if gap == 1 else j
        # triangle: v and the pair; pendants: the pair's other cycle neighbors
        bull = (cs[first], cs[(first + 1) % 5], v, cs[(first - 1) % 5], cs[(first + 2) % 5])
        return _violation(g, "bull", bull)
    # k == 3: classify by the two non-neighbors
    non = [i for i in range(5) if i not in nbr]
    i, j = non
    gap = (j - i) % 5
    if gap in (1, 4):
        first = i if gap == 1 else j
        return C5Classification("clone", index=(first + 3) % 5)
    start = i if gap == 2 else j
    triangle = (cs[(start + 3) % 5], cs[(start + 4) % 5], v, cs[(start + 2) % 5], cs[start])
    return _violation(g, "bull", triangle)


def _violation(g: Graph, name: str, vertices: tuple) -> C5Classification:
    """The violation that the induced ``name`` pattern on ``vertices``
    witnesses; a constructed witness that is no induced copy is a bug."""
    witness = Embedding(name, vertices)
    if not embedding_is_valid(g, pattern_for_name(name), witness):
        raise TheoremViolationError(f"constructed {name} witness is invalid")
    return C5Classification("violation", witness=witness)
