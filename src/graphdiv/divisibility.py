"""Constructive clique-number divisions, their oracles, and verifiers.

The two constructions never trust their own guarantees, so the package
doubles as a proof checker at the sizes it handles. Both have one shape: a
public entry (``two_divide``, ``perfect_divide``), then a core that divides
on masks (``_two_divide``, ``_perfect_divide``), then the public verifier
(``verify_two_division``, ``verify_perfect_division``). The clique
budget's check and its message live in one helper,
``core._check_clique_budget``. Verification policy:

- A result is checked once, where it leaves the package. ``two_divide``,
  ``perfect_divide`` and ``recombine`` check the division they return with
  its public verifier, on all of ``within``; the colorings check each
  finished coloring, in ``coloring._certified``; ``harness.run_verify``
  checks a stored record.
- The cores only divide: they return ``(mask, steps)`` and verify nothing.
  ``_perfect_divide`` keeps the checks that guard its construction: each
  quotient checks that the contracted set is homogeneous, and each
  recombination (``_merge``) that its divisions cover their parts. A merged
  P side is a perfect P with a perfect P substituted for one vertex, so
  perfect by Lovász's replication lemma. As in the paper, the contracted
  set is divided only when the quotient puts its representative on the P
  side.
- The base step takes the smallest vertex v of its set, untested. That
  rests on the paper's lemma, measured for n <= 9, and on the final check,
  whose perfection clause sees M(v) + v inside the P side returned.
- The cores and their recursion read only the host's rows, weight
  tuples, masks and the trees they hold. ``verify_perfect_division``,
  ``quotient_by_homogeneous_set``, ``recombine``, ``is_perfect`` and
  ``is_homogeneous`` validate their arguments and call the mask forms the
  recursion calls, so a replay of a log re-derives every step through them.
- The W clause of a perfect division computes W's maximum clique weight
  and passes iff it is 0 or some clique of ``within`` outweighs it. That
  is "W's best is below the best of ``within``": W lies inside
  ``within``, so the two are equal exactly when no clique outweighs W's.
- ``two_divide`` and ``perfect_divide`` check the class of the whole host,
  once per call, then call their cores; a coloring checks once and
  recurses on masks through the same cores. A graph outside the class ends
  in ``NotInClassError``, never in a failed check.
- Both constructions record each derivation step as a flat tuple of ints
  and masks, in ``steps``; ``.log`` renders them to member-list dicts each
  time it is read. ``harness.run_divide`` reads it once per record; a
  coloring reads none, unless a check fails and it reruns the public
  division on the sets it divided.
- A failed self-check raises ``TheoremViolationError`` with the
  derivation log up to the failed step, that step included where it has
  one, rendered to plain dicts where it is raised. A class precondition
  raises ``NotInClassError`` or ``DegenerateCliqueError``, an oracle limit
  ``BudgetExceededError``, and malformed caller input ``ValueError``. The
  quotient's homogeneity check and the merge's cover checks raise
  ``ValueError`` for the public steps' callers; inside the recursion the
  input is already checked, so ``_perfect_divide`` turns such an error into
  ``TheoremViolationError`` with the log so far.
- ``harness.run_divide`` and ``harness.run_color`` never check again;
  ``harness.run_verify`` trusts nothing in a stored record.
"""

from dataclasses import dataclass, field

from .core import (
    Graph,
    VertexSet,
    WeightFn,
    _bits,
    _check_clique_budget,
    _check_set,
    _check_weight_clique,
    _mask_components,
    _max_clique_mask,
    _max_weight_clique_mask,
    _outweighs,
    _within_mask,
)
from .errors import (
    BudgetExceededError,
    DegenerateCliqueError,
    NotInClassError,
    TheoremViolationError,
)
from .recognition import (
    PARALLEL,
    SERIES,
    Embedding,
    Module,
    _decompose,
    _homogeneous_split,
    _is_homogeneous_mask,
    _is_perfect_mask,
    embedding_is_valid,
    find_bull,
    find_c5,
    find_odd_hole,
    find_p5,
    pattern_for_name,
)

ORACLE_BUDGET = 12
# The lowest vertex of each mask below 2^ORACLE_BUDGET, for the oracle.
_LOWEST = [(h & -h).bit_length() - 1 for h in range(1 << ORACLE_BUDGET)]


@dataclass(frozen=True)
class TwoDivision:
    """A partition (a, b) of the host's vertices, both sides with clique
    number strictly below the host's.

    ``steps`` holds the derivation as flat tuples of ints and masks;
    ``log`` renders them to member-list dicts on each read."""

    a: VertexSet
    b: VertexSet
    steps: tuple = field(default=(), compare=False, repr=False)

    @property
    def log(self) -> tuple:
        return tuple(map(_two_step_dict, self.steps))

    def to_json(self):
        return {"kind": "two", "a": list(self.a.members()), "b": list(self.b.members())}


@dataclass(frozen=True)
class PerfectDivision:
    """A partition (p, w_side): the p side induces a perfect graph, the w
    side has maximum clique weight strictly below the host's.

    ``weight`` is the certified weight function; None means unit weights
    (so the condition is the plain clique number one). ``steps`` and
    ``log`` are as in ``TwoDivision``.
    """

    p: VertexSet
    w_side: VertexSet
    weight: WeightFn = None
    steps: tuple = field(default=(), compare=False, repr=False)

    @property
    def log(self) -> tuple:
        return tuple(map(_perfect_step_dict, self.steps))

    def to_json(self):
        return {
            "kind": "perfect",
            "p": list(self.p.members()),
            "w": list(self.w_side.members()),
            "weights": list(self.weight.weights) if self.weight is not None else None,
        }


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
    """The members of ``mask`` in ascending order, for the renderers below;
    no division calls it while it runs. A plain loop is faster here than
    draining ``_bits``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# A derivation step is a flat tuple: its kind, then ints and masks. Where a
# kind has several rules or cases, the int after the kind indexes these.
_TWO_CHOICE_RULES = ("smallest-in-component", "max-neighbors-in-m")
_TWO_PARTITION_RULES = ("stable-component", "non-neighborhood-plus-v", "neighborhood-of-chosen")
_RECOMBINATION_CASES = ("xhat-in-p", "xhat-in-w")


def _two_step_dict(step: tuple) -> dict:
    """The member-list dict of a ``two_divide`` step:
    ``("component-split", *components)``,
    ``("vertex-choice", 0, v, neighborhood, non_neighborhood, *m_components)``,
    ``("vertex-choice", 1, uncovered, chosen, *(vertex, count) pairs)`` or
    ``("base-partition", rule, a, b)``."""
    kind = step[0]
    if kind == "base-partition":
        return {"kind": kind, "rule": _TWO_PARTITION_RULES[step[1]], "a": _members(step[2]), "b": _members(step[3])}
    if kind == "component-split":
        return {"kind": kind, "components": [_members(c) for c in step[1:]]}
    if step[1] == 0:
        return {
            "kind": kind,
            "rule": _TWO_CHOICE_RULES[0],
            "v": step[2],
            "neighborhood": _members(step[3]),
            "non_neighborhood": _members(step[4]),
            "m_components": [_members(c) for c in step[5:]],
        }
    return {
        "kind": kind,
        "rule": _TWO_CHOICE_RULES[1],
        "uncovered_component": _members(step[2]),
        "candidates": [{"vertex": u, "neighbors_in_m": count} for u, count in step[4:]],
        "chosen": step[3],
    }


def _perfect_step_dict(step: tuple) -> dict:
    """The member-list dict of a ``perfect_divide`` step:
    ``("restrict", positive, zero)``,
    ``("quotient", x, representative, lifted_weight, quotient)``,
    ``("base-partition", chosen, p, w)`` or
    ``("recombination", case, x, p, w)``. A base step's ``chosen`` is the
    smallest vertex of its set."""
    kind = step[0]
    if kind == "recombination":
        _, case, x, p, w = step
        return {"kind": kind, "case": _RECOMBINATION_CASES[case], "x": _members(x), "p": _members(p), "w": _members(w)}
    if kind == "quotient":
        _, x, rep, lifted, quotient = step
        return {"kind": kind, "x": _members(x), "representative": rep, "lifted_weight": lifted, "quotient": _members(quotient)}
    if kind == "base-partition":
        _, v, p, w = step
        return {"kind": kind, "rule": "perfect-non-neighborhood", "chosen": v, "p": _members(p), "w": _members(w)}
    return {"kind": kind, "positive": _members(step[1]), "zero": _members(step[2])}


def _require_p5c5_free(g: Graph):
    p5 = find_p5(g)
    if p5 is not None:
        raise NotInClassError("graph contains an induced P5", [p5])
    c5 = find_c5(g)
    if c5 is not None:
        raise NotInClassError("graph contains an induced C5", [c5])


def verify_two_division(g: Graph, d: TwoDivision, within: VertexSet = None):
    """Re-check a claimed two-division of ``g[within]`` (all of ``g`` by
    default) with the exact clique oracle: the check that ``two_divide``
    makes.

    Returns ``(ok, reason)``; ``reason`` names the violated clause. Both
    parts lie inside ``within`` once they cover it, so its budget check
    covers all three clique searches.
    """
    full = _within_mask(g, within)
    if d.a.host_size != g.n or d.b.host_size != g.n:
        return False, "parts do not belong to this graph"
    if d.a.mask & d.b.mask:
        return False, "parts overlap"
    if d.a.mask | d.b.mask != full:
        return False, "parts do not cover the vertex set"
    _check_clique_budget(full.bit_count())
    w = _max_clique_mask(g.adj, full)[0]
    for name, part in (("A", d.a.mask), ("B", d.b.mask)):
        size = _max_clique_mask(g.adj, part)[0]
        if size >= w:
            return False, f"clique number of {name} is {size}, not below {w}"
    return True, None


def verify_perfect_division(g: Graph, w: WeightFn, d: PerfectDivision, within: VertexSet = None):
    """Re-check a claimed perfect division of ``g[within]`` (all of ``g``
    by default): partition, perfection of the p side, and the strict
    weight drop on the w side. It is the check that ``perfect_divide`` and
    ``recombine`` make.

    ``w`` may be None for unit weights. When the maximum clique weight of
    ``within`` is 0 (all-zero weights) the drop condition is vacuous, since
    no set can go below 0; the division only needs to be a partition then.
    The W clause is decided as the module's policy states; when it fails,
    the best weight of ``within`` equals W's.
    """
    full = _within_mask(g, within)
    if d.p.host_size != g.n or d.w_side.host_size != g.n:
        return False, "parts do not belong to this graph"
    weights = (1,) * g.n if w is None else w.weights
    if d.p.mask & d.w_side.mask:
        return False, "parts overlap"
    if (d.p.mask | d.w_side.mask) != full:
        return False, "parts do not cover the vertex set"
    if not _is_perfect_mask(g.adj, d.p.mask):
        return False, "P side is not perfect"
    _check_weight_clique(g.adj, weights, full)
    side = _max_weight_clique_mask(g.adj, weights, d.w_side.mask)[0]
    if side and not _outweighs(g.adj, weights, full, side):
        return False, f"maximum clique weight of W is {side}, not below {side}"
    return True, None


def _verified(division, check: tuple, what: str):
    """``division``, once its public verifier's ``check`` passed; otherwise
    ``TheoremViolationError`` naming ``what`` and the clause, with the
    division's log."""
    ok, reason = check
    if not ok:
        raise TheoremViolationError(f"{what} failed verification: {reason}", log=division.log)
    return division


def two_divide(g: Graph, within: VertexSet = None) -> TwoDivision:
    """Split ``g[within]`` (all of ``g`` by default), a (P5, C5)-free graph
    with an edge, into two parts of strictly smaller clique number.

    Per connected component: take the smallest vertex v with neighborhood N
    and non-neighborhood M. If every component of M has some vertex of N
    complete to it, the component splits as (M + v, N). Otherwise, among
    the vertices of N with a neighbor in the first uncovered component,
    pick the one with the most neighbors in M (smallest id on ties); its
    neighborhood becomes the A side. Edgeless components go wholly into A.
    The division is checked once, by ``verify_two_division``, before it is
    returned; a failure raises ``TheoremViolationError`` with its log.
    Class membership is checked on the whole host, once per call, even for
    a smaller ``within``; heredity then covers every ``within``.
    """
    _require_p5c5_free(g)
    full = _within_mask(g, within)
    a_mask, steps = _two_divide(g.adj, full)
    d = TwoDivision(VertexSet(g.n, a_mask), VertexSet(g.n, full & ~a_mask), steps=steps)
    return _verified(d, verify_two_division(g, d, within), "two-division")


def _two_divide(adj, full: int) -> tuple:
    """``two_divide`` on the host's rows and the mask of ``within``, its
    host's class checked and nothing verified: (A mask, steps)."""
    if not any(adj[v] & full for v in _bits(full)):
        raise DegenerateCliqueError("clique number is at most 1; there is nothing to divide")
    comps = _mask_components(adj, full)
    log = [("component-split", *comps)]
    a_mask = 0
    for comp in comps:
        a_mask |= _divide_component(adj, comp, log)
    return a_mask, tuple(log)


def _divide_component(adj, comp: int, log: list) -> int:
    """The A side of the connected component ``comp``, all of it when it
    is edgeless; its B side is the rest of ``comp``."""
    if all(adj[v] & comp == 0 for v in _bits(comp)):
        log.append(("base-partition", 0, comp, 0))
        return comp
    v = (comp & -comp).bit_length() - 1
    n_mask = adj[v] & comp
    m_mask = comp & ~n_mask & ~(1 << v)
    m_comps = _mask_components(adj, m_mask)
    log.append(("vertex-choice", 0, v, n_mask, m_mask, *m_comps))
    uncovered = None
    for ci in m_comps:
        if not any(adj[u] & ci == ci for u in _bits(n_mask)):
            uncovered = ci
            break
    if uncovered is None:
        a = m_mask | (1 << v)
        log.append(("base-partition", 1, a, n_mask))
        return a
    scored = [(u, (adj[u] & m_mask).bit_count()) for u in _bits(n_mask) if adj[u] & uncovered]
    # max keeps the first of equal counts: the smallest id on ties
    chosen = max(scored, key=lambda pair: pair[1])[0]
    log.append(("vertex-choice", 1, uncovered, chosen, *scored))
    a = adj[chosen] & comp
    log.append(("base-partition", 2, a, comp & ~a))
    return a


def is_two_divisible_oracle(g: Graph):
    """Brute-force 2-divisibility over every induced subgraph.

    A subset with an edge must admit a bipartition where both sides have
    strictly smaller clique number; edgeless subgraphs are exempt (their
    clique number cannot drop below 1). Returns ``(True, None)`` or
    ``(False, counterexample_set)``, the first failing subset in mask
    order.

    Subsets ``h`` are decided in increasing mask order, so the clique
    number and the split of ``r = h`` minus its lowest vertex ``v`` are
    known when ``h`` comes up; ``_LOWEST`` gives ``v`` for every mask below
    2^``ORACLE_BUDGET``. ω(h) is ω(r), or 1 + ω(r ∩ N(v)) when that is
    larger. ``split[r]`` is empty when ω(r) ≤ 1, and otherwise one side of
    a split of ``r``: both sides have clique number below ω(r).

    When ω rises through ``v``, ω(h) = ω(r) + 1 ≥ 2, and ``split[r]`` plus
    ``v`` splits ``h`` without a test. The other side lies inside ``r``, so
    its clique number is at most ω(r) < ω(h). ``split[r]`` has clique
    number at most ω(r) - 1 (it is empty when ω(r) = 1), so with ``v``
    added it has at most ω(r) < ω(h). Otherwise the two sides of
    ``split[r]``, each with ``v`` added back, are tried first; only when
    both fail the test is every submask of ``h`` through ``v`` scanned.
    """
    n = g.n
    if n > ORACLE_BUDGET:
        raise BudgetExceededError(f"2-divisibility oracle limited to {ORACLE_BUDGET} vertices, asked for {n}")
    adj = g.adj
    lowest = _LOWEST
    size = 1 << n
    omega = [0] * size
    split = [0] * size
    for h in range(1, size):
        rest = h & (h - 1)
        # compared by hand: a max() call here made the whole oracle 1.4 to
        # 1.9 times slower over the graphs on 8 vertices
        oh = omega[rest]
        through_low = 1 + omega[rest & adj[lowest[h]]]
        if through_low > oh:
            omega[h] = through_low
            if oh:
                split[h] = split[rest] | (h ^ rest)
            continue
        omega[h] = oh
        if oh < 2:
            continue
        low = h ^ rest
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


def _module_weight(adj, weights, node: Module) -> int:
    """Maximum clique weight inside the module ``node``, read off its
    decomposition: the sum of its children's values at a series node, their
    maximum at a parallel node, and at a prime node the maximum weight of a
    clique of representatives, one per child, each weighing its child's
    value."""
    if not node.children:
        return weights[node.mask.bit_length() - 1]
    values = [_module_weight(adj, weights, child) for child in node.children]
    if node.kind == SERIES:
        return sum(values)
    if node.kind == PARALLEL:
        return max(values)
    _check_clique_budget(len(values))
    reps = {(child.mask & -child.mask).bit_length() - 1: value for child, value in zip(node.children, values)}
    return _max_weight_clique_mask(adj, reps, sum(1 << v for v in reps))[0]


def quotient_by_homogeneous_set(g: Graph, w: WeightFn, x: VertexSet, within: VertexSet = None) -> WeightFn:
    """The weights of the quotient that contracts the homogeneous set ``x``
    of ``g[within]`` (all of ``g`` by default) to its smallest member, the
    quotient being ``within`` minus ``x`` plus that member. They are
    host-length: the representative carries the maximum clique weight
    inside ``x``, read off the modular decomposition of ``g[x]``, and every
    other vertex its weight in ``w``; ``w`` None means unit weights."""
    weights = (1,) * g.n if w is None else w.weights
    if len(weights) != g.n:
        raise ValueError("weight function length does not match the graph")
    _check_set(g, x)  # before ``_decompose`` reads x's rows
    full = _within_mask(g, within)
    return WeightFn(_quotient_weights(g.adj, weights, _decompose(g.adj, x.mask), full))


def _quotient_weights(adj, weights: tuple, x_tree: Module, full: int) -> tuple:
    """``quotient_by_homogeneous_set`` on the host's rows, a weight tuple
    and the mask of ``within``, for the set that ``x_tree`` decomposes."""
    if not _is_homogeneous_mask(adj, x_tree.mask, full):
        raise ValueError("x is not a homogeneous set of g")
    lifted = list(weights)
    lifted[(x_tree.mask & -x_tree.mask).bit_length() - 1] = _module_weight(adj, weights, x_tree)
    return tuple(lifted)


def recombine(
    g: Graph,
    w: WeightFn,
    x: VertexSet,
    quotient_division: PerfectDivision,
    inner_division: PerfectDivision,
    within: VertexSet = None,
) -> PerfectDivision:
    """Merge a division of the quotient that contracts ``x`` to its
    smallest member with a division of ``x`` into a division of ``within``
    (all of ``g`` by default).

    If the representative landed on the W side, the whole contracted set
    joins W, and ``inner_division`` may be None. If it landed on the P
    side, it is replaced by the perfect part of the inner division, and the
    inner W part joins W; ``inner_division`` None is a ValueError there.
    The merged division is checked once, by ``verify_perfect_division`` on
    ``within`` under ``w`` (including perfection of the combined P side),
    before it is returned; a failure raises ``TheoremViolationError`` with
    the recombination step as its log. The merge itself, ``_merge``,
    verifies nothing.
    """
    _check_set(g, x)
    full = _within_mask(g, within)
    if not x.mask or x.mask & ~full:
        raise ValueError("x is not a non-empty subset of within")
    # the masks are checked in ``_merge``; a part of another host fails here
    if (quotient_division.p | quotient_division.w_side).host_size != g.n:
        raise ValueError("quotient division does not cover the quotient")
    inner = None
    if inner_division is not None:
        if (inner_division.p | inner_division.w_side).host_size != x.host_size:
            raise ValueError("inner division does not cover the contracted part")
        inner = (inner_division.p.mask, inner_division.w_side.mask)
    quotient = (quotient_division.p.mask, quotient_division.w_side.mask)
    log = []
    p, w_side = _merge(x.mask, quotient, inner, full, log)
    d = PerfectDivision(VertexSet(g.n, p), VertexSet(g.n, w_side), weight=w, steps=tuple(log))
    return _verified(d, verify_perfect_division(g, w, d, within), "recombination")


def _merge(x_mask: int, quotient: tuple, inner, full: int, log: list) -> tuple:
    """``recombine`` on masks, without its verification: ``quotient`` is a
    ``(p, w)`` mask pair, and so is ``inner``, or None when the
    representative lands on W. Checks that both pairs cover their parts of
    ``full``, appends the recombination step to ``log`` and returns the
    merged ``(p, w)`` masks."""
    rep_bit = x_mask & -x_mask
    if quotient[0] | quotient[1] != (full & ~x_mask) | rep_bit:
        raise ValueError("quotient division does not cover the quotient")
    if inner is not None and inner[0] | inner[1] != x_mask:
        raise ValueError("inner division does not cover the contracted part")
    in_w = quotient[1] & rep_bit != 0
    if in_w:
        p = quotient[0]
        w_side = quotient[1] | x_mask
    elif inner is None:
        raise ValueError("the representative lands on the P side, so the contracted part needs an inner division")
    else:
        p = (quotient[0] & ~rep_bit) | inner[0]
        w_side = quotient[1] | inner[1]
    log.append(("recombination", in_w, x_mask, p, w_side))
    return p, w_side


def find_perfect_nonneighborhood_vertex(g: Graph, within: VertexSet = None):
    """Smallest vertex of ``within`` (all of ``g`` by default) whose
    non-neighborhood inside ``within`` induces a perfect graph, or None.
    ``perfect_divide`` does not call it: its base step takes the smallest
    vertex. The tests state the paper's lemma with it: in a prime class
    member every vertex qualifies."""
    adj, full = g.adj, _within_mask(g, within)
    for v in _bits(full):
        if _is_perfect_mask(adj, full & ~adj[v] & ~(1 << v)):
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


def perfect_divide(g: Graph, w: WeightFn = None, within: VertexSet = None) -> PerfectDivision:
    """Divide ``g[within]`` (all of ``g`` by default), a bull-free graph
    that is odd-hole-free or P5-free, into a perfect part and a part with
    strictly smaller maximum clique weight.

    The work happens inside the set U of positively weighted vertices
    (zero-weight vertices join the W side for free), on one modular
    decomposition of U. One rule contracts: the first child of the root
    with two or more vertices is contracted, the quotient divided
    recursively, and the contracted part too when its representative
    lands on the P side; on the W side all of it joins W. The results are
    recombined; the two decompositions are the tree with the set
    contracted and the set's own subtree. A set whose children are all
    single vertices (prime, complete or edgeless) takes the base step at
    its smallest vertex v: the paper's split (M(v) + v, N(v)) of a prime
    set at a vertex whose non-neighborhood M(v) is perfect (Chudnovsky &
    Sivaraman, arXiv:1704.06667). It is valid wherever M(v) is perfect, as
    v has positive weight and every clique of N(v) grows by v. Taking the
    smallest vertex, with no test, rests on two things: the lemma that in
    a prime class member every M(v) is perfect, measured for n <= 9, and
    the final check, which finds any imperfect M(v) inside the P side it
    checks. Only the division returned is checked, once, by
    ``verify_perfect_division`` on all of ``within``; a failure raises
    ``TheoremViolationError`` with its log. ``w`` None means unit weights.
    Class membership is checked on the whole host, once per call, even for
    a smaller ``within``; heredity then covers every ``within``.
    """
    weights = (1,) * g.n if w is None else w.weights
    if len(weights) != g.n:
        raise ValueError("weight function length does not match the graph")
    _require_perfect_divide_class(g)
    full = _within_mask(g, within)
    p_mask, steps = _perfect_divide(g.adj, weights, full)
    d = PerfectDivision(VertexSet(g.n, p_mask), VertexSet(g.n, full & ~p_mask), weight=w, steps=steps)
    return _verified(d, verify_perfect_division(g, w, d, within), "perfect division")


def _perfect_divide(adj, weights: tuple, full: int) -> tuple:
    """``perfect_divide`` on the host's rows, weights and a mask, its host's
    class checked: (P mask, steps). It keeps the checks of its
    construction, the quotients' homogeneity and the merges' covers, but
    tests no base step and verifies no division."""
    u_mask = 0
    for v in _bits(full):
        if weights[v] > 0:
            u_mask |= 1 << v
    log = [("restrict", u_mask, full & ~u_mask)]
    p_mask = 0
    if u_mask:
        # the input is checked: a quotient's or a merge's ValueError is a bug
        try:
            p_mask = _divide_all_positive(adj, weights, _decompose(adj, u_mask), log)[0]
        except ValueError as exc:
            raise TheoremViolationError(f"perfect division failed a self-check: {exc}", log=map(_perfect_step_dict, log)) from exc
    return p_mask, tuple(log)


def _divide_all_positive(adj, weights: tuple, tree: Module, log: list) -> tuple:
    """Divide the subgraph that ``tree`` decomposes, all of whose weights
    are positive, into ``(p, w)`` masks."""
    mask = tree.mask
    split = _homogeneous_split(tree)
    if split is None:
        v = (mask & -mask).bit_length() - 1
        p_mask = mask & ~adj[v]
        w_mask = mask & adj[v]
        log.append(("base-partition", v, p_mask, w_mask))
        return p_mask, w_mask
    x_tree, q_tree = split
    x_mask = x_tree.mask
    rep = (x_mask & -x_mask).bit_length() - 1
    q_weights = _quotient_weights(adj, weights, x_tree, mask)
    log.append(("quotient", x_mask, rep, q_weights[rep], q_tree.mask))
    quotient = _divide_all_positive(adj, q_weights, q_tree, log)
    # the merge uses a division of x only when its representative lands on P
    inner = None if quotient[1] & (1 << rep) else _divide_all_positive(adj, weights, x_tree, log)
    return _merge(x_mask, quotient, inner, mask, log)


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
