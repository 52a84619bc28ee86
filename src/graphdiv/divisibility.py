"""Constructive clique-number divisions, their oracles, and verifiers.

The two constructions never trust their own guarantees, so the package
doubles as a proof checker at the sizes it handles. Both have one shape: a
public entry (``two_divide``, ``perfect_divide``), then a core that divides
on masks (``_two_divide``, ``_perfect_divide``), then one private verifier
on masks (``_verify_two_masks``, ``_verify_perfect_masks``). The public
verifier (``verify_two_division``, ``verify_perfect_division``) checks that
the parts belong to the graph and calls the same private one. The clique
budget's check and its message live in one helper,
``core._check_clique_budget``. Verification policy:

- ``_two_divide`` checks its division once, before it returns. In
  ``_perfect_divide`` each recombination (``_merge``) checks its merge on
  its ``within``, the quotient plus the contracted set, and each quotient
  checks that the contracted set is homogeneous. As in the paper, the
  contracted set is divided only when the quotient puts its
  representative on the P side, so no division that the merge would
  discard is made or checked. ``_perfect_divide`` checks the final
  division, unless the last recombination already covered all of
  ``within``; the colorings check each finished coloring once, in
  ``coloring._certified``.
- ``perfect_divide``'s recursion runs on masks, weight tuples and the
  trees it holds. ``verify_perfect_division``,
  ``quotient_by_homogeneous_set``, ``recombine``,
  ``find_perfect_nonneighborhood_vertex``, ``is_perfect`` and
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
  time it is read. ``harness.run_divide`` reads it once per record, the
  colorings never do.
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
    """The members of ``mask`` in ascending order, for the renderers below
    and the prime-set error; no division calls it while it runs. A plain
    loop is faster here than draining ``_bits``."""
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
    ``("base-partition", chosen, rejected, p, w)`` or
    ``("recombination", case, x, p, w)``."""
    kind = step[0]
    if kind == "recombination":
        _, case, x, p, w = step
        return {"kind": kind, "case": _RECOMBINATION_CASES[case], "x": _members(x), "p": _members(p), "w": _members(w)}
    if kind == "quotient":
        _, x, rep, lifted, quotient = step
        return {"kind": kind, "x": _members(x), "representative": rep, "lifted_weight": lifted, "quotient": _members(quotient)}
    if kind == "base-partition":
        _, v, rejected, p, w = step
        return {
            "kind": kind,
            "rule": "perfect-non-neighborhood",
            "chosen": v,
            "rejected": _members(rejected),
            "p": _members(p),
            "w": _members(w),
        }
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
    default) with the exact clique oracle.

    Returns ``(ok, reason)``; ``reason`` names the violated clause. Once
    the parts belong to ``g``, the clauses are those of
    ``_verify_two_masks``, the check that ``two_divide`` makes.
    """
    full = _within_mask(g, within)
    if d.a.host_size != g.n or d.b.host_size != g.n:
        return False, "parts do not belong to this graph"
    return _verify_two_masks(g.adj, d.a.mask, d.b.mask, full)


def _verify_two_masks(adj, a: int, b: int, full: int):
    """``verify_two_division`` on masks of the rows ``adj``, once the parts
    are known to belong to their graph. Both parts lie inside ``full`` once
    they cover it, so its budget check covers all three clique searches."""
    if a & b:
        return False, "parts overlap"
    if a | b != full:
        return False, "parts do not cover the vertex set"
    _check_clique_budget(full.bit_count())
    w = _max_clique_mask(adj, full)[0]
    for name, part in (("A", a), ("B", b)):
        size = _max_clique_mask(adj, part)[0]
        if size >= w:
            return False, f"clique number of {name} is {size}, not below {w}"
    return True, None


def verify_perfect_division(g: Graph, w: WeightFn, d: PerfectDivision, within: VertexSet = None):
    """Re-check a claimed perfect division of ``g[within]`` (all of ``g``
    by default): partition, perfection of the p side, and the strict
    weight drop on the w side.

    ``w`` may be None for unit weights. When the maximum clique weight of
    ``within`` is 0 (all-zero weights) the drop condition is vacuous, since
    no set can go below 0; the division only needs to be a partition then.
    """
    full = _within_mask(g, within)
    if d.p.host_size != g.n or d.w_side.host_size != g.n:
        return False, "parts do not belong to this graph"
    weights = (1,) * g.n if w is None else w.weights
    return _verify_perfect_masks(g, weights, d.p.mask, d.w_side.mask, full)


def _verify_perfect_masks(g: Graph, weights: tuple, p_mask: int, w_mask: int, full: int):
    """``verify_perfect_division`` on masks of ``g`` and a weight tuple,
    once the parts are known to belong to ``g``. The W clause is decided
    as the module's policy states; when it fails, the best weight of
    ``full`` equals W's."""
    if p_mask & w_mask:
        return False, "parts overlap"
    if (p_mask | w_mask) != full:
        return False, "parts do not cover the vertex set"
    if not _is_perfect_mask(g, p_mask):
        return False, "P side is not perfect"
    _check_weight_clique(g.adj, weights, full)
    side = _max_weight_clique_mask(g.adj, weights, w_mask)[0]
    if side and not _outweighs(g.adj, weights, full, side):
        return False, f"maximum clique weight of W is {side}, not below {side}"
    return True, None


def two_divide(g: Graph, within: VertexSet = None) -> TwoDivision:
    """Split ``g[within]`` (all of ``g`` by default), a (P5, C5)-free graph
    with an edge, into two parts of strictly smaller clique number.

    Per connected component: take the smallest vertex v with neighborhood N
    and non-neighborhood M. If every component of M has some vertex of N
    complete to it, the component splits as (M + v, N). Otherwise, among
    the vertices of N with a neighbor in the first uncovered component,
    pick the one with the most neighbors in M (smallest id on ties); its
    neighborhood becomes the A side. Edgeless components go wholly into A.
    The union of the per-component sides is verified on masks, by
    ``_verify_two_masks``, before being returned. Class membership is
    checked on the whole host, once per call, even for a smaller
    ``within``; heredity then covers every ``within``.
    """
    _require_p5c5_free(g)
    full = _within_mask(g, within)
    a_mask, steps = _two_divide(g, full)
    return TwoDivision(VertexSet(g.n, a_mask), VertexSet(g.n, full & ~a_mask), steps=steps)


def _two_divide(g: Graph, full: int) -> tuple:
    """``two_divide`` on the mask of ``within``, its host's class checked: (A mask, steps)."""
    adj = g.adj
    if not any(adj[v] & full for v in _bits(full)):
        raise DegenerateCliqueError("clique number is at most 1; there is nothing to divide")
    comps = _mask_components(adj, full)
    log = [("component-split", *comps)]
    a_mask = 0
    b_mask = 0
    for comp in comps:
        if all(adj[v] & comp == 0 for v in _bits(comp)):
            a_mask |= comp
            log.append(("base-partition", 0, comp, 0))
            continue
        ca, cb = _divide_connected(adj, comp, log)
        a_mask |= ca
        b_mask |= cb
    ok, reason = _verify_two_masks(adj, a_mask, b_mask, full)
    if not ok:
        raise TheoremViolationError(f"two-division failed verification: {reason}", log=map(_two_step_dict, log))
    return a_mask, tuple(log)


def _divide_connected(adj, comp: int, log: list):
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
        b = n_mask
        log.append(("base-partition", 1, a, b))
        return a, b
    candidates = [u for u in _bits(n_mask) if adj[u] & uncovered]
    chosen = None
    best_count = -1
    scored = []
    for u in candidates:
        count = (adj[u] & m_mask).bit_count()
        scored.append((u, count))
        if count > best_count:
            chosen = u
            best_count = count
    log.append(("vertex-choice", 1, uncovered, chosen, *scored))
    a = adj[chosen] & comp
    b = comp & ~a
    log.append(("base-partition", 2, a, b))
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
    return WeightFn(_quotient_weights(g, weights, _decompose(g.adj, x.mask), full))


def _quotient_weights(g: Graph, weights: tuple, x_tree: Module, full: int) -> tuple:
    """``quotient_by_homogeneous_set`` on a weight tuple and the mask of
    ``within``, for the set that ``x_tree`` decomposes."""
    if not _is_homogeneous_mask(g.adj, x_tree.mask, full):
        raise ValueError("x is not a homogeneous set of g")
    lifted = list(weights)
    lifted[(x_tree.mask & -x_tree.mask).bit_length() - 1] = _module_weight(g.adj, weights, x_tree)
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
    The merged division is verified on ``within`` under ``w`` (including
    perfection of the combined P side) before being returned.
    """
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
    weights = (1,) * g.n if w is None else w.weights
    quotient = (quotient_division.p.mask, quotient_division.w_side.mask)
    log = []
    p, w_side = _merge(g, weights, x.mask, quotient, inner, full, log)
    return PerfectDivision(VertexSet(g.n, p), VertexSet(g.n, w_side), weight=w, steps=tuple(log))


def _merge(g: Graph, weights: tuple, x_mask: int, quotient: tuple, inner, full: int, log: list) -> tuple:
    """``recombine`` on masks: ``quotient`` is a ``(p, w)`` mask pair, and
    so is ``inner``, or None when the representative lands on W. Appends
    the recombination step to ``log``, then returns the merged ``(p, w)``
    masks once the merge is verified on ``full``."""
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
    ok, reason = _verify_perfect_masks(g, weights, p, w_side, full)
    if not ok:
        raise TheoremViolationError(f"recombination failed verification: {reason}", log=map(_perfect_step_dict, log))
    return p, w_side


def find_perfect_nonneighborhood_vertex(g: Graph, within: VertexSet = None):
    """Smallest vertex of ``within`` (all of ``g`` by default) whose
    non-neighborhood inside ``within`` induces a perfect graph, or None."""
    return _perfect_nonneighborhood_vertex(g, _within_mask(g, within))


def _perfect_nonneighborhood_vertex(g: Graph, full: int):
    """``find_perfect_nonneighborhood_vertex`` on the mask of ``within``."""
    for v in _bits(full):
        if _is_perfect_mask(g, full & ~g.adj[v] & ~(1 << v)):
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
    decomposition of U. If the graph induced on U has a homogeneous set,
    the one that ``find_homogeneous_set`` names (a child of the root, or
    its first two) is contracted and the quotient divided recursively. The
    contracted part is divided too only when its representative lands on
    the P side; on the W side all of it joins W. The results are
    recombined; the two decompositions are the tree with the set contracted
    and the set's own subtree. Otherwise the graph is prime and the
    smallest vertex v with a perfect non-neighborhood yields the split
    (M(v) + v, N(v)). Every recombination and the final result are
    verified, once each; ``w`` None means unit weights. Class membership
    is checked on the whole host, once per call, even for a smaller
    ``within``; heredity then covers every ``within``.
    """
    weights = (1,) * g.n if w is None else w.weights
    if len(weights) != g.n:
        raise ValueError("weight function length does not match the graph")
    _require_perfect_divide_class(g)
    full = _within_mask(g, within)
    p_mask, steps = _perfect_divide(g, weights, full)
    return PerfectDivision(VertexSet(g.n, p_mask), VertexSet(g.n, full & ~p_mask), weight=w, steps=steps)


def _perfect_divide(g: Graph, weights: tuple, full: int) -> tuple:
    """``perfect_divide`` on weights and a mask, its host's class checked: (P mask, steps)."""
    u_mask = 0
    for v in _bits(full):
        if weights[v] > 0:
            u_mask |= 1 << v
    log = [("restrict", u_mask, full & ~u_mask)]
    p_mask = 0
    if u_mask:
        # the input is checked: a quotient's or a merge's ValueError is a bug
        try:
            p_mask = _divide_all_positive(g, weights, _decompose(g.adj, u_mask), log)[0]
        except ValueError as exc:
            raise TheoremViolationError(f"perfect division failed a self-check: {exc}", log=map(_perfect_step_dict, log)) from exc
    # ``_merge`` has verified a division of all of ``full`` that ends in it
    if u_mask != full or log[-1][0] != "recombination":
        ok, reason = _verify_perfect_masks(g, weights, p_mask, full & ~p_mask, full)
        if not ok:
            raise TheoremViolationError(f"perfect division failed verification: {reason}", log=map(_perfect_step_dict, log))
    return p_mask, tuple(log)


def _divide_all_positive(g: Graph, weights: tuple, tree: Module, log: list) -> tuple:
    """Divide the subgraph that ``tree`` decomposes, all of whose weights
    are positive, into ``(p, w)`` masks."""
    mask = tree.mask
    split = _homogeneous_split(tree)
    if split is None:
        v = _perfect_nonneighborhood_vertex(g, mask)
        if v is None:
            message = f"prime graph on {_members(mask)} has no vertex with perfect non-neighborhood"
            raise TheoremViolationError(message, log=map(_perfect_step_dict, log))
        p_mask = mask & ~g.adj[v]
        w_mask = mask & g.adj[v]
        log.append(("base-partition", v, mask & ((1 << v) - 1), p_mask, w_mask))
        return p_mask, w_mask
    x_tree, q_tree = split
    x_mask = x_tree.mask
    rep = (x_mask & -x_mask).bit_length() - 1
    q_weights = _quotient_weights(g, weights, x_tree, mask)
    log.append(("quotient", x_mask, rep, q_weights[rep], q_tree.mask))
    quotient = _divide_all_positive(g, q_weights, q_tree, log)
    # the merge uses a division of x only when its representative lands on P
    inner = None if quotient[1] & (1 << rep) else _divide_all_positive(g, weights, x_tree, log)
    return _merge(g, weights, x_mask, quotient, inner, mask, log)


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
