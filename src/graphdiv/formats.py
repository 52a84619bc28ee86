"""graph6 reader and writer, and a DIMACS .col reader.

Both formats follow their public conventions bit for bit: graph6 packs the
upper triangle column by column into 6-bit printable bytes offset by 63;
DIMACS uses a ``p edge n m`` header and 1-indexed ``e u v`` lines. A
DIMACS header may declare at most ``CLIQUE_BUDGET`` vertices, the largest
oracle budget; graph6 needs no such limit, because the work its reader
does is bounded by the length of the string.
"""

from .core import CLIQUE_BUDGET, Graph
from .errors import ParseError, echo

_G6_HEADER = ">>graph6<<"


def _encode_size(n: int) -> str:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return chr(126) + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) * 2 + "".join(chr(63 + (n >> shift & 63)) for shift in (30, 24, 18, 12, 6, 0))
    raise ValueError("vertex count too large for graph6")


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 encoding of ``g`` (no trailing newline)."""
    n = g.n
    out = [_encode_size(n)]
    value = 0
    filled = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            value = value << 1 | (col >> i & 1)
            filled += 1
            if filled == 6:
                out.append(chr(63 + value))
                value = 0
                filled = 0
    if filled:
        value <<= 6 - filled
        out.append(chr(63 + value))
    return "".join(out)


def _decode_size(s: str):
    """Return ``(n, data_start)`` for a graph6 body."""
    if not s:
        raise ParseError("empty graph6 string", kind="header")
    for ch in s:
        code = ord(ch)
        if not 63 <= code <= 126:
            raise ParseError(f"graph6 byte {code} outside the printable 63..126 range", kind="range")
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if len(s) >= 2 and s[1] != "~":
        if len(s) < 4:
            raise ParseError("truncated graph6 size header", kind="header")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        return n, 4
    if len(s) < 8:
        raise ParseError("truncated graph6 size header", kind="header")
    n = 0
    for ch in s[2:8]:
        n = n << 6 | (ord(ch) - 63)
    return n, 8


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 string (an optional ``>>graph6<<`` prefix is allowed)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    n, start = _decode_size(s)
    data = s[start:]
    needed = n * (n - 1) // 2
    have = 6 * len(data)
    if have < needed or have - needed >= 6:
        raise ParseError(
            f"graph6 body carries {have} bits but a graph on {n} vertices needs {needed}",
            kind="count",
        )
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            bit = (ord(data[k // 6]) - 63) >> (5 - k % 6) & 1
            if bit:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    while k < have:
        if (ord(data[k // 6]) - 63) >> (5 - k % 6) & 1:
            raise ParseError("graph6 padding bits must be zero", kind="count")
        k += 1
    return Graph(n, tuple(adj))


def parse_graph6_lines(text: str) -> list:
    """Parse a file of graph6 strings, one per non-empty line."""
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col graph (``p edge n m`` header, ``e u v`` lines).

    A header that declares more than ``CLIQUE_BUDGET`` vertices is a parse
    error of kind "range": no subcommand can give such a graph an ok
    record, and the header alone would size the adjacency rows.
    """
    n = None
    declared = 0
    edge_lines = 0
    adj = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate DIMACS problem line", kind="header")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"malformed DIMACS header: {echo(line)}", kind="header")
            try:
                n = int(parts[2])
                declared = int(parts[3])
            except ValueError:
                raise ParseError(f"non-numeric DIMACS header fields: {echo(line)}", kind="header") from None
            if n < 0 or declared < 0:
                raise ParseError("DIMACS sizes must be non-negative", kind="header")
            if n > CLIQUE_BUDGET:
                raise ParseError(
                    f"DIMACS header declares {echo(n)} vertices, above the limit of {CLIQUE_BUDGET}",
                    kind="range",
                )
            adj = [0] * n
        elif parts[0] == "e":
            if n is None:
                raise ParseError("DIMACS edge line before the problem line", kind="header")
            if len(parts) != 3:
                raise ParseError(f"malformed DIMACS edge line: {echo(line)}", kind="header")
            try:
                u = int(parts[1])
                v = int(parts[2])
            except ValueError:
                raise ParseError(f"non-numeric DIMACS edge endpoints: {echo(line)}", kind="range") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"DIMACS endpoint out of 1..{n}: {echo(line)}", kind="range")
            if u == v:
                raise ParseError(f"DIMACS self-loop at vertex {u}", kind="range")
            edge_lines += 1
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        else:
            raise ParseError(f"unknown DIMACS line type: {echo(line)}", kind="header")
    if n is None:
        raise ParseError("DIMACS input has no problem line", kind="header")
    if edge_lines != declared:
        raise ParseError(
            f"DIMACS header declares {echo(declared)} edges but {edge_lines} edge lines follow",
            kind="count",
        )
    return Graph(n, tuple(adj))

