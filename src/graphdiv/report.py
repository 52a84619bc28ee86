"""Versioned run reports: assembly, serialization, and scrubbing.

Reports are deterministic given the same seed and inputs: records are
sorted by their graph6 string and serialization sorts keys. The only
volatile content is wall-clock data (the top-level timestamp and the
per-record timings), which ``scrub_volatile`` strips for comparisons.
``report_to_json`` writes one top-level key per line and each record
compact on a line of its own. Color records also render as a CSV table
(``color_csv``).
"""

import json
import time

from .core import CHROMATIC_BUDGET, chromatic_number_exact
from .formats import parse_graph6

SCHEMA_VERSION = 1
VOLATILE_KEYS = frozenset({"timestamp", "elapsed_ms"})

STATUS_OK = "ok"
STATUS_VERIFY_FAILED = "verify-failed"
STATUS_CLASS_VIOLATION = "class-violation"
STATUS_THEOREM_VIOLATION = "theorem-violation"
STATUS_BUDGET_EXCEEDED = "budget-exceeded"

_ALL_STATUSES = (
    STATUS_OK,
    STATUS_VERIFY_FAILED,
    STATUS_CLASS_VIOLATION,
    STATUS_THEOREM_VIOLATION,
    STATUS_BUDGET_EXCEEDED,
)


def build_report(command: str, records, *, seed=None, options=None) -> dict:
    """Assemble the versioned report envelope around ``records``."""
    ordered = sorted(records, key=lambda r: r.get("graph6", ""))
    summary = {"total": len(ordered)}
    for status in _ALL_STATUSES:
        count = sum(1 for r in ordered if r.get("status") == status)
        if count:
            summary[status] = count
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "options": options or {},
        "records": ordered,
        "summary": summary,
        "timestamp": time.time(),
    }


_encode = json.JSONEncoder(sort_keys=True).encode


def report_to_json(report: dict) -> str:
    """``report`` as ASCII JSON text ending in a newline.

    The envelope is indented by two spaces, one top-level key per line in
    sorted order, and each record sits compact on a line of its own. The C
    encoder does all of the encoding (``indent`` would switch it off), and
    the text is joined once from one list of pieces.
    """
    pieces = ["{"]
    separator = "\n  "
    for key in sorted(report):
        pieces += (separator, _encode(key), ": ")
        separator = ",\n  "
        if key == "records":
            pieces.append("[")
            record_separator = "\n    "
            for record in report[key]:
                pieces += (record_separator, _encode(record))
                record_separator = ",\n    "
            pieces.append("\n  ]")
        else:
            pieces.append(_encode(report[key]))
    pieces.append("\n}\n")
    return "".join(pieces)


COLOR_CSV_HEADER = "id,omega,chi,used,bound,slack"


def color_csv(records) -> str:
    """The color records as a table, one row per record, in their order.

    Record ids must be graph6 strings, as every driver's are. Every column
    but ``chi`` comes from the record's certificate; ``chi`` is the exact
    chromatic number of the graph parsed from the id, blank above
    ``CHROMATIC_BUDGET`` vertices. A record without a certificate (its
    coloring failed) is the row ``id,,,,,``.
    """
    lines = [COLOR_CSV_HEADER]
    for record in records:
        g6 = record["graph6"]
        certificate = record.get("certificate")
        if certificate is None:
            lines.append(f"{g6},,,,,")
            continue
        g = parse_graph6(g6)
        chi = chromatic_number_exact(g)[0] if g.n <= CHROMATIC_BUDGET else ""
        omega, used, bound = certificate["omega"], certificate["used"], certificate["bound"]
        lines.append(f"{g6},{omega},{chi},{used},{bound},{bound - used}")
    return "\n".join(lines) + "\n"


def scrub_volatile(value):
    """Copy of ``value`` with every volatile key removed, recursively."""
    if isinstance(value, dict):
        return {k: scrub_volatile(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [scrub_volatile(v) for v in value]
    return value
