"""RP002 — accounting discipline: exact distances are always charged.

The paper's headline numbers are *exact-distance evaluation counts*; the
whole cost model collapses if one code path evaluates a measure without
charging the counter or the context store.  Retrieval and serving code
therefore must never call ``<measure>.compute*`` on a raw measure: every
exact evaluation goes through a binding (``ContextBinding`` over a
``DistanceContext`` — store hits are free, misses are charged exactly
once — or ``NominalBinding`` over a ``CountingDistance``).  Peeling
counters with ``split_counting`` is the distance layer's business
(``parallel_refine``, ``DistanceContext``), never retrieval's.

The rule flags ``X.compute(...)`` / ``X.compute_many(...)`` /
``X.compute_pairs(...)`` inside ``repro/retrieval/`` and
``repro/index/serving.py`` unless the receiver's dotted name mentions
``counting`` / ``context`` / ``binding`` (``self.counting.compute_many`` —
the wrapper charges).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    dotted_name,
    register_rule,
)

COMPUTE_METHODS = {"compute", "compute_many", "compute_pairs"}

#: Receiver name fragments that prove the evaluation is accounted.
ACCOUNTED_FRAGMENTS = ("counting", "context", "binding")


def _in_scope(module: ModuleContext) -> bool:
    posix = module.relative_path.as_posix()
    return "repro/retrieval/" in posix or posix.endswith("repro/index/serving.py")


@register_rule
class AccountingRule(Rule):
    """RP002: exact-distance calls in retrieval/serving must be accounted."""

    id = "RP002"
    name = "accounting-discipline"
    severity = "error"
    description = (
        "Exact-distance calls in retrieval/serving code must route through a "
        "binding (ContextBinding / NominalBinding), a CountingDistance or a "
        "DistanceContext — a raw <measure>.compute*() there bypasses the "
        "cost accounting the paper's numbers are built on."
    )

    def applies_to(self, module: ModuleContext) -> bool:
        """Only retrieval code and the serving layer are in scope."""
        return _in_scope(module)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Flag unaccounted ``X.compute*()`` calls."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in COMPUTE_METHODS:
                continue
            name = dotted_name(func.value)
            if name is not None and any(
                fragment in name.lower() for fragment in ACCOUNTED_FRAGMENTS
            ):
                continue
            shown = name if name is not None else "<expression>"
            yield module.finding(
                self,
                node,
                f"direct {shown}.{func.attr}() in retrieval/serving code "
                "bypasses cost accounting: evaluate through the refine "
                "stage's binding (store-aware through a DistanceContext, "
                "every pair charged otherwise).",
            )
