"""The search contract shared by every budgeted search in the package.

A search ends in one of three outcomes: a verified hit, a proven absence (the
search space is exhausted), or an exhausted budget.  SearchBudget states the
limits, _Tracker counts nodes against them and remembers when they ran out,
and _SearchStatus reads the outcome off a result.  A caller that needs a
verdict turns a truncated result into InconclusiveSearch with
require_complete.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import GraphError


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one logical search."""

    max_nodes: int = 10_000_000
    max_seconds: float = 60.0

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_seconds <= 0:
            raise GraphError("search budget limits must be positive")


class InconclusiveSearch(RuntimeError):
    """The search budget ran out before a verdict was reached."""


class _Tracker:
    """Mutable node/time accounting shared by the searches of one operation.

    exhausted turns True when spend() first refuses a node; every search that
    shares the tracker stops there, so its results are complete exactly when
    exhausted is False.
    """

    def __init__(self, budget: SearchBudget | None):
        budget = budget or SearchBudget()
        self.max_nodes = budget.max_nodes
        self.deadline = time.monotonic() + budget.max_seconds
        self.start = time.monotonic()
        self.nodes = 0
        self.exhausted = False

    def spend(self) -> bool:
        self.nodes += 1
        if self.nodes > self.max_nodes or (
            self.nodes % 4096 == 0 and time.monotonic() > self.deadline
        ):
            self.exhausted = True
            return False
        return True

    @property
    def seconds(self) -> float:
        return time.monotonic() - self.start


class _SearchStatus:
    """The three outcomes of a search result.  Subclasses name the field
    holding the hit and have a complete field."""

    _hit: str

    @property
    def hit(self):
        return getattr(self, self._hit)

    @property
    def status(self) -> str:
        if self.hit is not None:
            return "found"
        return "none" if self.complete else "budget-exhausted"


def require_complete(result):
    """Pass a finished search result through; raise InconclusiveSearch for a
    budget-truncated one."""
    if not result.complete:
        raise InconclusiveSearch(f"search truncated after {result.nodes} nodes")
    return result
