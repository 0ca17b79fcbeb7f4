"""Shared exception types, and the one record of a route's refusal.

A constructive route that can refuse either colors its input or
returns a `Refusal` naming the obstruction and the search nodes it
cost; a search that runs out of budget raises `UndecidedError`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GraphError", "UndecidedError", "Refusal"]


class GraphError(ValueError):
    """Domain or precondition violation on graph-shaped input."""


class UndecidedError(RuntimeError):
    """An exact search ran out of its node budget before deciding.

    Carries the number of search nodes spent so callers can report it.
    """

    def __init__(self, message: str, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


@dataclass(frozen=True)
class Refusal:
    """Why a route cannot color its input, and the search nodes that
    cost.  at is where it applies: the source vertex of a class II
    critical constituent, the violated clause "i" or "ii" of a
    regular truncation, or None."""

    reason: str
    nodes: int
    at: int | str | None = None
