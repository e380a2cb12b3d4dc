"""The one way retrieval code computes and charges exact distances.

Every retriever refines through a *binding* of its distance to its
database, returned by :func:`bind_context`:

* :class:`ContextBinding` for a
  :class:`~repro.distances.context.DistanceContext` — evaluations charge
  against the context's shared store, so cached pairs are free;
* :class:`NominalBinding` for any other measure — nothing is cached and
  every pair is charged, the paper's nominal ``p`` evaluations per query.

Both answer ``distances_to(obj, positions) -> (values, spent)`` and
``distances_to_many(objs, position_lists, n_jobs) -> (values_list,
spent_list)``, where ``spent`` is the number of evaluations actually
performed, and count them in ``calls``.  The mapping from database
positions to the measure's objects and the accounting decision live here
once, so the retrievers never branch on the kind of measure and cannot
drift.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.base import Dataset
from repro.distances.base import CountingDistance, DistanceMeasure
from repro.distances.context import DistanceContext
from repro.distances.parallel import parallel_refine, resolve_jobs
from repro.exceptions import DistanceError, RetrievalError

__all__ = ["ContextBinding", "NominalBinding", "Binding", "bind_context"]


class ContextBinding:
    """A :class:`DistanceContext` bound to one retriever's database.

    Attributes
    ----------
    context:
        The shared distance context.
    database:
        The bound database.
    indices:
        ``indices[position]`` is the universe index of the database object
        at ``position``, so retriever-level candidate arrays translate to
        store keys with one fancy index.
    calls:
        Exact evaluations actually performed through this binding (store
        hits are free) — the number the retrievers report.
    """

    def __init__(self, context: DistanceContext, database: Dataset) -> None:
        try:
            self.indices = context.indices_of(list(database))
        except DistanceError as exc:
            raise RetrievalError(
                "the DistanceContext universe must contain every database "
                "object (build the context over the database, or database "
                "plus queries)"
            ) from exc
        self.context = context
        self.database = database
        self.calls = 0

    def distances_to(
        self, obj: Any, positions: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Exact distances from ``obj`` to the database ``positions``.

        Returns ``(values, spent)`` where ``spent`` is the number of fresh
        evaluations the resolution reports (0 when every pair was cached).
        """
        values, spent = self.context._resolve_now(obj, self.indices[positions])
        self.calls += spent
        return values, spent

    def distances_to_many(
        self,
        objects: Sequence[Any],
        position_lists: Sequence[np.ndarray],
        n_jobs: Optional[int] = None,
    ) -> Tuple[List[np.ndarray], List[int]]:
        """Batched :meth:`distances_to`; the context pools missing pairs."""
        values, computed = self.context.distances_to_many(
            objects, [self.indices[p] for p in position_lists], n_jobs=n_jobs
        )
        self.calls += sum(computed)
        return values, computed


class NominalBinding:
    """A plain measure bound to a database: nothing cached, every pair charged.

    Evaluations run through a :class:`~repro.distances.base.CountingDistance`
    wrapper, so ``spent`` is always the number of positions asked for and a
    caller-supplied counter inside the measure is charged the same amount on
    the serial and the pooled path.  ``database`` is read at call time, so
    a live list (:class:`~repro.retrieval.dynamic.DynamicDatabase`) may keep
    changing between calls.
    """

    def __init__(self, distance: DistanceMeasure, database: Sequence[Any]) -> None:
        self.counting = CountingDistance(distance)
        self.database = database

    @property
    def calls(self) -> int:
        """Exact evaluations performed through this binding."""
        return self.counting.calls

    @calls.setter
    def calls(self, value: int) -> None:
        self.counting.calls = value

    def distances_to(
        self, obj: Any, positions: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Exact distances from ``obj`` to the database ``positions``."""
        values = self.counting.compute_many(
            obj, [self.database[int(i)] for i in positions]
        )
        return np.asarray(values, dtype=float), len(positions)

    def distances_to_many(
        self,
        objects: Sequence[Any],
        position_lists: Sequence[np.ndarray],
        n_jobs: Optional[int] = None,
    ) -> Tuple[List[np.ndarray], List[int]]:
        """Batched :meth:`distances_to`, over a process pool when ``n_jobs > 1``.

        The pool is used only for more than one query; it ships the inner
        measure and charges the counters in the parent, so results and
        counts equal the serial path.
        """
        objects = list(objects)
        n_workers = resolve_jobs(n_jobs)
        if n_workers <= 1 or len(objects) <= 1:
            done = [
                self.distances_to(obj, positions)
                for obj, positions in zip(objects, position_lists)
            ]
            return [values for values, _ in done], [spent for _, spent in done]
        items = [
            (qi, obj, 0, positions)
            for qi, (obj, positions) in enumerate(zip(objects, position_lists))
        ]
        by_query = parallel_refine(
            self.counting, [list(self.database)], items, n_workers
        )
        return (
            [np.asarray(by_query[qi], dtype=float) for qi in range(len(objects))],
            [len(positions) for positions in position_lists],
        )


#: What :func:`bind_context` returns; the retrievers use only the shared
#: ``distances_to`` / ``distances_to_many`` / ``calls`` surface.
Binding = Union[ContextBinding, NominalBinding]


def bind_context(distance: DistanceMeasure, database: Dataset) -> Binding:
    """Bind ``distance`` to ``database`` (see the module docstring).

    A :class:`ContextBinding` for a context, else a :class:`NominalBinding`.
    """
    if isinstance(distance, DistanceContext):
        return ContextBinding(distance, database)
    return NominalBinding(distance, database)
