"""Segment-sums: the one primitive that adds up gradient rows by id.

A training step produces many gradient rows per embedding id (an entity
that appears in several triples and negatives, a token shared by many
entities).  :class:`RowGroups` sorts the ids once and sums the rows of each
id through a 0/1 CSR selection matrix, so every table is merged by one
sparse-dense product in the rows' own dtype.
"""
from __future__ import annotations

import numpy as np


class RowGroups:
    """Positions of a flat id array grouped by id.

    ``ids`` are the sorted distinct ids and ``inverse[i]`` is the index of
    position i's id in ``ids``.  ``sum(rows)`` adds up, for each distinct
    id, the rows at the positions holding it, in position order.
    """

    def __init__(self, ids: np.ndarray):
        ids = np.asarray(ids).reshape(-1)
        order = np.argsort(ids, kind="stable")
        ordered = ids[order]
        first = np.ones(len(ids), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        self.ids = ordered[first]
        self.inverse = np.empty(len(ids), dtype=np.intp)
        self.inverse[order] = np.cumsum(first) - 1
        self._order = order
        self._indptr = np.append(np.flatnonzero(first), len(ids))
        self._select = None

    def sum(self, rows: np.ndarray) -> np.ndarray:
        """[len(ids), w] sums of the [n, w] ``rows``, in ``rows.dtype``."""
        # imported on first use: ingest, tokenize and eval never sum rows,
        # and importing scipy.sparse adds about 1.8 MB of resident memory
        from scipy.sparse import csr_matrix

        rows = np.ascontiguousarray(rows)
        if self._select is None or self._select.dtype != rows.dtype:
            self._select = csr_matrix(
                (np.ones(len(self._order), dtype=rows.dtype), self._order,
                 self._indptr),
                shape=(len(self.ids), len(self._order)),
            )
        return self._select @ rows
