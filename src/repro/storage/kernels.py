"""Extent and shape arithmetic shared by the flash replay-plan builders.

A flash request's idle-state outcome depends only on its *shape* —
``(op, first_page % total_dies, n_pages, size)`` — so the plan
builders (``FlashSSD.replay_plan``, ``FlashArray.replay_plan``) turn a
whole request stream into page extents with :func:`page_span` and
resolve each distinct shape once with :func:`group_shapes`.  The
per-request ``_pages_of`` walk uses the same :func:`page_span`, so the
plan and the scalar walks can never disagree on extent math.
"""

from __future__ import annotations

import numpy as np

__all__ = ["page_span", "group_shapes"]


def page_span(lbas, sizes, page_sectors: int):
    """``(first_page, n_pages)`` of the page extent touching a sector extent.

    Works elementwise on arrays and on plain ints — the single
    definition shared by the scalar ``_pages_of`` walk, the batch
    pricing loops and the plan builders, so they can never disagree on
    extent math.
    """
    first = lbas // page_sectors
    n_pages = (lbas + sizes - 1) // page_sectors - first + 1
    return first, n_pages


def group_shapes(
    ops: np.ndarray, slots: np.ndarray, n_pages: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group request rows by service shape ``(op, slot, n_pages, size)``.

    Returns ``(uniq, inverse)`` where ``uniq`` is a ``(k, 4)`` int64
    array of the distinct shapes and ``inverse`` maps each input row to
    its shape index — the scatter side of the replay-plan builders.
    Shapes are packed into one int64 key when the value ranges allow
    (the common case — one ``np.unique`` over a flat array), falling
    back to row-wise ``np.unique`` otherwise.
    """
    ops = np.asarray(ops, dtype=np.int64)
    slots = np.asarray(slots, dtype=np.int64)
    n_pages = np.asarray(n_pages, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(ops) == 0:
        return np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.intp)
    m_op = int(ops.max()) + 1
    m_slot = int(slots.max()) + 1
    m_np = int(n_pages.max()) + 1
    m_size = int(sizes.max()) + 1
    if float(m_op) * m_slot * m_np * m_size < 2**62:
        packed = ((ops * m_slot + slots) * m_np + n_pages) * m_size + sizes
        uniq_packed, inverse = np.unique(packed, return_inverse=True)
        rest, u_sizes = np.divmod(uniq_packed, m_size)
        rest, u_np = np.divmod(rest, m_np)
        u_ops, u_slots = np.divmod(rest, m_slot)
        uniq = np.column_stack([u_ops, u_slots, u_np, u_sizes])
        return uniq, inverse
    rows = np.column_stack([ops, slots, n_pages, sizes])
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    return uniq, inverse.reshape(-1)
