"""Sequential micro-operation encoding (paper Eqs. 3-4).

For each macro item ``v^i`` the micro-operation sequence
``o^i = (o^i_1, ..., o^i_k)`` is run through a GRU; the final hidden state
``h~^i`` summarizes the user's fine-grained engagement with that item and is
later attached to the multigraph edges (Eq. 5).

``h~^i`` depends only on the masked sequence, and a batch repeats the same
few sequences over and over (and pads most macro slots), so the GRU runs
once per *distinct* ``(ids, mask)`` row of the batch and the results are
gathered back to the ``[B, n]`` slots.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..compile.tape import content_dim, host_array
from ..nn import GRU, Embedding, Module
from ..perf import fused

__all__ = ["MicroOpEncoder"]

# Row counts the GRU runs at: distinct rows are padded with all-padding
# rows up to the next rung (capped at B*n), so a compiled step keys on a
# handful of rungs rather than on every distinct count.
_ROW_LADDER = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

_INT64_MAX = int(np.iinfo(np.int64).max)


def _row_keys(codes: np.ndarray) -> np.ndarray:
    """One int64 per row of a non-negative int64 [R, k] array; equal iff the rows are.

    A mixed-radix number when ``base ** k`` fits in int64; otherwise the
    two column halves are keyed separately, densely ranked and combined.
    """
    k = codes.shape[1]
    base = int(codes.max()) + 1
    if base**k <= _INT64_MAX:
        return codes @ (base ** np.arange(k - 1, -1, -1, dtype=np.int64))
    half = k // 2
    left = np.unique(_row_keys(codes[:, :half]), return_inverse=True)[1]
    right = np.unique(_row_keys(codes[:, half:]), return_inverse=True)[1]
    return left * (int(right.max()) + 1) + right


def _sequence_keys(ops: np.ndarray, op_mask: np.ndarray) -> np.ndarray:
    """Key each [k] row of [B, n, k] by its ids *and* its {0, 1} mask."""
    k = ops.shape[2]
    codes = ops.reshape(-1, k).astype(np.int64) * 2 + (op_mask.reshape(-1, k) != 0)
    return _row_keys(codes)


def _ladder_rows(distinct: int, slots: int) -> int:
    """The ladder rung ``distinct`` rows are padded to, capped at ``slots`` (B*n)."""
    return min(next((r for r in _ROW_LADDER if r >= distinct), slots), slots)


def _padded_row_count(ops: np.ndarray, op_mask: np.ndarray) -> int:
    """How many rows the GRU runs at for this batch (the compile key's dim)."""
    B, n, _ = ops.shape
    return _ladder_rows(len(np.unique(_sequence_keys(ops, op_mask))), B * n)


def _distinct_rows(
    ops: np.ndarray, op_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of [B, n, k] ``(ops, op_mask)``, padded up the ladder.

    Returns ``(row_ops [rows, k], row_mask [rows, k], slot_row [B, n])``
    with ``rows == _padded_row_count(ops, op_mask)``; ``slot_row`` indexes
    each macro slot's sequence. Padding rows are all zero: fully masked,
    so their final GRU state is ``h0 = 0``.
    """
    B, n, k = ops.shape
    _, first, inverse = np.unique(
        _sequence_keys(ops, op_mask), return_index=True, return_inverse=True
    )
    rows = _ladder_rows(len(first), B * n)
    row_ops = np.zeros((rows, k), dtype=np.int64)
    row_mask = np.zeros((rows, k), dtype=op_mask.dtype)
    row_ops[: len(first)] = ops.reshape(-1, k)[first]
    row_mask[: len(first)] = op_mask.reshape(-1, k)[first]
    return row_ops, row_mask, inverse.reshape(B, n)


class MicroOpEncoder(Module):
    """GRU over each macro step's operation sequence.

    Shares the operation embedding matrix ``M^O`` with the attention layer
    (passed in, not owned).
    """

    def __init__(self, dim: int, *, rng: np.random.Generator):
        super().__init__()
        self.gru = GRU(dim, dim, rng=rng)
        self.dim = dim

    def forward(self, op_embedding: Embedding, ops: np.ndarray, op_mask: np.ndarray) -> Tensor:
        """Encode operations.

        Parameters
        ----------
        op_embedding:
            The shared ``M^O`` table (shifted ids; row 0 = padding).
        ops:
            [B, n, k] shifted operation ids.
        op_mask:
            [B, n, k] {0, 1} validity mask.

        Returns
        -------
        Tensor
            ``h~`` of shape [B, n, dim] — one sequential encoding per macro
            step (zero vectors at padded macro positions, which share the
            fully masked sequence).
        """
        content_dim(_padded_row_count, ops, op_mask)
        row_ops, row_mask, slot_row = host_array(lambda: _distinct_rows(ops, op_mask))
        _, final = self.gru(op_embedding(row_ops), mask=row_mask)  # [rows, d]
        return fused.embedding_lookup(final, slot_row)
