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
from ..nn import GRU, Embedding, Module
from ..perf import fused

__all__ = ["MicroOpEncoder"]

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


def _distinct_rows(
    ops: np.ndarray, op_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of [B, n, k] ``(ops, op_mask)``.

    Returns ``(row_ops [U, k], row_mask [U, k], slot_row [B, n])``, where
    ``U`` is the number of distinct rows and ``slot_row`` indexes each
    macro slot's sequence.
    """
    B, n, k = ops.shape
    _, first, inverse = np.unique(
        _sequence_keys(ops, op_mask), return_index=True, return_inverse=True
    )
    return ops.reshape(-1, k)[first], op_mask.reshape(-1, k)[first], inverse.reshape(B, n)


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
        row_ops, row_mask, slot_row = _distinct_rows(ops, op_mask)
        _, final = self.gru(op_embedding(row_ops), mask=row_mask)  # [U, d]
        return fused.embedding_lookup(final, slot_row)
