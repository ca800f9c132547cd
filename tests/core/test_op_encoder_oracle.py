"""MicroOpEncoder against a test-only reference of the undeduplicated encoder.

The encoder runs its GRU once per distinct ``(ids, mask)`` operation row
and gathers the results back to the ``[B, n]`` macro slots.
``reference_encode`` is the plain formulation it replaces: one GRU row per
padded macro slot, with padded slots zeroed by an explicit macro mask.
Forward values and all five parameter gradients (the op embedding and the
GRU's ``w_ih / w_hh / b_ih / b_hh``) must agree to 1e-10 in float64 and
within the fused-kernel suite's tolerance in float32; only the order of
the weight-gradient sums differs. The cases range from heavy repeats
(few distinct rows) to every row distinct (``B*n`` rows).
"""

import numpy as np
import pytest

from repro.autograd import Tensor, default_dtype
from repro.core import MicroOpEncoder
from repro.nn import Embedding

NUM_OPS = 9
TOL = {np.float32: dict(rtol=1e-4, atol=1e-5), np.float64: dict(rtol=0.0, atol=1e-10)}


def reference_encode(encoder, op_embedding, ops, op_mask):
    """One GRU row per padded macro slot, padded slots masked to zero."""
    B, n, k = ops.shape
    embedded = op_embedding(ops.reshape(B * n, k))
    _, final = encoder.gru(embedded, mask=op_mask.reshape(B * n, k))
    htilde = final.reshape(B, n, encoder.dim)
    dtype = htilde.data.dtype
    macro_mask = Tensor((op_mask.sum(axis=2) > 0).astype(dtype)[..., None])
    return htilde * macro_mask


def _prefix_batch(rng, B, n, k, *, vocab=NUM_OPS, ids_under_mask=False, empty_frac=0.3):
    """Collate-style rows: a valid prefix of random length (0 = padded slot).

    A small ``vocab`` makes sequences repeat, so the encoder runs far
    fewer than ``B*n`` distinct rows; a large one makes most rows distinct.
    """
    lengths = rng.integers(1, k + 1, size=(B, n))
    lengths[rng.random((B, n)) < empty_frac] = 0
    mask = (np.arange(k) < lengths[..., None]).astype(np.float64)
    ops = rng.integers(1, vocab + 1, size=(B, n, k))
    if not ids_under_mask:
        ops = ops * mask.astype(np.int64)
    return ops, mask


def _short_batch(rng, B, n, k):
    """Sequences of at most two ops from a two-op vocabulary: heavy repeats."""
    lengths = rng.integers(0, 3, size=(B, n))
    mask = (np.arange(k) < lengths[..., None]).astype(np.float64)
    return rng.integers(1, 3, size=(B, n, k)) * mask.astype(np.int64), mask


def _all_distinct_batch(B, n, k):
    """Every macro slot holds a different full-length sequence."""
    index = np.arange(B * n)
    digits = (index[:, None] // NUM_OPS ** np.arange(k)) % NUM_OPS + 1
    return digits.reshape(B, n, k), np.ones((B, n, k))


def _padding_batch(rng, B, n, k):
    """Fully masked rows, some with zero ids and some with nonzero ids."""
    ops, mask = _prefix_batch(rng, B, n, k, vocab=2, empty_frac=0.0)
    mask[:, ::2] = 0.0
    ops[:, ::4] = 0
    return ops, mask


CASES = {
    "random_16x8x3": lambda rng: _prefix_batch(rng, 16, 8, 3, vocab=3),
    "random_12x6x4": lambda rng: _prefix_batch(rng, 12, 6, 4, vocab=2),
    "random_4x10x5": lambda rng: _prefix_batch(rng, 4, 10, 5),
    "random_3x4x6": lambda rng: _prefix_batch(rng, 3, 4, 6),
    "ids_under_zero_mask": lambda rng: _prefix_batch(rng, 16, 6, 4, vocab=2, ids_under_mask=True),
    "all_padding_rows": lambda rng: _padding_batch(rng, 16, 6, 3),
    "batch_of_one": lambda rng: _prefix_batch(rng, 1, 6, 4),
    "single_op": lambda rng: _prefix_batch(rng, 6, 5, 1),
    "every_row_distinct": lambda rng: _all_distinct_batch(4, 5, 3),
    "heavy_repeats": lambda rng: _short_batch(rng, 16, 8, 4),
    "key_wider_than_int64": lambda rng: _short_batch(rng, 8, 6, 40),
}


def _grads(params):
    return [np.array(p.grad, copy=True) for p in params]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_reference(case, dtype):
    rng = np.random.default_rng(sorted(CASES).index(case))
    ops, mask = CASES[case](rng)
    with default_dtype(dtype):
        embedding = Embedding(NUM_OPS + 1, 6, rng=rng, padding_idx=0)
        encoder = MicroOpEncoder(6, rng=rng)
        upstream = rng.normal(size=ops.shape[:2] + (6,)).astype(dtype)
        cell = encoder.gru.cell
        params = [embedding.weight, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh]

        out = encoder(embedding, ops, mask)
        (out * Tensor(upstream)).sum().backward()
        grads = _grads(params)
        for p in params:
            p.zero_grad()
        ref = reference_encode(encoder, embedding, ops, mask)
        (ref * Tensor(upstream)).sum().backward()

    assert out.data.dtype == ref.data.dtype == dtype
    np.testing.assert_allclose(out.data, ref.data, **TOL[dtype])
    for name, grad, p in zip(("op_embedding", "w_ih", "w_hh", "b_ih", "b_hh"), grads, params):
        np.testing.assert_allclose(grad, p.grad, err_msg=name, **TOL[dtype])
