"""Length bucketing: padded-dim quantization.

``bucket_lengths=True`` rounds each collated batch's padded dims up the
``_BUCKET_LADDER``, so batches take a handful of repeating padded shapes
instead of one per ragged batch. Padding is math-bearing (dropout masks
take the padded shape), so the flag is resume-critical — but it must
never touch *which* examples land in which batch.
"""

import numpy as np
import pytest

from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.dataset import (
    _BUCKET_LADDER,
    DataLoader,
    bucketed_dims,
    padded_dims,
    quantize_length,
)


@pytest.fixture(scope="module")
def dataset():
    cfg = jd_appliances_config()
    return prepare_dataset(
        generate_dataset(cfg, 200, seed=13), cfg.operations, min_support=2, name="jd"
    )


class TestQuantizeLength:
    def test_ladder_rungs_are_fixed_points(self):
        for rung in _BUCKET_LADDER:
            assert quantize_length(rung) == rung

    def test_rounds_up_to_next_rung(self):
        assert quantize_length(3) == 4
        assert quantize_length(5) == 6
        assert quantize_length(9) == 12
        assert quantize_length(17) == 24
        assert quantize_length(33) == 48
        assert quantize_length(49) == 64

    def test_beyond_ladder_rounds_to_top_multiples(self):
        top = _BUCKET_LADDER[-1]
        assert quantize_length(top + 1) == 2 * top
        assert quantize_length(2 * top) == 2 * top
        assert quantize_length(2 * top + 1) == 3 * top

    def test_non_positive_passthrough(self):
        assert quantize_length(0) == 0
        assert quantize_length(-2) == -2

    def test_never_shrinks(self):
        for value in range(1, 300):
            assert quantize_length(value) >= value

    def test_bucketed_dims_elementwise(self):
        assert bucketed_dims((3, 5, 70)) == (
            quantize_length(3),
            quantize_length(5),
            quantize_length(70),
        )


class TestLoaderBucketing:
    def test_permutation_untouched(self, dataset):
        plain = DataLoader(dataset.train, batch_size=32, seed=5)
        bucketed = DataLoader(dataset.train, batch_size=32, seed=5, bucket_lengths=True)
        for epoch in (0, 3):
            assert np.array_equal(plain.permutation(epoch), bucketed.permutation(epoch))

    def test_batches_carry_quantized_dims(self, dataset):
        loader = DataLoader(dataset.train, batch_size=32, bucket_lengths=True)
        for batch in loader:
            n = batch.items.shape[1]
            assert quantize_length(n) == n, f"unquantized item axis {n}"

    def test_bucketing_reduces_distinct_shapes(self, dataset):
        plain = {b.items.shape[1:] for b in DataLoader(dataset.train, batch_size=32)}
        bucketed = {
            b.items.shape[1:]
            for b in DataLoader(dataset.train, batch_size=32, bucket_lengths=True)
        }
        assert len(bucketed) <= len(plain)

    def test_padded_dims_for_matches_collate(self, dataset):
        loader = DataLoader(dataset.train, batch_size=32, bucket_lengths=True)
        chunk = dataset.train[:17]
        n, k, _ = loader.padded_dims_for(chunk)
        raw = padded_dims(chunk, loader.max_ops_per_item)
        assert (n, k) >= raw[:2]
        assert bucketed_dims(raw) == loader.padded_dims_for(chunk)

    def test_padding_columns_are_inert(self, dataset):
        """Extra padded columns are all-zero: masks hide them from the math."""
        plain = list(DataLoader(dataset.train, batch_size=32, seed=5))
        bucketed = list(
            DataLoader(dataset.train, batch_size=32, seed=5, bucket_lengths=True)
        )
        assert len(plain) == len(bucketed)
        for a, b in zip(plain, bucketed):
            n = a.items.shape[1]
            assert np.array_equal(b.items[:, :n], a.items)
            assert not b.items[:, n:].any()
            assert not b.item_mask[:, n:].any()
            assert np.array_equal(b.targets, a.targets)
