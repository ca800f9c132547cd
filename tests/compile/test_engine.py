"""CompileEngine lifecycle: trace -> validate -> replay, re-trace, fallback.

Exercises the engine directly (no Trainer) so the per-shape-key state
machine is observable through ``engine.stats``.
"""

import dataclasses

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.compile.step import CompileEngine
from repro.core import EMBSRConfig, build_embsr, build_sgnn_self
from repro.core.op_encoder import _padded_row_count
from repro.data.dataset import DataLoader


def new_model(dataset, seed=0):
    cfg = EMBSRConfig(
        num_items=dataset.num_items, num_ops=dataset.num_operations, dim=12, seed=seed
    )
    return build_sgnn_self(cfg)


def bucketed_batches(dataset, batch_size=32):
    return list(DataLoader(dataset.train, batch_size=batch_size, bucket_lengths=True))


def run_pass(engine, batches):
    losses = []
    for batch in batches:
        # Mirror the Trainer's optimizer.zero_grad() before every step —
        # the engine's grad parity contract assumes fresh accumulators.
        engine._zero_grads()
        losses.append(engine.step(batch))
    return losses


class TestLifecycle:
    def test_third_pass_is_all_replays(self, dataset):
        engine = CompileEngine(new_model(dataset))
        batches = bucketed_batches(dataset)
        run_pass(engine, batches)
        run_pass(engine, batches)
        traces_before = engine.stats.traces
        replays_before = engine.stats.replays
        run_pass(engine, batches)
        # Every shape key has been traced and validated by now: the third
        # pass must hit the replay path only, with no fresh traces.
        assert engine.stats.traces == traces_before
        assert engine.stats.replays == replays_before + len(batches)
        assert not engine.stats.fallbacks

    def test_validation_runs_once_per_key(self, dataset):
        engine = CompileEngine(new_model(dataset))
        batches = bucketed_batches(dataset)
        for _ in range(3):
            run_pass(engine, batches)
        assert engine.stats.validations == engine.stats.traces
        assert engine.stats.eager_steps == 0

    def test_unseen_shape_retraces_without_fallback(self, dataset):
        engine = CompileEngine(new_model(dataset))
        batches = bucketed_batches(dataset, batch_size=32)
        for _ in range(2):
            run_pass(engine, batches)
        traces_before = engine.stats.traces
        # A bucket miss (different batch size => different padded dims) is
        # a new key: it must trace, not fall back to permanent eager mode.
        odd = bucketed_batches(dataset, batch_size=19)[0]
        engine.step(odd)
        assert engine.stats.traces == traces_before + 1
        assert not engine.stats.fallbacks

    def test_new_row_rung_retraces_without_fallback(self, dataset):
        """Same padded dims, fewer distinct op sequences: a new content key.

        The op encoder runs its GRU at the padded distinct-row count, a
        content-driven dim. A batch that lands on another ladder rung must
        trace its own tape (and later replay it), never reuse the old one
        or retire the base key.
        """
        cfg = EMBSRConfig(
            num_items=dataset.num_items, num_ops=dataset.num_operations, dim=12, seed=0
        )
        engine = CompileEngine(build_embsr(cfg))
        batch = bucketed_batches(dataset)[0]
        run_pass(engine, [batch] * 3)
        assert engine.stats.replays == 1
        rung_before = _padded_row_count(batch.ops, batch.op_mask)

        uniform = dataclasses.replace(
            batch,
            ops=(batch.op_mask > 0).astype(batch.ops.dtype),
            micro_ops=(batch.micro_mask > 0).astype(batch.micro_ops.dtype),
            last_op=np.ones_like(batch.last_op),
        )
        rung_after = _padded_row_count(uniform.ops, uniform.op_mask)
        assert rung_after < rung_before
        (full_before,) = engine._tapes
        run_pass(engine, [uniform] * 3)
        assert engine.stats.traces == 2
        assert engine.stats.replays == 2
        assert not engine.stats.fallbacks
        assert engine.stats.eager_steps == 0
        # Same base key and session-graph size; only the row rung differs.
        (full_after,) = [key for key in engine._tapes if key != full_before]
        assert full_before[-1] == rung_before
        assert full_after == full_before[:-1] + (rung_after,)

    def test_losses_match_eager_engine(self, dataset):
        """Every step's loss equals the eager loss on an identical twin."""
        model_a = new_model(dataset, seed=3)
        model_b = new_model(dataset, seed=3)
        for name, value in model_a.state_dict().items():
            assert np.array_equal(value, model_b.state_dict()[name]), name
        engine = CompileEngine(model_a)
        twin = CompileEngine(model_b)
        batches = bucketed_batches(dataset)
        for _ in range(3):
            compiled_losses = []
            eager_losses = []
            for batch in batches:
                engine._zero_grads()
                twin._zero_grads()
                compiled_losses.append(engine.step(batch))
                eager_losses.append(twin._eager(batch, None))
            assert compiled_losses == eager_losses


class TestInteraction:
    def test_no_grad_inference_between_steps(self, dataset):
        """Interleaved eval-mode scoring must not disturb the taped replay."""
        model_a = new_model(dataset, seed=1)
        model_b = new_model(dataset, seed=1)
        engine_a = CompileEngine(model_a)
        engine_b = CompileEngine(model_b)
        batches = bucketed_batches(dataset)
        losses_a, losses_b = [], []
        for _ in range(3):
            for batch in batches:
                engine_a._zero_grads()
                engine_b._zero_grads()
                losses_a.append(engine_a.step(batch))
                # Arm B scores under no_grad between every training step —
                # the tape (which holds a retain_graph backward) must not
                # observe any of it.
                model_b.eval()
                with no_grad():
                    model_b(batch)
                model_b.train()
                losses_b.append(engine_b.step(batch))
        assert losses_a == losses_b
        assert not engine_b.stats.fallbacks
        assert engine_b.stats.traces == engine_a.stats.traces

    def test_repeated_step_same_batch_is_deterministic(self, dataset):
        """retain_graph replay: same params + same batch => same loss.

        Dropout is disabled so the only state between calls is the tape —
        with it on, each step legitimately consumes fresh RNG draws.
        """
        cfg = EMBSRConfig(
            num_items=dataset.num_items,
            num_ops=dataset.num_operations,
            dim=12,
            dropout=0.0,
            seed=2,
        )
        model = build_sgnn_self(cfg)
        engine = CompileEngine(model)
        batch = bucketed_batches(dataset)[0]
        losses = []
        for _ in range(4):
            engine._zero_grads()
            losses.append(engine.step(batch))
        # trace, validate, then replays — all four must agree exactly.
        assert len(set(losses)) == 1
        assert engine.stats.replays >= 2

    def test_training_flag_is_part_of_the_key(self, dataset):
        model = new_model(dataset, seed=4)
        engine = CompileEngine(model)
        batch = bucketed_batches(dataset)[0]
        engine._zero_grads()
        train_loss = engine.step(batch)
        assert engine.stats.traces == 1
        model.eval()
        engine._zero_grads()
        eval_loss = engine.step(batch)
        model.train()
        # eval-mode step (dropout off) is a different program: new key.
        assert engine.stats.traces == 2
        assert eval_loss != train_loss
