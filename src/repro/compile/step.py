"""Compiled training step: trace once per shape key, then replay flat.

:class:`CompileEngine` owns the lifecycle of one model's tapes:

1. **Trace** — the first batch of a new shape key runs as a normal eager
   step with a :class:`~repro.compile.tape.Tape` recording. The results
   (loss + gradients) are the real step's results, so tracing wastes no
   work; if the audit rejects the trace the key simply stays eager.
2. **Validate** — the second batch of the key runs twice: once through
   the replay, then (after restoring the RNG streams the replay consumed
   and zeroing the gradients it wrote) eagerly. Loss and every parameter
   gradient must match *bitwise*; the eager results are kept either way,
   so the training trajectory is exactly the eager trajectory no matter
   the outcome. A mismatch permanently falls the key back to eager.
3. **Replay** — every later batch of a validated key copies its arrays
   into the staged buffers and runs the flat slot loop: no graph
   construction, no closure allocation. Replays are transactional — any
   exception restores the RNG state, zeroes gradients, reruns the batch
   eagerly, and retires the key.

Shape keys are ``(B, n, k, t, loss divisor, dtype, training)`` plus the
step's content-driven dims (:func:`~repro.compile.tape.content_dim`:
each session graph's distinct-node count ``c``, the op encoder's padded
distinct-row count), learned from the first trace of the base key and
re-derived from every later batch, because array shapes downstream of
them depend on them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..autograd import tensor as _tensor
from ..data.dataset import SessionBatch
from ..parallel.sharding import collect_rng_modules
from .tape import Tape, recording

__all__ = ["CompileEngine", "CompileStats", "StagedBatch"]

_BATCH_FIELDS = (
    "items", "item_mask", "ops", "op_mask",
    "micro_items", "micro_ops", "micro_mask", "last_op", "targets",
)


class StagedBatch:
    """Persistent copies of a batch's arrays that a traced step reads from.

    The copies keep the collate dtypes (int64 ids, float64 masks), so a
    step traced against the staged batch is bitwise the step on the
    original batch at any tensor dtype. ``target_classes`` is materialized
    once (the :class:`SessionBatch` property allocates fresh) and
    refreshed alongside the rest.
    """

    def __init__(self, batch: SessionBatch) -> None:
        self.batch = SessionBatch(
            **{name: np.array(getattr(batch, name)) for name in _BATCH_FIELDS}
        )
        self.target_classes = self.batch.targets - 1

    def copy_from(self, batch: SessionBatch) -> None:
        for name in _BATCH_FIELDS:
            np.copyto(getattr(self.batch, name), getattr(batch, name))
        np.subtract(self.batch.targets, 1, out=self.target_classes)

    def register_into(self, tape: Tape) -> None:
        for name in _BATCH_FIELDS:
            tape.register(
                getattr(self.batch, name),
                source=lambda batch, memo, name=name: getattr(batch, name),
            )
        tape.register(self.target_classes)


class _CompiledStep:
    """One validated (or pending) tape plus its replay state."""

    __slots__ = ("tape", "staged", "loss", "components", "order", "seed", "validated")

    def __init__(self, tape: Tape, staged: StagedBatch, loss, components=None) -> None:
        self.tape = tape
        self.staged = staged
        self.loss = loss
        self.components = dict(components or {})  # name -> live graph Tensor
        self.order = loss._topo_cache  # cached by backward(retain_graph=True)
        self.seed = np.ones_like(loss.data)
        self.validated = False


@dataclass
class CompileStats:
    """Counters for observability and the benchmark/tests."""

    traces: int = 0
    validations: int = 0
    replays: int = 0
    eager_steps: int = 0
    fallbacks: dict = field(default_factory=dict)  # base key -> reason


class CompileEngine:
    """Trace/validate/replay executor for one model's training steps.

    ``step`` is a drop-in for the eager forward/backward pair: gradients
    land on ``p.grad`` and the loss float is returned. The caller remains
    responsible for ``optimizer.zero_grad()`` / clipping / ``step()``,
    exactly as on the eager path.
    """

    def __init__(self, model, max_tapes: int = 8, objective=None) -> None:
        if objective is None:
            from ..objectives import CrossEntropyObjective  # lazy: avoids cycle

            objective = CrossEntropyObjective()
        self.model = model
        self.objective = objective
        self.last_components: dict[str, float] = {}
        self.max_tapes = max_tapes
        self.stats = CompileStats()
        self._tapes: OrderedDict[tuple, _CompiledStep] = OrderedDict()
        self._content_keys: dict[tuple, list] = {}  # base key -> content-dim key fns
        self._fallback: set[tuple] = set()
        self._rng_modules = collect_rng_modules(model)
        self._params = list(model.parameters())

    # -- keys ------------------------------------------------------------
    def _base_key(self, batch: SessionBatch, total: int | None) -> tuple:
        return (
            batch.items.shape[0],
            batch.items.shape[1],
            batch.ops.shape[2],
            batch.micro_items.shape[1],
            total,
            _tensor._DEFAULT_DTYPE.str,
            bool(self.model.training),
        )

    # -- public entry ----------------------------------------------------
    def step(self, batch: SessionBatch, total: int | None = None, ctx=None) -> float:
        """One forward/backward for ``batch``; grads on ``p.grad``.

        ``ctx`` (a :class:`~repro.objectives.StepContext`) is installed on
        the objective *before* dispatch so replay host slots — which
        rebuild objective randomness such as augmented views — read the
        current step's coordinates, not the traced step's.
        """
        self.objective.begin_step(ctx)
        base = self._base_key(batch, total)
        if base in self._fallback:
            self.stats.eager_steps += 1
            return self._eager(batch, total)
        keys = self._content_keys.get(base, ())
        memo: dict = {}
        full = base + tuple(key(batch, memo) for key in keys)
        entry = self._tapes.get(full)
        if entry is None:
            return self._trace(base, batch, total)
        self._tapes.move_to_end(full)
        if not entry.validated:
            return self._validate(base, entry, batch, total, memo)
        return self._replay(base, entry, batch, total, memo)

    # -- phases ----------------------------------------------------------
    def _eager(self, batch: SessionBatch, total: int | None) -> float:
        parts = self.objective.compute(self.model, batch, total=total)
        value = float(parts.loss.item())
        parts.loss.backward()
        self.last_components = parts.component_values()
        return value

    def _trace(self, base: tuple, batch: SessionBatch, total: int | None) -> float:
        staged = StagedBatch(batch)
        tape = Tape()
        staged.register_into(tape)
        # The trace IS a real step: recording is passive, so loss and
        # gradients below are valid even if the audit rejects the tape.
        with recording(tape):
            parts = self.objective.compute(self.model, staged.batch, total=total)
            loss = parts.loss
            value = float(loss.item())
            loss.backward(retain_graph=True)
        self.last_components = parts.component_values()
        reason = tape.finalize()
        if reason is not None:
            self._retire(base, reason)
        else:
            self._content_keys[base] = [key for key, _ in tape.content_dims]
            full = base + tuple(value for _, value in tape.content_dims)
            self._tapes[full] = _CompiledStep(tape, staged, loss, parts.components)
            while len(self._tapes) > self.max_tapes:
                self._tapes.popitem(last=False)
        self.stats.traces += 1
        return value

    def _validate(
        self, base: tuple, entry: _CompiledStep,
        batch: SessionBatch, total: int | None, memo: dict,
    ) -> float:
        """Second hit: replay, then rerun eagerly and require bitwise equality.

        The eager rerun's results are what the caller gets, so a run's
        trajectory is the eager trajectory whether or not the tape passes.
        """
        snapshot = self._rng_snapshot()
        try:
            replay_value = self._run_tape(entry, batch, memo)
            replay_grads = [
                None if p.grad is None else np.array(p.grad) for p in self._params
            ]
        except Exception as exc:  # noqa: BLE001 - any replay fault means eager
            self._restore_rng(snapshot)
            self._zero_grads()
            self._retire(base, f"replay raised during validation: {exc!r}")
            self.stats.eager_steps += 1
            return self._eager(batch, total)
        self._restore_rng(snapshot)
        self._zero_grads()
        value = self._eager(batch, total)
        identical = _bits_equal(np.float64(value), np.float64(replay_value))
        if identical:
            for p, g in zip(self._params, replay_grads):
                if (p.grad is None) != (g is None):
                    identical = False
                    break
                if g is not None and not _bits_equal(p.grad, g):
                    identical = False
                    break
        if identical:
            entry.validated = True
            self.stats.validations += 1
        else:
            self._retire(base, "replay disagreed with the eager step bitwise")
        return value

    def _replay(
        self, base: tuple, entry: _CompiledStep,
        batch: SessionBatch, total: int | None, memo: dict,
    ) -> float:
        snapshot = self._rng_snapshot()
        try:
            value = self._run_tape(entry, batch, memo)
        except Exception as exc:  # noqa: BLE001 - transactional recovery
            self._restore_rng(snapshot)
            self._zero_grads()
            self._retire(base, f"replay raised: {exc!r}")
            self.stats.eager_steps += 1
            return self._eager(batch, total)
        self.last_components = {
            name: float(t.data) for name, t in entry.components.items()
        }
        self.stats.replays += 1
        return value

    # -- replay machinery ------------------------------------------------
    def _run_tape(self, entry: _CompiledStep, batch: SessionBatch, memo: dict) -> float:
        entry.staged.copy_from(batch)
        profiler = _tensor._PROFILER
        entry.tape.memo = memo
        try:
            if profiler is None:
                for _, _, fn in entry.tape.slots:
                    fn()
            else:
                run_slot = profiler._run_replay_slot
                for _, name, fn in entry.tape.slots:
                    run_slot(name, fn)
        finally:
            entry.tape.memo = {}
        value = float(entry.loss.data)
        loss = entry.loss
        loss.grad = entry.seed
        loss._grad_owned = True
        if profiler is None:
            for node in reversed(entry.order):
                if node._backward is not None and node.grad is not None:
                    node._backward()
                    node.grad = None
                    node._grad_owned = False
        else:
            for node in reversed(entry.order):
                if node._backward is not None and node.grad is not None:
                    profiler._run_backward(node._backward)
                    node.grad = None
                    node._grad_owned = False
        return value

    def _rng_snapshot(self):
        return [(m.rng, m.rng.bit_generator.state) for m in self._rng_modules]

    @staticmethod
    def _restore_rng(snapshot) -> None:
        for rng, state in snapshot:
            rng.bit_generator.state = state

    def _zero_grads(self) -> None:
        for p in self._params:
            p.zero_grad()

    def _retire(self, base: tuple, reason: str) -> None:
        """Permanently fall this base key back to eager execution."""
        self._fallback.add(base)
        self.stats.fallbacks[base] = reason
        for key in [k for k in self._tapes if k[: len(base)] == base]:
            del self._tapes[key]


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise array equality (NaNs with equal payloads compare equal)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    flat_a = np.ascontiguousarray(a).reshape(-1).view(np.uint8)
    flat_b = np.ascontiguousarray(b).reshape(-1).view(np.uint8)
    return bool(np.array_equal(flat_a, flat_b))
