"""The tape: a passive recording of one training step's op schedule.

While a :class:`Tape` is installed (see :func:`recording`), the autograd
ops in ``repro.autograd.tensor`` and the fused kernels in ``repro.perf``
run exactly as they do eagerly — the step being traced is a *real* step —
but additionally append a replay closure per graph node. Replaying the
slots in order recomputes the step's forward pass in place:

* non-view ops write into the ``out.data`` array captured at trace time
  (``out=`` ufunc forms), so every alias the backward closures captured
  stays valid;
* view ops (reshape/transpose/...) rebind ``out.data`` to a fresh view —
  their backwards only read ``out.grad``, never ``out.data``;
* *host slots* (interleaved via :func:`host_array` / :func:`leaf` /
  :func:`session_graph`) refresh the raw-NumPy inputs the graph reads —
  batch-derived index arrays, dropout masks, session graphs — by
  re-running their builder and copying the result into the traced buffer.

Some shapes depend on batch *content*, not just its padded dims: the
session graph's distinct-node count, the op encoder's distinct-row count.
:func:`content_dim` declares such a dim; the tape keeps a key function
that re-derives it from the engine's next input batch (through the
``source`` each batch buffer was registered with), so the engine keys
tapes on it and never replays one against a batch of another shape.

Replay is only sound if every batch-dependent array the step reads is
refreshed each replay. :meth:`Tape.finalize` enforces that structurally:
each non-output tensor created during the trace, and each raw array
operand an op captured (gather indices, masks, relation ids), must either
be a scalar or share memory with a *registered* buffer (the staged batch,
a session graph, or a helper-managed buffer). Anything else means some
model wired un-refreshed batch data into the graph — the tape rejects
itself and the engine stays eager for that shape key. Unported models are
therefore automatically safe: they fail the audit instead of replaying
stale data.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable

import numpy as np

from ..autograd import tensor as _tensor
from ..autograd.tensor import Tensor

__all__ = [
    "Tape",
    "TapeShapeMiss",
    "recording",
    "host_array",
    "leaf",
    "static_array",
    "static_leaf",
    "content_dim",
    "session_graph",
]


class TapeShapeMiss(RuntimeError):
    """A replay found content-driven shapes differing from the trace."""


def _op_name(backward: Callable) -> str:
    """Op label from a backward closure, matching the profiler's scheme."""
    qualname = getattr(backward, "__qualname__", "op")
    parts = qualname.split(".")
    return parts[-3] if len(parts) >= 3 else qualname


class Tape:
    """One step's op schedule: forward replay slots + audit bookkeeping.

    Slots are ``(kind, name, fn)`` with ``kind`` in ``{"op", "host"}``;
    executing every ``fn`` in order reproduces the traced forward pass
    against whatever content the registered buffers currently hold.
    """

    def __init__(self) -> None:
        self.slots: list[tuple[str, str, Callable[[], None]]] = []
        self.node_count = 0          # graph nodes created during the trace
        self.recorded = 0            # nodes that supplied a replay closure
        # (key_fn, traced value) per content-driven dim; see content_dim
        self.content_dims: list[tuple[Callable[[Any, dict], int], int]] = []
        # The memo the engine's key functions filled for the step being
        # replayed (empty otherwise): host slots may reuse its entries.
        self.memo: dict = {}
        self._created: list[Tensor] = []
        self._op_ids: set[int] = set()
        self._registered: list[np.ndarray] = []
        self._sources: dict[int, Callable[[Any, dict], np.ndarray]] = {}
        self._operands: list[np.ndarray] = []
        self._reject: str | None = None

    # -- hooks called from repro.autograd.tensor -----------------------
    def _on_tensor(self, t: Tensor) -> None:
        self._created.append(t)

    def _on_node(self, out: Tensor) -> None:
        self.node_count += 1
        self._op_ids.add(id(out))

    def _record(self, out: Tensor, replay: Callable[[], None], operands=()) -> None:
        """Attach the replay closure for the op that produced ``out``."""
        self.recorded += 1
        self.slots.append(("op", _op_name(out._backward), replay))
        for operand in operands:
            self._collect_operand(operand)

    def _record_const(
        self, out: Tensor, name: str, replay: Callable[[], None], operands=()
    ) -> None:
        """Attach a replay closure for a grad-free derived tensor.

        Ops short-circuit to a plain leaf when their input carries no
        gradient (e.g. slicing the zeros ``htilde`` in the no-op-GRU
        variants). The value still depends on traced state, so it gets a
        refresh slot and an audit exemption — but it is not a graph node,
        so the recorded/node_count balance is untouched.
        """
        self._op_ids.add(id(out))
        self.slots.append(("op", name, replay))
        for operand in operands:
            self._collect_operand(operand)

    def _collect_operand(self, operand) -> None:
        # ints, slices, and None index static positions; only arrays can
        # carry batch-dependent content that must survive the audit.
        if isinstance(operand, np.ndarray):
            self._operands.append(operand)
        elif isinstance(operand, (tuple, list)):
            for item in operand:
                self._collect_operand(item)

    # -- helper-side API ------------------------------------------------
    def add_host(self, name: str, fn: Callable[[], None]) -> None:
        """Append a host slot that refreshes non-graph state each replay."""
        self.slots.append(("host", name, fn))

    def register(self, array, source: Callable[[Any, dict], np.ndarray] | None = None) -> None:
        """Declare an array as refreshed-per-replay (or truly static).

        ``source(batch, memo)`` returns the content the array will hold
        when the step is replayed on the input ``batch`` — the staged
        batch fields and augmented views supply one, so content dims
        computed from them can be keyed. ``memo`` is a per-step cache for
        sources that share an expensive build; the replay that follows
        sees it as :attr:`memo`, so its host slots need not build again.
        """
        if isinstance(array, np.ndarray):
            self._registered.append(array)
            if source is not None:
                self._sources[id(array)] = source

    def add_content_dim(self, fn: Callable[..., int], arrays, value: int) -> None:
        """Key the tape on ``fn(*arrays)``, re-derived per input batch."""
        try:
            sources = [self._sources[id(a)] for a in arrays]
        except KeyError:
            self.reject("a content-driven dim reads an array with no registered source")
            return

        def key(batch, memo: dict) -> int:
            return int(fn(*(source(batch, memo) for source in sources)))

        self.content_dims.append((key, value))

    def reject(self, reason: str) -> None:
        if self._reject is None:
            self._reject = reason

    # -- audit ----------------------------------------------------------
    def _is_backed(self, array: np.ndarray) -> bool:
        for buf in self._registered:
            if np.may_share_memory(array, buf):
                try:
                    if np.shares_memory(array, buf):
                        return True
                except Exception:  # exact overlap check too hard: bounds say maybe
                    return True
        return False

    def finalize(self) -> str | None:
        """Audit the trace; returns a rejection reason or None when replayable."""
        if self._reject is not None:
            return self._reject
        if self.recorded != self.node_count:
            return (
                f"{self.node_count - self.recorded} graph node(s) have no "
                "replay closure"
            )
        for t in self._created:
            if id(t) in self._op_ids:
                continue  # op output: its replay closure refreshes it
            if t.data.size <= 1:
                continue  # scalar constants (scale factors etc.)
            if not self._is_backed(t.data):
                return (
                    f"leaf tensor of shape {t.data.shape} is not backed by a "
                    "registered buffer (wrap it with repro.compile.leaf)"
                )
        for arr in self._operands:
            if arr.size <= 1:
                continue
            if not self._is_backed(arr):
                return (
                    f"raw operand of shape {arr.shape} is not backed by a "
                    "registered buffer (route it through repro.compile.host_array)"
                )
        return None


@contextlib.contextmanager
def recording(tape: Tape):
    """Install ``tape`` as the active recorder for the enclosed step."""
    if _tensor._TAPE is not None:
        raise RuntimeError("a tape is already recording in this process")
    _tensor._set_tape(tape)
    try:
        yield tape
    finally:
        _tensor._set_tape(None)


# ----------------------------------------------------------------------
# Wrap helpers used at the model side
# ----------------------------------------------------------------------
#
# Eager (no tape): each helper is a zero-cost pass-through. Under a tape it
# allocates a persistent buffer, registers it, and appends a host slot that
# re-runs the builder into that buffer on every replay. ``fn`` must be a
# pure function of the batch content (and RNG streams it reads at call
# time), since replays call it against refreshed batch buffers.


def host_array(fn: Callable[[], Any]) -> Any:
    """A raw batch-derived array, refreshed in place on every replay.

    ``fn`` may also return a tuple of arrays built together; the helper
    then returns the tuple. A rebuild whose shapes differ from the traced
    ones raises :class:`TapeShapeMiss` (the engine keys content-driven
    shapes with :func:`content_dim`, so this is a defensive backstop).
    """
    tape = _tensor._TAPE
    if tape is None:
        return fn()
    built = fn()
    single = not isinstance(built, tuple)
    bufs = tuple(np.asarray(a) for a in ((built,) if single else built))
    for buf in bufs:
        tape.register(buf)

    def slot() -> None:
        fresh = fn()
        for buf, new in zip(bufs, (fresh,) if single else fresh):
            if buf.shape != np.shape(new):
                raise TapeShapeMiss(
                    f"host array changed shape from {buf.shape} to {np.shape(new)} "
                    "under one tape key"
                )
            np.copyto(buf, new, casting="unsafe")

    tape.add_host("host_array", slot)
    return bufs[0] if single else bufs


def leaf(fn: Callable[[], np.ndarray]) -> Tensor:
    """A batch-derived constant Tensor, refreshed in place on every replay.

    The host computation keeps its natural dtype; the cast to the ambient
    tensor dtype happens only at the Tensor boundary (``copyto`` performs
    the same rounding ``Tensor(...)`` does), so float32 runs stay bitwise
    equal to their eager counterparts.
    """
    tape = _tensor._TAPE
    if tape is None:
        return Tensor(fn())
    out = Tensor(np.asarray(fn()))
    buf = out.data
    tape.register(buf)
    tape.add_host("leaf", lambda: np.copyto(buf, fn(), casting="unsafe"))
    return out


def static_array(fn: Callable[[], np.ndarray]) -> np.ndarray:
    """A shape-only array (e.g. ``arange(B)``): computed once, never refreshed."""
    tape = _tensor._TAPE
    arr = np.asarray(fn())
    if tape is not None:
        tape.register(arr)
    return arr


def static_leaf(fn: Callable[[], np.ndarray]) -> Tensor:
    """A shape-only constant Tensor: computed once, never refreshed."""
    tape = _tensor._TAPE
    out = Tensor(fn())
    if tape is not None:
        tape.register(out.data)
    return out


def content_dim(fn: Callable[..., int], *arrays: np.ndarray) -> None:
    """Key the recording tape on ``fn(*arrays)``, a dim taken from batch *content*.

    Call it beside the helper whose arrays take that dim. Eager this does
    nothing. Under a tape it records the traced value and a key function
    that recomputes ``fn`` from the engine's next input batch (each array
    must be a batch buffer registered with a ``source``), so the engine
    replays a tape only on batches that give the same value.
    """
    tape = _tensor._TAPE
    if tape is not None:
        tape.add_content_dim(fn, arrays, int(fn(*arrays)))


def _session_node_count(items: np.ndarray, item_mask: np.ndarray) -> int:
    """The distinct-node count ``c`` that ``BatchGraph.from_batch`` would use.

    Mirrors its per-row scan (break at the first masked position) without
    building any arrays — cheap enough to run per batch as a cache key.
    """
    n = items.shape[1]
    prefix = np.cumprod(item_mask != 0, axis=1).astype(bool)
    same = (items[:, :, None] == items[:, None, :]) & prefix[:, :, None] & prefix[:, None, :]
    is_new = (same.argmax(axis=2) == np.arange(n)) & prefix
    return max(1, int(is_new.sum(axis=1).max()))


def session_graph(batch, collapse: bool = False):
    """Build a :class:`~repro.graphs.batch_graph.BatchGraph` tape-safely.

    Under a tape the graph's arrays are registered, and a host slot
    rebuilds the graph from the (refreshed) batch buffers each replay and
    copies the fresh arrays into the originals. The distinct-node count
    ``c`` is content-driven, so it is a :func:`content_dim` — a
    mismatching rebuild raises :class:`TapeShapeMiss` as a defensive
    backstop.
    """
    from ..graphs.batch_graph import BatchGraph

    tape = _tensor._TAPE
    graph = BatchGraph.from_batch(batch)
    if collapse:
        graph = graph.collapse_parallel_edges()
    if tape is None:
        return graph

    names = (
        "node_items", "node_mask", "alias", "gather",
        "scatter_in", "scatter_out", "micro_gather", "trans_mask",
    )
    for name in names:
        tape.register(getattr(graph, name))
    content_dim(_session_node_count, batch.items, batch.item_mask)

    def slot() -> None:
        fresh = BatchGraph.from_batch(batch)
        if collapse:
            fresh = fresh.collapse_parallel_edges()
        if fresh.node_items.shape != graph.node_items.shape:
            raise TapeShapeMiss(
                f"session graph grew from {graph.node_items.shape} to "
                f"{fresh.node_items.shape} under one tape key"
            )
        for name in names:
            np.copyto(getattr(graph, name), getattr(fresh, name))

    tape.add_host("session_graph", slot)
    return graph
