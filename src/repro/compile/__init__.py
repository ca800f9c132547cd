"""Trace-and-replay compilation of the training step (``docs/performance.md``).

``repro.perf`` made the big ops cheap, but every eager step still rebuilds
the Python autograd graph node by node — at the paper's batch sizes that
graph construction is the dominant fixed cost. Since the step graph is
identical across batches at a fixed padded shape, :class:`CompileEngine`
records one step's op schedule on a :class:`~repro.compile.tape.Tape` and
replays it as a flat loop over preallocated buffers: zero per-step graph
construction, zero per-step Python closure allocation after warm-up.

The contract is *bit-identical training*: a compiled run produces exactly
the parameters an eager run produces (the first two steps per shape key run
eagerly — once to trace, once to cross-validate the replay bitwise — and
any surprise falls back to eager permanently for that key).

``repro.compile.quantize`` holds the reduced-precision inference side:
float16 / int8 storage-quantized scoring with exact float32 re-rank,
selected via ``repro serve --compute``.
"""

from .quantize import QuantizedScorer
from .step import CompileEngine, CompileStats
from .tape import (
    Tape,
    TapeShapeMiss,
    content_dim,
    host_array,
    leaf,
    recording,
    session_graph,
    static_array,
    static_leaf,
)

__all__ = [
    "CompileEngine",
    "CompileStats",
    "QuantizedScorer",
    "Tape",
    "TapeShapeMiss",
    "content_dim",
    "host_array",
    "leaf",
    "recording",
    "session_graph",
    "static_array",
    "static_leaf",
]
