"""Reduced-precision inference scoring (``repro serve --compute ...``).

:class:`~repro.compile.quantize.QuantizedScorer` snapshots a model's
scoring item matrix as float32, float16 or int8 and scores the catalogue
against it; the quantized modes finish with an exact float32 re-rank of
the top candidates, so ranking at the serving cutoffs is unchanged
(``docs/performance.md``, "Quantized inference").
"""

from .quantize import QuantizedScorer

__all__ = ["QuantizedScorer"]
