"""Training phase: ``Trainer.fit`` from a memory-mapped ``.rpk`` file.

The data path is the one ``repro data pack`` + ``repro train --dataset
x.rpk`` runs: synthetic jd-appliances sessions are prepared, packed into
an ``.rpk`` file and loaded back with ``load_packed`` (memmap). The model
is built and fitted through ``ExperimentRunner``, the engine behind
``repro train``, with every execution flag at its default (eager, one
worker, float64, no prefetch).

Steps are timed from the public ``trainer.*`` failpoints. An untraced fit
arms only ``trainer.after_batch``. A traced fit also arms
``trainer.loss`` and ``trainer.after_epoch`` and runs under
``repro.perf.OpProfiler``, switched off around validation so module and
op times are per training step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.autograd import default_dtype
from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.dataset import DataLoader
from repro.data.packed import load_packed, pack_dataset
from repro.eval import ExperimentConfig, ExperimentRunner
from repro.eval.metrics import evaluate_scores
from repro.perf import OpProfiler, active_profiler
from repro.reliability import failpoints

from common import median, pctl

SESSIONS = 6000      # 70/10/20 split: ~4200 train, ~600 validation, ~1200 test
MIN_SUPPORT = 3      # what `repro prepare --config jd-appliances` uses
EPOCHS = 2           # fixed; patience = EPOCHS so early stopping never cuts work
BATCH_SIZE = 64
DIM = 32
MAX_OPS_PER_ITEM = 6  # TrainConfig default, so data.* mirrors the trainer's loader
K = 20

# OpProfiler class name -> per-layer metric; "cum" charges child modules too.
MODULE_METRICS = {
    "core.MicroOpEncoder.fwd_ms": ("MicroOpEncoder", "cum"),
    "nn.GRU.fwd_ms": ("GRU", "self"),
    "core.OperationAwareSelfAttention.fwd_ms": ("OperationAwareSelfAttention", "self"),
    "core.StarMultigraphGNN.fwd_ms": ("StarMultigraphGNN", "self"),
    "nn.LayerNorm.fwd_ms": ("LayerNorm", "self"),
    "nn.Linear.fwd_ms": ("Linear", "self"),
    "nn.Dropout.fwd_ms": ("Dropout", "self"),
    "baselines.NARM.fwd_ms": ("NARM", "self"),
}
# Backward op (closure name in OpProfiler) -> per-layer metric.
BACKWARD_METRICS = {
    f"autograd.bwd.{label}_ms": op
    for label, op in {
        "gru_sequence": "gru_sequence",
        "addmm": "addmm",
        "relation_values": "relation_values",
        "relation_scores": "relation_scores",
        "getitem": "__getitem__",
        "mul": "__mul__",
        "matmul": "matmul",
        "embedding_lookup": "embedding_lookup",
        "log_softmax_nll": "log_softmax_nll",
    }.items()
}

FAILPOINTS = ("trainer.after_batch", "trainer.loss", "trainer.after_epoch")
TRAINER_TRACK = (10, "trainer")


@dataclass
class Setup:
    packed: object
    runner: ExperimentRunner
    seconds: float
    load_seconds: float


def build(model: str, seed: int, workdir, index: int) -> Setup:
    """Generate, prepare, pack, load and build: the timed set-up."""
    started = time.perf_counter()
    cfg = jd_appliances_config()
    sessions = generate_dataset(cfg, SESSIONS, seed=seed)
    dataset = prepare_dataset(
        sessions, cfg.operations, name="jd-appliances", min_support=MIN_SUPPORT, seed=seed
    )
    path = pack_dataset(dataset).save(workdir / f"data-{index}.rpk")
    load_started = time.perf_counter()
    packed = load_packed(path)
    load_seconds = time.perf_counter() - load_started
    runner = ExperimentRunner(
        packed,
        ExperimentConfig(dim=DIM, epochs=EPOCHS, batch_size=BATCH_SIZE, patience=EPOCHS, seed=seed),
    )
    recommender = runner.build(model)
    with default_dtype(recommender.train_config.dtype):
        recommender.build_model()
    return Setup(packed, runner, time.perf_counter() - started, load_seconds)


class _FitRecorder:
    """Failpoint actions that timestamp one fit (and drive the profiler)."""

    def __init__(self, batches_per_epoch: int, profiler: OpProfiler | None):
        self.events: list[tuple] = []
        self.bad_losses = 0
        self.batches_per_epoch = batches_per_epoch
        self.profiler = profiler

    def after_batch(self, payload) -> None:
        self.events.append(("batch", time.perf_counter(), payload["epoch"], payload["batch"]))
        if self.profiler is not None and payload["batch"] == self.batches_per_epoch - 1:
            self.profiler.disable()  # validation follows; keep it out of per-step times

    def loss(self, loss) -> None:
        self.events.append(("loss", time.perf_counter()))
        if not math.isfinite(float(loss.item())):
            self.bad_losses += 1

    def after_epoch(self, payload) -> None:
        self.events.append(("epoch", time.perf_counter(), payload["epoch"]))
        if self.profiler is not None and payload["epoch"] < EPOCHS - 1:
            self.profiler.enable()


def _intervals(events):
    """Split a fit's timestamps into steps, fwd/bwd halves and validations.

    A step is the gap between consecutive ``after_batch`` stamps of one
    epoch; the first batch of each epoch has no predecessor there and is
    not counted (its gap would include set-up or validation).
    """
    steps, fwd, bwd, valid = [], [], [], []
    prev_batch = None
    loss_at = None
    for event in events:
        kind, at = event[0], event[1]
        if kind == "loss":
            loss_at = at
        elif kind == "batch":
            if prev_batch is not None and prev_batch[2] == event[2] and prev_batch[3] == event[3] - 1:
                steps.append((prev_batch[1], at, event[2], event[3]))
                if loss_at is not None and prev_batch[1] < loss_at < at:
                    fwd.append(loss_at - prev_batch[1])
                    bwd.append(at - loss_at)
            prev_batch = event
        elif kind == "epoch" and prev_batch is not None:
            valid.append((prev_batch[1], at, event[2]))
    return steps, fwd, bwd, valid


def run(setup: Setup, model: str, seconds: float, min_fits: int, trace: bool, spans, workdir):
    """Fit repeatedly for ``seconds`` (at least ``min_fits`` fits).

    With ``trace`` every second fit is traced; the untraced fits around
    them give the same run's reference step time, so the tracing
    overhead is measured rather than assumed.
    """
    packed, runner = setup.packed, setup.runner
    n_train = len(packed.train)
    batches_per_epoch = math.ceil(n_train / BATCH_SIZE)
    fits = []
    problems = []
    deadline = time.perf_counter() + seconds
    while len(fits) < min_fits or time.perf_counter() < deadline:
        traced = trace and len(fits) % 2 == 1
        profiler_origin = time.perf_counter()
        profiler = OpProfiler() if traced else None
        recorder = _FitRecorder(batches_per_epoch, profiler)
        failpoints.arm("trainer.after_batch", recorder.after_batch)
        if traced:
            failpoints.arm("trainer.loss", recorder.loss)
            failpoints.arm("trainer.after_epoch", recorder.after_epoch)
        try:
            recommender = runner.build(model)
            started = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            recommender.fit(packed)
            fit_seconds = time.perf_counter() - started
        finally:
            if profiler is not None and active_profiler() is profiler:
                profiler.disable()
            for name in FAILPOINTS:
                failpoints.disarm(name)
        scores, targets = runner.score_on_test(recommender)
        quality = evaluate_scores(scores, targets, ks=(K,))
        losses = [h.train_loss for h in recommender.trainer.history]
        if recorder.bad_losses or not all(math.isfinite(x) for x in losses):
            problems.append(f"fit {len(fits)}: non-finite training loss")
        steps, fwd, bwd, valid = _intervals(recorder.events)
        if spans is not None:
            fit_id = spans.add("fit", TRAINER_TRACK, started, started + fit_seconds,
                               model=model, traced=traced, fit=len(fits))
            for start, end, epoch, batch in steps:
                spans.add("step", TRAINER_TRACK, start, end, fit_id,
                          step=epoch * batches_per_epoch + batch)
            for start, end, epoch in valid:
                spans.add("validation", TRAINER_TRACK, start, end, fit_id, epoch=epoch)
            if profiler is not None:
                spans.merge_profile(profiler, profiler_origin, fit_id, workdir)
        fits.append({
            "traced": traced,
            "seconds": fit_seconds,
            "samples_per_s": EPOCHS * n_train / fit_seconds,
            "steps_ms": [(end - start) * 1e3 for start, end, _, _ in steps],
            "fwd_ms": [x * 1e3 for x in fwd],
            "bwd_ms": [x * 1e3 for x in bwd],
            "valid_ms": [(end - start) * 1e3 for start, end, _ in valid],
            "hr": quality[f"H@{K}"],
            "mrr": quality[f"M@{K}"],
            "recommender": None if fits else recommender,  # the first fit is served
            "profile": profiler.to_dict() if profiler is not None else None,
            "profiled_steps": EPOCHS * batches_per_epoch,
        })

    first = fits[0]
    for index, fit in enumerate(fits[1:], start=1):
        if (fit["hr"], fit["mrr"]) != (first["hr"], first["mrr"]):
            problems.append(
                f"fit {index} test quality {fit['hr']!r}/{fit['mrr']!r} differs from "
                f"fit 0 {first['hr']!r}/{first['mrr']!r} on identical inputs"
            )
    return fits, problems


def end_to_end(fits) -> tuple[dict, dict]:
    """End-to-end training metrics from the untraced fits."""
    plain = [f for f in fits if not f["traced"]]
    steps = [x for f in plain for x in f["steps_ms"]]
    values = {
        "train_samples_per_s": median([f["samples_per_s"] for f in plain]),
        "train_step_p50_ms": median(steps),
        "train_step_p90_ms": pctl(steps, 90),
        "test_hr20": fits[0]["hr"],
        "test_mrr20": fits[0]["mrr"],
    }
    samples = {
        "train_samples_per_s": len(plain),
        "train_step_p50_ms": len(steps),
        "train_step_p90_ms": len(steps),
        "test_hr20": len(fits),
        "test_mrr20": len(fits),
    }
    return values, samples


def per_layer(fits, setup: Setup, seed: int, load_ms: float) -> dict:
    """Per-layer training metrics from the traced fits plus data probes."""
    traced = [f for f in fits if f["traced"]]
    plain = [f for f in fits if not f["traced"]]
    out = {"data.load_rpk_ms": load_ms}
    out.update(_data_layer(setup, seed))
    fwd = median([x for f in traced for x in f["fwd_ms"]])
    bwd = median([x for f in traced for x in f["bwd_ms"]])
    # The first fit of a process runs cold (allocator, BLAS threads), so
    # the untraced reference is the later untraced fits when there are any.
    reference = plain[1:] or plain
    untraced_step = median([x for f in reference for x in f["steps_ms"]])
    out["trainer.fwd_ms"] = fwd
    out["trainer.bwd_opt_ms"] = bwd
    out["trainer.valid_ms"] = median([x for f in traced for x in f["valid_ms"]])
    # What tracing adds: traced fits against the same run's untraced fits.
    out["trace.overhead.train_step_ms"] = fwd + bwd - untraced_step
    out["trace.overhead.train_samples_per_s"] = (
        median([f["samples_per_s"] for f in traced]) - median([f["samples_per_s"] for f in reference])
    )

    steps = sum(f["profiled_steps"] for f in traced)
    modules: dict[str, list[float]] = {}
    backward: dict[str, float] = {}
    nodes = 0
    for f in traced:
        snapshot = f["profile"]
        nodes += snapshot["backward_nodes"]
        for name, stats in snapshot["modules"].items():
            acc = modules.setdefault(name, [0.0, 0.0])
            acc[0] += stats["cum_seconds"]
            acc[1] += stats["self_seconds"]
        for name, stats in snapshot["backward_ops"].items():
            backward[name] = backward.get(name, 0.0) + stats["seconds"]
    for metric, (cls, kind) in MODULE_METRICS.items():
        cum, self_time = modules.get(cls, (0.0, 0.0))
        out[metric] = (cum if kind == "cum" else self_time) / steps * 1e3
    for metric, op in BACKWARD_METRICS.items():
        out[metric] = backward.get(op, 0.0) / steps * 1e3
    out["autograd.bwd_total_ms"] = sum(backward.values()) / steps * 1e3
    out["autograd.bwd_nodes"] = nodes / steps
    out["nn.optim_ms"] = bwd - out["autograd.bwd_total_ms"]
    return out


def _data_layer(setup: Setup, seed: int) -> dict:
    """``DataLoader`` cost per batch and the batches' padding/repeat shares.

    The loader arguments are the trainer's (shuffle by ``(seed, epoch)``,
    reused buffers, ``max_ops_per_item``), so these are the batches the
    fits trained on.
    """
    split = setup.packed.train
    loader = DataLoader(
        split, batch_size=BATCH_SIZE, shuffle=True, seed=seed,
        max_ops_per_item=MAX_OPS_PER_ITEM, reuse_buffers=True,
    )
    batch_ms = []
    rows = real_rows = distinct_rows = op_slots = real_op_slots = 0
    for epoch in range(EPOCHS):
        loader.set_epoch(epoch)
        iterator = iter(loader)
        while True:
            started = time.perf_counter()
            batch = next(iterator, None)
            if batch is None:
                break
            batch_ms.append((time.perf_counter() - started) * 1e3)
            ops = batch.ops.reshape(-1, batch.ops.shape[-1])
            rows += ops.shape[0]
            real_rows += int(batch.item_mask.sum())
            distinct_rows += len(np.unique(ops, axis=0))
            op_slots += batch.op_mask.size
            real_op_slots += int(batch.op_mask.sum())
    return {
        "data.batch_ms": median(batch_ms),
        "data.op_rows_real_frac": real_rows / rows,
        "data.op_rows_distinct_frac": distinct_rows / rows,
        "data.op_steps_real_frac": real_op_slots / op_slots,
        "data.macro_len_mean": split.num_macro_steps / len(split),
    }
