"""The repo's benchmark: EMBSR and NARM training from ``.rpk``, served over HTTP.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload embsr --seed 1 --seconds 40 --trace 0

Every workload is the user's loop end to end: pack synthetic sessions
into an ``.rpk`` file, fit a model from it with ``Trainer.fit``, save the
model as an artifact, serve it with ``repro serve --artifact`` in a child
process and drive that gateway over HTTP. The two workloads differ only
in the model (see ``perfbench/README.md``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that prints the per-layer metrics and writes a chrome-trace file to
``perfbench/out/``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed
correctness check prints ``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

# Each workload fits its model for TRAIN_SHARE of --seconds (at least
# MIN_FITS fits), then serves it: OPEN_SHARE of the rest open loop, the
# remainder closed loop.
WORKLOADS = {"embsr": "EMBSR", "narm": "NARM"}
TRAIN_SHARE = 0.5
MIN_FITS = 2
OPEN_SHARE = 0.6
SETUPS = 3  # data set-ups per run; setup_s reports their median


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or stop the run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"imported repro from {repro.__file__}, not from {src}")


def _declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, workdir: pathlib.Path):
    import serve_phase
    import train_phase
    from common import Spans, median

    model = WORKLOADS[name]
    spans = Spans() if trace else None
    setups = [train_phase.build(model, seed, workdir, i) for i in range(SETUPS)]
    setup = setups[-1]
    min_fits = MIN_FITS + 1 if trace else MIN_FITS  # traced: untraced, traced, untraced
    fits, problems = train_phase.run(
        setup, model, seconds * TRAIN_SHARE, min_fits, trace, spans, workdir
    )
    values, samples = train_phase.end_to_end(fits)

    artifact = workdir / "model.npz"
    fits[0]["recommender"].save(artifact, metrics={"H@20": fits[0]["hr"], "M@20": fits[0]["mrr"]})
    serve_seconds = seconds * (1.0 - TRAIN_SHARE)
    s_values, s_samples, s_layers, report, boot_s, s_problems, sent = serve_phase.run(
        ROOT, artifact, setup.packed, seed, serve_seconds * OPEN_SHARE,
        serve_seconds * (1.0 - OPEN_SHARE), trace, spans, workdir,
    )
    problems += s_problems
    values.update(s_values)
    samples.update(s_samples)
    values["setup_s"] = median([s.seconds for s in setups]) + boot_s
    samples["setup_s"] = SETUPS

    # Serving layers come from data every run collects; training layers
    # need the traced fits.
    layers = dict(s_layers)
    if trace:
        layers.update(train_phase.per_layer(
            fits, setup, seed, median([s.load_seconds for s in setups]) * 1e3
        ))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        report["trace_file"] = str(spans.write(OUT_DIR / f"trace-{name}-seed{seed}.json"))
    failed = report["phases"]["open"]["failed"] + report["phases"]["closed"]["failed"]
    report["fits"] = [
        {"traced": f["traced"], "seconds": round(f["seconds"], 3), "steps": len(f["steps_ms"])}
        for f in fits
    ]
    return values, samples, layers, report, problems, len(fits) + sent, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    declared = _declared_metrics()
    _import_program()
    # A terminated run still stops its gateway and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        values, samples, layers, report, problems, attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = declared[kind]
    produced = layers if args.trace else values
    if set(produced) != set(units):
        missing, extra = sorted(set(units) - set(produced)), sorted(set(produced) - set(units))
        print(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(json.dumps(report, sort_keys=True))
    for metric, value in values.items():
        print(f"  {metric:34s} {value:14.4f} {declared['end_to_end'][metric]:8s} "
              f"n={samples[metric]}")
    for metric, value in layers.items():
        print(f"  {metric:44s} {value:14.4f} {declared['per_layer'][metric]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": produced[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    sys.exit(main())
