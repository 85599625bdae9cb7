"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from ``--seed`` as FASTA files in a
scratch directory under the checkout (removed afterwards).  With
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are printed,
with ``--trace 1`` the per-layer ones; a layer a workload does not
exercise reports 0.  Every output is checked against the others and
against ``perfbench/digests.json`` when that pins the seed; mismatches
count as failed operations.  The last line is the JSON result.  No
process the run starts, grandchildren included, outlives it
(:mod:`perfbench.procs`).
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pinned_lookup(workload: str, seed: int, inputs_digest: str):
    """``(pair index, output name) -> digest or None`` for this seed.

    Nothing is pinned when the generated inputs differ from the ones
    the digests were pinned for.
    """
    path = ROOT / "perfbench" / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    entry = table.get(workload, {}).get(str(seed))
    if entry is None or entry["inputs"] != inputs_digest:
        return lambda index, name: None
    return lambda index, name: entry["outputs"][index].get(name)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs, procs, serve, wga

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    # A terminated run still stops its daemon and pools (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    procs.adopt_orphans()
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        files = inputs.write_inputs(args.workload, args.seed, workdir)
        pinned = pinned_lookup(
            args.workload, args.seed, inputs.inputs_digest(files)
        )
        if args.workload == "serve-mixed":
            outcome = serve.run(ROOT, workdir, files, args.seconds,
                                bool(args.trace), pinned)
        elif args.trace:
            outcome = wga.traced(args.workload, files, pinned)
        else:
            outcome = wga.end_to_end(files, args.seconds, pinned)
    finally:
        procs.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    names = [metric["name"] for metric in declared]
    if sorted(outcome.metrics) != sorted(names):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(outcome.metrics) ^ set(names))}"
        )
    for note in outcome.notes:
        print(note)
    print(f"attempted {outcome.attempted}, failed {outcome.failed}")
    for metric in declared:
        print(f"{metric['name']:34s} {outcome.metrics[metric['name']]!r:>24} "
              f"{metric['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {
                "value": outcome.metrics[metric["name"]],
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
