"""Regenerate ``perfbench/digests.json``: the pinned output digests.

Usage, from the repository root::

    python3 perfbench/pin_digests.py FIRST LAST [WORKLOAD...]

For each workload (default: all) and each seed from FIRST to LAST, this
writes the workload's inputs and records the SHA-256 of the inputs and
of the serial Darwin and LASTZ MAF output of each pair (and, for
``serve-mixed``, of the chain job output).  A benchmark run checks its
outputs against these only when its own inputs hash the same.  Re-pin
only for a change that is meant to alter alignments.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import DarwinWGA, LastzAligner  # noqa: E402

from perfbench import inputs, pipelines  # noqa: E402


def pin(workload: str, seed: int, workdir: Path) -> dict:
    files = inputs.write_inputs(workload, seed, workdir)
    outputs = []
    for pair in files:
        targets, queries = pipelines.load(pair)
        loaded = (targets, queries, pipelines.build_indexes(targets))
        found = {}
        for name, aligner in (("darwin", DarwinWGA()), ("lastz", LastzAligner())):
            alignments, _ = pipelines.align_units(aligner, *loaded)
            text = pipelines.maf_text(alignments, targets, queries)
            found[name] = pipelines.digest(text)
            if workload == "serve-mixed" and name == "darwin":
                maf = workdir / "darwin.maf"
                maf.write_text(text)
                found["chain"] = pipelines.digest(
                    pipelines.chain_job_text(maf, targets, queries)
                )
        outputs.append(found)
    return {"inputs": inputs.inputs_digest(files), "outputs": outputs}


def main(first: int, last: int, workloads) -> None:
    path = ROOT / "perfbench" / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    for workload in workloads:
        for seed in range(first, last + 1):
            workdir = Path(tempfile.mkdtemp(dir=scratch))
            try:
                entry = pin(workload, seed, workdir)
            finally:
                shutil.rmtree(workdir)
            table.setdefault(workload, {})[str(seed)] = entry
            print(workload, seed, flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]),
         sys.argv[3:] or inputs.WORKLOADS)
