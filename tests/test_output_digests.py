"""Pinned output digests of the benchmark documents.

Every document of the four benchmark workloads, at seeds 1 and 7, is built
as ``bench/run.py`` builds it (``random.Random("<workload>:<seed>")``) and
run in process through ``cli.main``, with the follow-ups that an exact
solution seeds, in the order the benchmark adds them.  Each run is hashed
over its arguments (without the input path), payload, exit code, stdout and
stderr, and the digests must equal ``tests/data/workload_digests.json``: one
per document and one over each workload and seed.  ``bench/checks.py``
checks that an output is correct; this checks that it is unchanged, down to
the last digit and the key order.

A change that alters output on purpose regenerates the file and says which
documents changed:

    PYTHONPATH=src python tests/test_output_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
DATA = Path(__file__).resolve().parent / "data" / "workload_digests.json"
WORKLOADS = ("long_prefix", "zero_blocks", "measure", "small_docs")
SEEDS = (1, 7)

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (bench/workloads.py)

from hankelkit import cli  # noqa: E402


def _run(doc, path: Path) -> tuple[int, str, str]:
    """One document through cli.main on the fixed input path: (exit code,
    stdout, sha256 over args, payload, exit code, stdout and stderr)."""
    path.write_text(json.dumps(doc.payload), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(doc.args + [str(path)])
    record = json.dumps(
        [doc.args, doc.payload, code, out.getvalue(), err.getvalue()], sort_keys=True
    )
    return code, out.getvalue(), hashlib.sha256(record.encode()).hexdigest()


def workload_digests(name: str, seed: int, path: Path) -> list[str]:
    """The digest of every document of one workload and seed, follow-ups
    right after the document whose output seeds them."""
    digests = []
    for doc in workloads.WORKLOADS[name](random.Random(f"{name}:{seed}")):
        code, out, digest = _run(doc, path)
        digests.append(digest)
        if doc.followups is not None and code == 0:
            digests += [_run(followup, path)[2] for followup in doc.followups(json.loads(out))]
    return digests


def _combined(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def compute() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        pins = {}
        for name in WORKLOADS:
            for seed in SEEDS:
                digests = workload_digests(name, seed, path)
                pins[f"{name}:{seed}"] = {"all": _combined(digests), "documents": digests}
    return pins


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_match_the_pinned_digests(name, seed, tmp_path):
    pinned = json.loads(DATA.read_text(encoding="utf-8"))[f"{name}:{seed}"]
    digests = workload_digests(name, seed, tmp_path / "doc.json")
    for index, (got, want) in enumerate(zip(digests, pinned["documents"])):
        assert got == want, f"{name} seed {seed}: document {index} differs from its pinned output"
    assert len(digests) == len(pinned["documents"]), f"{name} seed {seed}: document count changed"
    assert _combined(digests) == pinned["all"]


if __name__ == "__main__":
    DATA.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DATA}")
