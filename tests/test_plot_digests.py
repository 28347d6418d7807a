"""The committed portrait digests of the plot benchmark, checked in Tier-1.

`bench/plot_digests.json` freezes the bytes of the 36 portraits that the
`plot` workload renders for its digest seed; a portrait that differs counts
as a failed benchmark op.  This test renders the first plot cycle of that
seed (pairs 1, 3, 3, 3, 5, 5, in both colourings) through `cli.main`, as the
workload does, and compares each portrait's sha256 with its committed digest,
so a flipped byte fails here first.  It only reads `bench/`.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    """bench/workloads.py as a module, without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_first_plot_cycle_matches_committed_digests(tmp_path, monkeypatch):
    wl = load_workloads()
    # an empty working directory, so no ./ellipse-phase.json supplies flag defaults
    monkeypatch.chdir(tmp_path)
    plot = wl.PlotWorkload(wl.DIGEST_SEED, tmp_path)
    plot.prepare()
    committed = wl.load_digests()
    ops = plot.cycle()
    assert [op.pairs for op in ops] == list(wl.PLOT_PAIRS)
    assert {op.coloring for op in ops} == set(wl.COLORINGS)
    for op in ops:
        code, _, err = wl.run_cli(plot.argv(op))
        assert code == 0, err
        digest = hashlib.sha256(plot.out_path.read_bytes()).hexdigest()
        assert digest == committed[op.index], f"portrait {op.index} ({op.pairs} pairs, {op.coloring})"
