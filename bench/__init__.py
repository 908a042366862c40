"""The PAINTER benchmark: four workloads, six end-to-end metrics, per-layer trace.

Everything here measures ``repro`` from the outside, by timing calls into its
public functions; nothing under ``src/`` knows this package exists.  See
``bench/README.md`` for the metric and workload definitions and
``BENCHMARK.json`` for the frozen contract.
"""

from pathlib import Path

#: Repository root (the directory holding ``BENCHMARK.json``, ``bench/``, ``src/``).
REPO = Path(__file__).resolve().parent.parent
#: Where runs leave their artifacts (ignored by git).
OUT_DIR = REPO / "bench" / "out"
#: Default run length (must match ``BENCHMARK.json``): a run repeats its
#: workload's pass (set-up, cold solve, steps) as often as fits into it.
RUN_SECONDS = 28
#: Every workload runs on a deployment built from this seed; ``--seed`` draws
#: the inputs fed to it (deltas, traffic volumes, load, flow batches).  See
#: README "Seeds" for why the world itself is not re-drawn per seed.
WORLD_SEED = 0
