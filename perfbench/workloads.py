"""Workload definitions: the sweeps each benchmark workload issues.

Every workload is a fixed list of named ``ExperimentConfig`` objects built
from the workload seed.  The seed derives the random p=6 sources and the
``SeedBundle``; the library only ever sees the generated inputs.

Why these workloads (shares measured on a 2-core machine, pure-Python
kernel backend):

* ``bounds`` - bounds-only sweeps (``quantizer=None``).  ``solver`` and
  ``maxdet`` do all of the work, ``kernels`` and ``entropy_code`` none.
  ``example1`` is p=4 form_b, stable, and its top grid point at d_max takes
  the zero-rate shortcut; ``example4`` is p=2 form_a, unstable; the random
  stable p=6 sources (form_b) show how solve cost grows with p.  The solve
  time of one p=6 source varies by up to 60% from source to source, so the
  seed draws several of them and the rounds take turns over them (see
  ``run.Sweeps``); one source per run would make ``sweep_s`` a draw of that
  spread rather than a measure of the solver.
* ``coded_sdusq`` - ``example1`` with the scalar dithered quantizer.  The
  pure-Python channel loop and the solver each do about half of the work;
  the default grid keeps the r=0 point at d_max, which runs ``awgn_loop``.
* ``coded_d4`` - ``example3`` (unstable p=4) with the D4 lattice.  Dither
  rejection and the D4 loop dominate, and the joint alphabets are the
  largest per step, so ``entropy_code`` works hardest here.
"""

import os
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("bounds", "coded_sdusq", "coded_d4")
REFERENCE_SEED = 0

# Grid points and coding run lengths.  TINY is the self-test's size.
FULL = {
    "example1_points": 6,
    "example4_points": 6,
    "random6_points": 2,
    "random6_sources": 4,
    "sdusq_points": 4,
    "sdusq_steps": 10_000,
    "d4_points": 3,
    "d4_steps": 5_000,
}
TINY = {
    "example1_points": 2,
    "example4_points": 2,
    "random6_points": 2,
    "random6_sources": 2,
    "sdusq_points": 2,
    "sdusq_steps": 3000,
    "d4_points": 2,
    "d4_steps": 3000,
}

# The library reads both variables; pin them so no caller's shell leaks in.
# An empty ZDRD_SEED means "no override", so the configured seeds are used.
PINNED_ENV = {"ZDRD_SEED": "", "ZDRD_DISABLE_NUMBA": "1"}


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/zdrd`` to benchmark."""


def load_zdrd():
    """Pin the environment, then import zdrd from this checkout's sources."""
    if not (SRC / "zdrd" / "__init__.py").is_file():
        raise MissingProgram(f"no zdrd package under {SRC}")
    os.environ.update(PINNED_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zdrd

    if Path(zdrd.__file__).resolve().parent != SRC / "zdrd":
        raise MissingProgram(f"imported zdrd from {zdrd.__file__}, not from {SRC}")
    return zdrd


def seed_inputs(seed, sources):
    """``sources`` random stable p=6 source matrices and the seed bundle."""
    import numpy as np
    from zdrd import SeedBundle

    source_seq, bundle_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(source_seq)
    matrices = []
    for _ in range(sources):
        A = rng.standard_normal((6, 6))
        matrices.append(A * (0.8 / np.max(np.abs(np.linalg.eigvals(A)))))
    bundle = SeedBundle(*(int(s) for s in bundle_seq.generate_state(3)))
    return matrices, bundle


def build_configs(workload, seed, sizes, csv_dir=None):
    """``[(name, config, seeded)]`` for one workload.

    ``seeded`` marks configs whose lower-bound rates depend on the seed:
    the random p=6 sources, which the sweep rounds take turns over.
    """
    import numpy as np
    from zdrd.experiments import ExperimentConfig, default_grid, preset_config
    from zdrd.source_model import new_source

    matrices, seeds = seed_inputs(seed, sizes["random6_sources"])

    def csv(name):
        return None if csv_dir is None else str(Path(csv_dir) / f"{workload}-{name}.csv")

    def preset(name, quantizer, points, steps=None):
        cfg = preset_config(name, quantizer=quantizer, n_steps=steps, points=points)
        return replace(cfg, seeds=seeds, csv_path=csv(name))

    def random6(k, A):
        src = new_source(A, np.eye(6), np.eye(6))
        name = f"random6.{k}"
        grid = default_grid(src, sizes["random6_points"])
        cfg = ExperimentConfig(
            source=src, d_grid=grid, seeds=seeds, quantizer=None, csv_path=csv(name), name=name
        )
        return (name, cfg, True)

    if workload == "bounds":
        return [
            ("example1", preset("example1", "none", sizes["example1_points"]), False),
            ("example4", preset("example4", "none", sizes["example4_points"]), False),
        ] + [random6(k, A) for k, A in enumerate(matrices)]
    if workload == "coded_sdusq":
        cfg = preset("example1", "sdusq", sizes["sdusq_points"], sizes["sdusq_steps"])
        return [("example1", cfg, False)]
    if workload == "coded_d4":
        cfg = preset("example3", "d4", sizes["d4_points"], sizes["d4_steps"])
        return [("example3", cfg, False)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
