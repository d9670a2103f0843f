"""Per-kernel costs of the walk kernels in ``conefluct._batch``.

For each kernel on the packaged reference law (d = 2, K = 2) and on the
benchmark's centred d = 3, K = 64 law (``perfbench.workloads.centered_law``
at seed 7), prints the best wall time per call, ns per nominal path-step
(paths times steps, killed paths included) and the minor page faults per
call (``getrusage``).  The kernels run in this process, one group of
``--chunks`` chunks per call, after one warm-up call each.

Usage (from the root of a checkout)::

    PYTHONPATH=src python scripts/kernel_costs.py [--chunks 4] [--steps 256] [--repeat 5]
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from conefluct import MatrixLaw, SimplexVector, _batch  # noqa: E402
from conefluct.fixtures import reference_law  # noqa: E402
from perfbench.workloads import centered_law  # noqa: E402


def _d3k64() -> MatrixLaw:
    spec = centered_law(np.random.default_rng(7))
    return MatrixLaw.from_entries(spec["atoms"], spec["weights"])


# a level scale per law, about one step's standard deviation of S
LAWS = {"reference": (reference_law, 0.42), "d3k64": (_d3k64, 0.16)}

# the eight levels, in units of the law's scale
EIGHT = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0)


def kernel_calls(law: MatrixLaw, scale: float, steps: int) -> dict:
    """Each kernel's ``(function, args)``, the group's sizes and seeds left off."""
    x0 = SimplexVector.barycenter(law.dim).coords
    head = (law.atom_stack, law.cum_weights, x0)
    calls = {
        "walk_chunk": (_batch.walk_chunk, (*head, 0.0, steps, (steps,), (), (), False)),
        "survival_chunk 1 level": (_batch.survival_chunk, (*head, (2.0 * scale,), (steps // 4, steps), False)),
        "survival_chunk 8 levels": (
            _batch.survival_chunk,
            (*head, tuple(scale * k for k in EIGHT), (steps // 4, steps), False),
        ),
    }
    if law.dim == 2:
        # a smooth potential on 512 nodes: the kernel's cost does not depend on its values
        params = np.linspace(0.0, 1.0, 512)
        theta = 0.1 * np.sin(2.0 * np.pi * params)
        calls["martingale_chunk"] = (_batch.martingale_chunk, (*head, 1.0, steps, params, theta, 0.2))
    return calls


def measure(fn, args: tuple, chunks: int, repeat: int) -> tuple[float, float]:
    """Best seconds per call and mean minor faults per call, after one warm-up call."""
    sizes = [_batch.CHUNK_PATHS] * chunks
    seeds = np.random.SeedSequence(1).spawn(chunks)
    fn(*args, sizes, seeds)
    best = float("inf")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args, sizes, seeds)
        best = min(best, time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best, faults / repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--chunks", type=int, default=4, help="chunks of CHUNK_PATHS paths per call")
    parser.add_argument("--steps", type=int, default=256, help="horizon n of every walk")
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per kernel")
    args = parser.parse_args(argv)
    paths = args.chunks * _batch.CHUNK_PATHS
    print(f"{paths} paths ({args.chunks} chunks), n = {args.steps}, best of {args.repeat}")
    print(f"{'law':<10} {'kernel':<24} {'s/call':>8} {'ns/path-step':>13} {'faults/call':>12}")
    for name, (make, scale) in LAWS.items():
        law = make()
        for kernel, (fn, kargs) in kernel_calls(law, scale, args.steps).items():
            seconds, faults = measure(fn, kargs, args.chunks, args.repeat)
            ns = seconds / (paths * args.steps) * 1e9
            print(f"{name:<10} {kernel:<24} {seconds:8.4f} {ns:13.2f} {faults:12.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
