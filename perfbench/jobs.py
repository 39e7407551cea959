"""Seeded job generator: each workload is a list of plain CLI config dicts.

A job is exactly what ``dirspace <command> --config FILE`` reads (the CLI
sets ``command`` from its argument), and run.py dumps every job, so any job
can be replayed:

    PYTHONPATH=src python3 -m dirspace.cli sections \
        --config .bench_out/spectral-1/jobs/007-sections.json

A workload is one *pass*: a fixed multiset of job templates whose free
parameters are drawn from the seed by stratified sampling (see ``strata``),
so every seed has the same mix of commands, sizes and code paths and only
the parameter values move.  The benchmark repeats the pass, so a run always
holds whole passes.  Only the standard library is used, so the generator
runs without the package under test.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("spectral", "profiles", "carleson-demo")

SMALL_NMAX = 2**14  # the one smaller nmax next to the default 2**18


@dataclass
class Workload:
    jobs: list  # one pass, in run order
    warmup: list  # tiny jobs touching every code path of the pass
    smallest: dict  # the job timed by setup_s


def strata(rng: random.Random, lo: float, hi: float, k: int) -> list:
    """k draws, one in each of k equal sub-intervals of [lo, hi), in order.

    All draws share one random offset (systematic sampling), so the number of
    draws inside any interval, such as a range where a verdict is wrong,
    changes by at most one between seeds.
    """
    width = (hi - lo) / k
    offset = rng.random()
    return [lo + (i + offset) * width for i in range(k)]


def shuffled(rng: random.Random, values: list) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# symbol configs
# ---------------------------------------------------------------------------


def powerlog(alpha: float, beta: float) -> dict:
    return {"kind": "powerlog", "alpha": alpha, "beta": beta}


def lacunary(decay: float, power: float, q: float, start: int = 1) -> dict:
    return {"kind": "lacunary", "rule": {"decay": decay, "power": power}, "q": q, "start": start}


HILBERT = {"kind": "moments", "measure": {"named": "lebesgue"}}


def rotated_powerlog(alpha: float, beta: float, theta: float, length: int) -> dict:
    """Explicit complex symbol (n+1)^-alpha log(n+2)^-beta e^{i n theta}, n < length."""
    vals = []
    for n in range(length):
        z = (n + 1.0) ** -alpha * math.log(n + 2.0) ** -beta * cmath.exp(1j * n * theta)
        vals.append({"re": z.real, "im": z.imag})
    return {"kind": "explicit", "values": vals}


def density(gamma: float, delta: float, kappa: float = 0.0) -> dict:
    return {"densities": [{"c": 1.0, "gamma": gamma, "delta": delta, "kappa": kappa}]}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _spectral(rng: random.Random) -> Workload:
    # sections: four symbol families x two kinds; real and complex BLAS paths;
    # fast spectral gaps (Hilbert, powerlog) and slower ones (lacunary, phases)
    grids = ([64, 256, 1024], [128, 512, 2048])
    jobs = []
    # the largest sections (top n = 4096) have fixed symbols: with the
    # random-sim jobs they hold the 90th percentile, so that it does not hop
    # between jobs whose cost moves with the drawn parameters
    for sym, kind in ((HILBERT, "hankel"), (HILBERT, "hankel"), (powerlog(1.0, 1.0), "hankel"),
                      (powerlog(1.0, 0.5), "cesaro")):
        jobs.append({"command": "sections", "symbol": sym, "kind": kind, "n_grid": [256, 1024, 4096]})
    for i in range(4):
        jobs.append({"command": "sections", "symbol": HILBERT, "kind": "hankel", "n_grid": grids[i % 2]})
    for i, (alpha, beta) in enumerate(zip(strata(rng, 0.8, 1.6, 8), shuffled(rng, strata(rng, 0.0, 2.0, 8)))):
        jobs.append({"command": "sections", "symbol": powerlog(alpha, beta), "kind": ("hankel", "cesaro")[i % 2],
                     "n_grid": grids[i % 2]})
    for i, (decay, power) in enumerate(zip(strata(rng, 0.4, 0.9, 6), shuffled(rng, strata(rng, 0.0, 1.5, 6)))):
        job = {"command": "sections", "symbol": lacunary(decay, power, 2.0), "kind": ("hankel", "cesaro")[i % 2],
               "n_grid": grids[i % 2]}
        if i < 2:
            job["m_grid"] = [16, 64, 256]
        jobs.append(job)
    for i, theta in enumerate(strata(rng, 0.0, 2.0 * math.pi, 6)):
        sym = rotated_powerlog(rng.uniform(0.9, 1.5), rng.uniform(0.0, 1.5), theta, 2047)
        jobs.append({"command": "sections", "symbol": sym, "kind": ("hankel", "cesaro")[i % 2],
                     "n_grid": ([32, 128, 512], [64, 256, 1024])[i % 2]})
    # small sections of every family: more than half the pass, so the median
    # job is one of them whatever the seed
    small = [HILBERT] * 4
    small += [powerlog(a, b) for a, b in zip(strata(rng, 0.8, 1.6, 14), shuffled(rng, strata(rng, 0.0, 2.0, 14)))]
    small += [lacunary(d, p, 2.0) for d, p in zip(strata(rng, 0.4, 0.9, 10), shuffled(rng, strata(rng, 0.0, 1.5, 10)))]
    small += [rotated_powerlog(1.0, b, t, 511)
              for b, t in zip(strata(rng, 0.0, 1.5, 12), shuffled(rng, strata(rng, 0.0, 2.0 * math.pi, 12)))]
    for i, sym in enumerate(small):
        jobs.append({"command": "sections", "symbol": sym, "kind": ("hankel", "cesaro")[i % 2], "n_grid": [16, 64, 256]})
    # random-sim: Rademacher multipliers on powerlog(1, 1), acceptance 8 scaled
    # down.  Like acceptance 8 the multiplier seeds are fixed: whether a
    # replica's solve stops at max_iter depends on its multipliers, and
    # fail_ratio would otherwise move with the workload seed
    for i, (n, replicas) in enumerate(((1024, 4),) * 4 + ((1024, 8), (2048, 4))):
        jobs.append({"command": "random-sim", "symbol": powerlog(1.0, 1.0), "dist": "rademacher",
                     "seed": 20260809 + i, "n": n, "replicas": replicas, "m_grid": [n // 2]})
    warmup = [
        {"command": "sections", "symbol": HILBERT, "kind": "hankel", "n_grid": [32]},
        {"command": "sections", "symbol": powerlog(1.0, 1.0), "kind": "cesaro", "n_grid": [32]},
        {"command": "sections", "symbol": lacunary(0.5, 1.0, 2.0), "kind": "hankel", "n_grid": [32], "m_grid": [4]},
        {"command": "sections", "symbol": rotated_powerlog(1.0, 1.0, 1.0, 63), "kind": "hankel", "n_grid": [32]},
        {"command": "random-sim", "symbol": powerlog(1.0, 1.0), "dist": "rademacher", "seed": 1, "n": 64,
         "replicas": 2, "m_grid": [32]},
    ]
    return Workload(shuffled(rng, jobs), warmup, warmup[0])


def _profiles(rng: random.Random) -> Workload:
    jobs = []
    # powerlog: the alpha = 1 borderline, where the class changes with beta,
    # and a continuous alpha range around it at the smaller nmax
    for i, beta in enumerate(strata(rng, 0.25, 2.25, 64)):
        jobs.append({"command": "classify", "symbol": powerlog(1.0, beta), "kind": ("hankel", "cesaro")[i % 2]})
    for alpha, beta in zip(strata(rng, 0.5, 1.5, 16), shuffled(rng, strata(rng, 0.0, 2.0, 16))):
        jobs.append({"command": "classify", "symbol": powerlog(alpha, beta), "kind": "hankel",
                     "classify": {"nmax": SMALL_NMAX}})
    # lacunary rules: the decay = 1/2 borderline and a continuous decay range
    for power in strata(rng, 0.25, 2.0, 4):
        jobs.append({"command": "classify", "symbol": lacunary(0.5, power, 2.0), "kind": "cesaro"})
    for decay, power in zip(strata(rng, 0.3, 0.9, 4), shuffled(rng, strata(rng, 0.0, 1.5, 4))):
        jobs.append({"command": "classify", "symbol": lacunary(decay, power, 2.0), "kind": "cesaro",
                     "classify": {"nmax": SMALL_NMAX}})
    # closed-form moment symbols: Lebesgue (the Hilbert matrix), point masses,
    # delta = 0 densities
    for loc in strata(rng, 0.1, 0.95, 4):
        jobs.append({"command": "classify", "measure": {"atoms": [{"loc": loc, "mass": 1.0}]}, "kind": "hankel"})
    jobs.append({"command": "classify", "measure": {"named": "lebesgue"}, "kind": "hankel"})
    jobs.append({"command": "classify", "measure": {"named": "lebesgue"}, "kind": "cesaro",
                 "classify": {"nmax": SMALL_NMAX}})
    for gamma in strata(rng, -0.5, 1.0, 2):
        jobs.append({"command": "classify", "measure": density(gamma, 0.0), "kind": "hankel"})
    # kernel probes
    for i, t_top in enumerate(strata(rng, 0.9, 0.99, 4)):
        jobs.append({"command": "rkt", "symbol": powerlog(1.0, rng.uniform(0.5, 1.5)),
                     "kind": ("hankel", "cesaro")[i % 2], "t_grid": [0.0, 0.5, 0.8, t_top], "n": 256})
    # delta != 0 densities: graded quadrature on both gamma branches, at the
    # smaller nmax and (one per branch) at the default nmax
    for i, (gamma, delta) in enumerate(zip(strata(rng, -0.6, 0.8, 12), shuffled(rng, strata(rng, 0.5, 2.0, 12)))):
        jobs.append({"command": "classify", "measure": density(gamma, delta), "kind": ("hankel", "cesaro")[i % 2],
                     "classify": {"nmax": SMALL_NMAX}})
    for i, (gamma, delta) in enumerate(zip(strata(rng, -0.6, 0.8, 4), shuffled(rng, strata(rng, 0.5, 2.0, 4)))):
        jobs.append({"command": "moments", "measure": density(gamma, delta, float(i % 2)), "n": 64,
                     "classify": {"nmax": SMALL_NMAX}})
    jobs.append({"command": "classify", "measure": density(rng.uniform(-0.6, -0.1), rng.uniform(0.5, 2.0)),
                 "kind": "hankel"})
    jobs.append({"command": "classify", "measure": density(rng.uniform(0.1, 0.8), rng.uniform(0.5, 2.0)),
                 "kind": "cesaro"})
    warmup = [
        {"command": "classify", "symbol": powerlog(1.0, 1.0), "kind": "hankel", "classify": {"nmax": 1024}},
        {"command": "classify", "symbol": lacunary(0.5, 1.0, 2.0), "kind": "cesaro", "classify": {"nmax": 1024}},
        {"command": "classify", "measure": density(-0.5, 1.0), "kind": "hankel", "classify": {"nmax": 1024}},
        {"command": "classify", "measure": density(0.5, 1.0), "kind": "hankel", "classify": {"nmax": 1024}},
        {"command": "moments", "measure": {"named": "lebesgue"}, "n": 8, "classify": {"nmax": 1024}},
        {"command": "rkt", "symbol": powerlog(1.0, 1.0), "kind": "cesaro", "t_grid": [0.0, 0.5], "n": 16},
        {"command": "rkt", "symbol": powerlog(1.0, 1.0), "kind": "hankel", "t_grid": [0.0, 0.5], "n": 16},
    ]
    return Workload(shuffled(rng, jobs), warmup, warmup[0])


def _carleson_demo(rng: random.Random) -> Workload:
    # powerlog along the alpha = 1 borderline, where the class changes with
    # beta, and across it at beta = 1; real and complex (rotated) b
    jobs = []
    for i, beta in enumerate(shuffled(rng, strata(rng, 0.25, 2.25, 8))):
        jobs.append({"command": "carleson", "symbol": powerlog(1.0, beta),
                     "n_grid": [128, 256, 512] if i < 2 else [64, 128, 256]})
    for beta, theta in zip(shuffled(rng, strata(rng, 0.25, 2.25, 4)), strata(rng, 0.0, 2.0 * math.pi, 4)):
        jobs.append({"command": "carleson", "symbol": rotated_powerlog(1.0, beta, theta, 257), "n_grid": [64, 128, 256]})
    for beta in strata(rng, 0.25, 2.25, 24):
        jobs.append({"command": "classify", "route": "carleson", "symbol": powerlog(1.0, beta),
                     "n_grid": [64, 128, 256, 512]})
    for i, alpha in enumerate(strata(rng, 0.7, 1.3, 8)):
        jobs.append({"command": "classify", "route": "carleson", "symbol": powerlog(alpha, 1.0),
                     "n_grid": ([32, 64, 128, 256], [64, 128, 256, 512])[i % 2]})
    jobs.append({"command": "demo"})
    jobs.append({"command": "doublesum", "seed": rng.randrange(2**32), "count": 1000})
    warmup = [
        {"command": "carleson", "symbol": powerlog(1.0, 1.0), "n_grid": [16], "delta_grid": [0.5]},
        {"command": "carleson", "symbol": rotated_powerlog(1.0, 1.0, 1.0, 17), "n_grid": [16], "delta_grid": [0.5]},
        {"command": "classify", "route": "carleson", "symbol": powerlog(1.0, 1.0), "n_grid": [8, 16]},
        {"command": "doublesum", "seed": 1, "count": 10},
        {"command": "demo"},
    ]
    return Workload(shuffled(rng, jobs), warmup, warmup[0])


_GENERATORS = {"spectral": _spectral, "profiles": _profiles, "carleson-demo": _carleson_demo}


def generate(workload: str, seed: int) -> Workload:
    """The pass for (workload, seed); the same arguments give the same jobs."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{int(seed)}"))


def dump(wl: Workload, out_dir: Path) -> None:
    """Write each job as NNN-<command>.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, job in enumerate(wl.jobs):
        (out_dir / f"{i:03d}-{job['command']}.json").write_text(json.dumps(job, sort_keys=True) + "\n")
