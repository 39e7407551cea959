"""Correctness check of each job's report, against references computed here.

The references take a route independent of the layer under test:

* verdicts   -- the analytic class of the symbol (tail sums of the closed
                form), see ``expected_class``; ``inconclusive`` always passes,
                and a widom-route verdict for a symbol whose remainder cannot
                be certified may never be ``bounded`` or ``compact``;
* section σ  -- LAPACK ``svdvals`` of a section built here from the symbol's
                closed form, for dimensions up to ``sigma_max_n``;
* moments    -- ``scipy.integrate.quad`` after the substitution t = 1 - e^-s;
* x-norms    -- ``eigvalsh`` of a Gram matrix assembled here as Tᵀ diag(w) T̄;
* random-sim -- ordered quartiles, the frozen 0.5 contrast gate, and the
                quartiles of replica tail norms by ``svdvals``;
* rkt        -- finite estimates; Cesàro estimates against the package's
                separate closed form (``operators.cesaro_rkt_norm``);
* demo       -- every preset passes;
* doublesum  -- the double sum recomputed on a sample of the battery's vectors.

Tolerances are read from ``tolerances.json`` next to this file.  Only numpy
and scipy compute references; the package's counter-based RNG is used only
to regenerate a job's random inputs (see ``check_job``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, linalg

TOL = json.loads((Path(__file__).parent / "tolerances.json").read_text())

CERTIFIED_KINDS = ("powerlog", "lacunary", "explicit")  # remainder brackets exist


# ---------------------------------------------------------------------------
# symbols from their closed forms
# ---------------------------------------------------------------------------


def _lacunary_support(sym: dict, top: int):
    """Support n_k and values of a ruled lacunary symbol up to index top."""
    rule, q = sym["rule"], sym.get("q", 2.0)
    n, k = sym.get("start", 1), 0
    support, vals = [], []
    while n <= top:
        support.append(n)
        vals.append(rule.get("scale", 1.0) * n ** -rule["decay"] * (k + 1.0) ** -rule.get("power", 0.0))
        n = max(n + 1, math.ceil(n * q))
        k += 1
    return support, vals


def symbol_values(sym: dict, count: int) -> np.ndarray:
    """λ_0 .. λ_{count-1} of a symbol config, from its definition."""
    n = np.arange(count, dtype=np.float64)
    kind = sym["kind"]
    if kind == "powerlog":
        return sym.get("scale", 1.0) * (n + 1.0) ** -sym["alpha"] * np.log(n + 2.0) ** -sym["beta"]
    if kind == "moments" and sym["measure"] == {"named": "lebesgue"}:
        return 1.0 / (n + 1.0)
    if kind == "explicit":
        vals = [complex(v["re"], v.get("im", 0.0)) if isinstance(v, dict) else v for v in sym["values"]]
        out = np.zeros(count, dtype=np.complex128)
        take = min(count, len(vals))
        out[:take] = vals[:take]
        return out if np.any(out.imag) else out.real
    if kind == "lacunary":
        out = np.zeros(count)
        for idx, v in zip(*_lacunary_support(sym, count - 1)):
            out[idx] = v
        return out
    raise ValueError(f"no closed form for symbol kind {kind!r}")


def section(lam: np.ndarray, kind: str, n: int, offset: int = 0) -> np.ndarray:
    """Dirichlet-section matrix rows/cols offset..n-1: sqrt(j+1)/sqrt(k+1) weights."""
    j = np.arange(offset, n)
    weights = np.sqrt(j + 1.0)[:, None] / np.sqrt(j + 1.0)[None, :]
    if kind == "hankel":
        return weights * lam[j[:, None] + j[None, :]]
    if kind == "cesaro":
        return np.tril(weights * lam[j][:, None])
    raise ValueError(kind)


def top_sigma(lam: np.ndarray, kind: str, n: int, offset: int = 0) -> float:
    return float(linalg.svdvals(section(lam, kind, n, offset), check_finite=False)[0])


# ---------------------------------------------------------------------------
# analytic classes
# ---------------------------------------------------------------------------


def powerlog_class(alpha: float, beta: float) -> str:
    """S(m) = sum_{n>=m} n (n+1)^-2a log(n+2)^-2b against 1/log m."""
    if alpha < 1.0 or (alpha == 1.0 and beta < 1.0):
        return "unbounded"
    if alpha == 1.0 and beta == 1.0:
        return "bounded"
    return "compact"


def lacunary_class(decay: float, power: float) -> str:
    """S(m) ~ sum_{n_k>=m} n_k^(1-2 decay) (k+1)^(-2 power), with k ~ log n_k."""
    if decay != 0.5:
        return "unbounded" if decay < 0.5 else "compact"
    return powerlog_class(1.0, power)


def measure_class(measure: dict) -> str:
    """Moments of c t^k (1-t)^g log(e/(1-t))^-d behave like powerlog(g+1, d)."""
    if measure == {"named": "lebesgue"}:
        return "unbounded"
    classes = ["compact"]
    for d in measure.get("densities", []):
        classes.append(powerlog_class(d.get("gamma", 0.0) + 1.0, d.get("delta", 0.0)))
    order = ("compact", "bounded", "unbounded")
    return max(classes, key=order.index)


def expected_class(job: dict) -> str:
    if "measure" in job:
        return measure_class(job["measure"])
    sym = job["symbol"]
    if sym["kind"] == "powerlog":
        return powerlog_class(sym["alpha"], sym["beta"])
    if sym["kind"] == "lacunary":
        return lacunary_class(sym["rule"]["decay"], sym["rule"].get("power", 0.0))
    if sym["kind"] == "explicit":
        return "compact"  # finite symbol: finite-rank operator
    raise ValueError(f"no analytic class for {sym['kind']!r}")


def _certified(job: dict) -> bool:
    if "measure" in job:
        return not job["measure"].get("densities") and "named" not in job["measure"]
    return job["symbol"]["kind"] in CERTIFIED_KINDS


def check_verdict(job: dict, results: dict) -> list:
    verdict = results["verdict"]
    if verdict == "inconclusive":
        return []
    problems = []
    widom = job.get("route", "widom") == "widom"
    if widom and not _certified(job) and verdict in ("bounded", "compact"):
        problems.append(f"verdict {verdict} for a symbol whose remainder is not certified")
    want = expected_class(job)
    if verdict != want:
        problems.append(f"verdict {verdict} ({results['applicability']}), analytic class {want}")
    return problems


# ---------------------------------------------------------------------------
# numeric references
# ---------------------------------------------------------------------------


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def check_sections(job: dict, report: dict) -> list:
    curves = {c["label"]: c for c in report["curves"]}
    kind = job.get("kind", "hankel")
    top = max(job["n_grid"])
    lam = symbol_values(job["symbol"], 2 * top)
    problems = []
    for n, sigma, _, _ in curves["section_norm_vs_n"]["rows"]:
        if n <= TOL["sigma_max_n"]:
            want = top_sigma(lam, kind, int(n))
            if _rel(sigma, want) > TOL["sigma_rel"]:
                problems.append(f"sigma at n={int(n)}: {sigma!r} vs svdvals {want!r}")
    if "tail_norm_vs_m" in curves and top <= TOL["sigma_max_n"]:
        for m, sigma, _, _ in curves["tail_norm_vs_m"]["rows"]:
            want = top_sigma(lam, kind, top, int(m))
            if _rel(sigma, want) > TOL["sigma_rel"]:
                problems.append(f"tail sigma at m={int(m)}: {sigma!r} vs svdvals {want!r}")
    return problems


def check_random_sim(job: dict, report: dict, multipliers) -> list:
    """multipliers(r, count) -> replica r's first count multipliers X_k."""
    curves = {c["label"]: c for c in report["curves"]}
    n = job["n"]
    lam = symbol_values(job["symbol"], 2 * n)
    problems = []
    for m, q25, q50, q75 in curves["randomized_tail_quartiles"]["rows"]:
        if not q25 <= q50 <= q75:
            problems.append(f"quartiles out of order at m={int(m)}")
        if n - m > TOL["sigma_max_n"]:
            continue
        norms = [top_sigma(multipliers(r, 2 * n - 1) * np.conj(lam[: 2 * n - 1]), "hankel", n, int(m))
                 for r in range(job["replicas"])]
        for got, want in zip((q25, q50, q75), map(float, np.percentile(norms, [25.0, 50.0, 75.0]))):
            if _rel(got, want) > TOL["sigma_rel"]:
                problems.append(f"replica tail quartile at m={int(m)}: {got!r} vs svdvals {want!r}")
    for ratio in report["results"]["median_over_deterministic"]:
        if ratio is None or ratio > TOL["random_contrast_max"]:
            problems.append(f"median/deterministic {ratio} above {TOL['random_contrast_max']}")
    for m, det, _, _ in curves["deterministic_tail"]["rows"]:
        if n - m <= TOL["sigma_max_n"]:
            want = top_sigma(lam, "hankel", n, int(m))
            if _rel(det, want) > TOL["sigma_rel"]:
                problems.append(f"deterministic tail at m={int(m)}: {det!r} vs svdvals {want!r}")
    return problems


def density_moment(d: dict, n: int) -> float:
    """c int_0^1 t^(n+kappa) (1-t)^gamma log(e/(1-t))^-delta dt by QUADPACK.

    With t = 1 - e^-s the integrand (1 - e^-s)^(n+kappa) e^(-s(gamma+1))
    (1+s)^-delta is smooth on [0, inf), so no end-point singularity is left
    for the quadrature to resolve.
    """
    power, gamma, delta = n + d.get("kappa", 0.0), d.get("gamma", 0.0), d.get("delta", 0.0)

    def f(s):
        return (-math.expm1(-s)) ** power * math.exp(-s * (gamma + 1.0)) * (1.0 + s) ** -delta

    val, _ = integrate.quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=500)
    return d["c"] * val


def check_moments(job: dict, report: dict) -> list:
    rows = {c["label"]: c for c in report["curves"]}["moments_vs_n"]["rows"]
    measure = job["measure"]
    n_top = len(rows) - 1
    problems = []
    for i in sorted({0, 1, n_top // 2, n_top}):
        want = sum(a["mass"] * a["loc"] ** i for a in measure.get("atoms", []))
        want += sum(density_moment(d, i) for d in measure.get("densities", []))
        if _rel(rows[i][1], want) > TOL["moment_rel"]:
            problems.append(f"moment {i}: {rows[i][1]!r} vs quad {want!r}")
    return problems


def x_norm(b: np.ndarray, n: int, delta: float | None = None) -> float:
    """|b_0|^2 + top eigenvalue of D^-1/2 G D^-1/2 for the Gram of |b'|^2 dA.

    G[j,k] = sum_p c_{p-j} conj(c_{p-k}) w_p with c the coefficients of b'
    and w_p the area moments of |z|^2p over the disk (or annulus).
    """
    c = np.arange(1, len(b)) * b[1:]
    rows = n + len(c)
    t = np.zeros((rows, n + 1), dtype=np.complex128)
    for j in range(n + 1):
        t[j : j + len(c), j] = c
    p = np.arange(rows, dtype=np.float64)
    w = 1.0 / (p + 1.0)
    if delta is not None:
        w = w * (1.0 - (1.0 - delta) ** (2.0 * p + 2.0))
    g = t.T @ (w[:, None] * t.conj())
    d = np.concatenate([[1.0], np.arange(1.0, n + 1.0)]) ** -0.5
    a = d[:, None] * g * d[None, :]
    top = linalg.eigvalsh(a, subset_by_index=[n, n], check_finite=False)[0]
    return float(abs(b[0]) ** 2 + top) if delta is None else float(top)


def check_carleson(job: dict, report: dict) -> list:
    curves = {c["label"]: c for c in report["curves"]}
    n_top = max(job.get("n_grid", [64, 128, 256, 512]))
    b = np.conj(symbol_values(job["symbol"], n_top + 1)).astype(np.complex128)
    problems = []
    for n, v, _, _ in curves["xnorm_vs_degree"]["rows"]:
        n = int(n)
        if n <= TOL["xnorm_max_n"]:
            want = x_norm(b[: n + 1], n)
            if _rel(v, want) > TOL["xnorm_rel"]:
                problems.append(f"x-norm at n={n}: {v!r} vs eigvalsh {want!r}")
    if "restricted_vs_delta" in curves and n_top <= TOL["xnorm_max_n"]:
        for delta, v, _, _ in curves["restricted_vs_delta"]["rows"]:
            want = x_norm(b, n_top, delta)
            if _rel(v, want) > TOL["xnorm_rel"]:
                problems.append(f"restricted norm at delta={delta}: {v!r} vs eigvalsh {want!r}")
    return problems


def check_doublesum(job: dict, report: dict, vectors) -> list:
    """vectors(i) -> the battery's vector i (regenerated by the caller)."""
    rows = {c["label"]: c for c in report["curves"]}["double_sum_ratio_per_vector"]["rows"]
    res = report["results"]
    problems = []
    if len(rows) != job["count"]:
        problems.append(f"{len(rows)} rows for {job['count']} vectors")
    if res["max_ratio"] > TOL["double_sum_max"]:
        problems.append(f"max ratio {res['max_ratio']} above {TOL['double_sum_max']}")
    if rows and rows[res["argmax_vector"]][1] != res["max_ratio"]:
        problems.append("argmax_vector does not point at max_ratio")
    for i in sorted({0, len(rows) // 2, len(rows) - 1, res["argmax_vector"]}):
        a = np.asarray(vectors(i), dtype=np.float64)[1:]
        k = np.arange(len(a), dtype=np.float64)
        lhs = float(np.sum(np.outer(a, a) / np.log(k[:, None] + k[None, :] + 3.0)))
        rhs = float(np.sum((k + 1.0) * a * a))
        if _rel(rows[i][1], lhs / rhs) > TOL["double_sum_rel"]:
            problems.append(f"ratio of vector {i}: {rows[i][1]!r} vs direct {lhs / rhs!r}")
    return problems


def check_job(job: dict, report: dict, inputs=None) -> list:
    """Problems found in one job's report; an empty list means it passed.

    inputs regenerates a job's random inputs (doublesum vectors, random-sim
    multipliers) from its seed; the caller supplies it.
    """
    command = job["command"]
    res = report["results"]
    if command == "classify":
        problems = check_verdict(job, res)
        if job.get("route") == "carleson":
            problems += check_carleson(job, report)
        return problems
    if command == "sections":
        return check_sections(job, report)
    if command == "random-sim":
        return check_random_sim(job, report, inputs)
    if command == "moments":
        return check_moments(job, report)
    if command == "carleson":
        return check_verdict(job, res) + check_carleson(job, report)
    if command == "rkt":
        rows = {c["label"]: c for c in report["curves"]}
        problems = [f"estimate {r[1]!r} at t={r[0]}" for r in rows["rkt_estimate_vs_t"]["rows"]
                    if not (math.isfinite(r[1]) and r[1] >= 0.0)]
        if job.get("kind") == "cesaro":
            for (t, est, _, _), (_, closed, _, _) in zip(rows["rkt_estimate_vs_t"]["rows"],
                                                        rows["rkt_closed_form_vs_t"]["rows"]):
                if _rel(est, closed) > TOL["rkt_closed_form_rel"]:
                    problems.append(f"cesaro kernel norm at t={t}: {est!r} vs closed form {closed!r}")
        return problems
    if command == "doublesum":
        return check_doublesum(job, report, inputs)
    if command == "demo":
        return [f"demo check {c['preset']} failed: {c['detail']}" for c in res["checks"] if not c["pass"]]
    raise ValueError(f"no check for command {command!r}")
