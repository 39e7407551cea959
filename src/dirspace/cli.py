"""Batch front door: config in, machine-readable report out.

Usage:

    dirspace <command> --config FILE [--out DIR] [--format json|csv]
                       [--seed-override U64]

Commands: classify, sections, rkt, moments, carleson, random-sim, doublesum,
demo.  Exit codes: 0 success, 1 a demo check failed, 2 usage/config error.

Config schema (JSON object; fields by command, every number finite, all
numeric grids strictly increasing):

    symbol      object; one of
                  {"kind": "explicit", "values": [x | {"re","im"} ...]}
                  {"kind": "powerlog", "alpha": f, "beta": f, "scale": f=1}
                  {"kind": "moments", "measure": {...}}
                  {"kind": "lacunary", "support": [int...], "values": [f...]}
                  {"kind": "lacunary", "rule": {"decay": f, "power": f=0,
                   "scale": f=1}, "start": int=1, "q": f=2}
                  {"kind": "randomized", "base": {...}, "dist": name,
                   "normalized": bool=true, "seed": int, "stream": int=0}
    measure     {"atoms": [{"loc": f, "mass": f}...],
                 "densities": [{"c": f, "gamma": f=0, "delta": f=0,
                 "kappa": f=0}...]} or {"named": "lebesgue"}
    kind        "hankel" | "cesaro" (default "hankel")
    route       classify only: "widom" (default) | "carleson"
    n           degree/dimension (rkt kernel degree and moments table
                length, >= 0; random-sim section dim, >= 1)
    n_grid      section dimensions (>= 1) / test degrees (>= 0)
    m_grid      tail cutoffs (indices, 0 <= m < section dimension)
    t_grid      kernel points in [0, 1)
    delta_grid  annulus widths in (0, 1)
    dist        "rademacher" | "uniform-symmetric" | "gaussian"
    normalized  fourth-moment normalization flag (default true)
    replicas    random-sim replica count
    count/max_len  doublesum battery size
    seed/stream    required for stochastic commands
    classify    optional {"m_grid": [int...], "nmax": int}, nothing else;
                a Widom-route verdict is the symbol's closed-form class or
                inconclusive
    power       optional {"tol": f, "max_iter": int} for section norms,
                nothing else: tol is the Golub-Kahan residual tolerance
                relative to sigma, max_iter the Krylov step cap
    preset      demo only; one of the twelve check names in checks.py
                (e.g. "hilbert", "widom-ladder") or "all"

Top-level fields are checked per command, and for classify per route: a
config holds only the fields its command and route read, plus command and
seed (--seed-override may set seed for any command).  The Widom route of
classify reads symbol or measure, kind, route and classify; the Carleson
route reads symbol, kind (hankel only), route and n_grid (default [64, 128,
256, 512]) and gives the verdict and xnorm_vs_degree curve of the carleson
command, without its delta sweep.  Symbol, rule, {"re", "im"}, measure,
atom and density objects, like classify and power, take only the fields
listed.  An error names the nested path of its field (e.g. config.n_gird,
symbol.base.beta, symbol.measure.densities[0].gama), or of its object when
a constructor rejects the value's range.

Every reported norm carries its section dimension; every tail carries its
bracket; every stochastic value carries its seed.  Reports are byte-identical
across runs up to the wall-time provenance field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, carleson, checks, criteria, measures, operators, stochastic, symbols

_FLOAT_MAX = sys.float_info.max


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


# ---------------------------------------------------------------------------
# config access helpers
# ---------------------------------------------------------------------------


def _require(cfg: dict, key: str, path: str = ""):
    if key not in cfg:
        raise ConfigError(f"{path}{key}", "required field missing")
    return cfg[key]


def _fields(obj, path: str, allowed: tuple) -> dict:
    """obj, which must be an object with no field outside ``allowed``."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    for name in obj:
        if name not in allowed:
            raise ConfigError(f"{path}.{name}", f"unknown field; expected one of {list(allowed)}")
    return obj


def _as_int(value, path: str, low: int | None = None) -> int:
    # is_integer is False for NaN and the infinities too
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(path, f"need {low} or more, got {value!r}")
    return int(value)


def _as_number(value, path: str) -> float:
    # json.load reads NaN and +-Infinity; the bound fails for them and for
    # integers past the largest float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _FLOAT_MAX:
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _numbers(obj, path: str, defaults: dict, other: tuple = ()) -> list:
    """The number obj[key] for each key of ``defaults``, in order, required
    where the default is None; obj may hold no field outside defaults and
    ``other``."""
    _fields(obj, path, (*other, *defaults))
    return [
        _as_number(_require(obj, key, f"{path}.") if default is None else obj.get(key, default), f"{path}.{key}")
        for key, default in defaults.items()
    ]


def _as_value(value, path: str) -> complex | float:
    """A symbol value: a number or {"re": f, "im": f=0}."""
    if not isinstance(value, dict):
        return _as_number(value, path)
    re, im = _fields(value, path, ("re", "im")).get("re"), value.get("im", 0.0)
    # the bulk of long value lists: no path to build
    if type(re) is float and type(im) is float and abs(re) <= _FLOAT_MAX and abs(im) <= _FLOAT_MAX:
        return complex(re, im)
    return complex(*_numbers(value, path, {"re": None, "im": 0.0}))


def _as_list(value, path: str, item) -> list:
    """An array whose entry i is parsed by item(entry, f"{path}[{i}]")."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected an array")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_grid(value, path: str, integer: bool = True, low: int | None = None) -> list:
    out = _as_list(value, path, _as_int if integer else _as_number)
    if not out:
        raise ConfigError(path, "expected a nonempty array")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(path, "grid must be strictly increasing")
    if low is not None and out[0] < low:
        raise ConfigError(path, f"values must be {low} or more, got {out[0]!r}")
    return out


def _cutoff_grid(value, n: int) -> list:
    """Tail cutoffs m_grid for sections of dimension n: 0 <= m < n."""
    m_grid = _as_grid(value, "m_grid", low=0)
    if m_grid[-1] >= n:
        raise ConfigError("m_grid", f"cutoffs must stay below the section dimension {n}")
    return m_grid


def _build(path: str, make, *args):
    """make(*args), with a range check failing inside it reported at path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_symbol(obj, path: str = "symbol") -> symbols.SymbolSeq:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    kind, p = obj.get("kind"), f"{path}."
    if kind == "explicit":
        _fields(obj, path, ("kind", "values"))
        return symbols.SymbolSeq.explicit(_as_list(_require(obj, "values", p), f"{p}values", _as_value))
    if kind == "powerlog":
        args = _numbers(obj, path, {"alpha": None, "beta": None, "scale": 1.0}, ("kind",))
        return _build(path, symbols.SymbolSeq.powerlog, *args)
    if kind == "moments":
        _fields(obj, path, ("kind", "measure"))
        return symbols.SymbolSeq.from_measure(_parse_measure(_require(obj, "measure", p), f"{p}measure"))
    if kind == "lacunary" and "rule" in obj:
        _fields(obj, path, ("kind", "rule", "start", "q"))
        rule = _numbers(obj["rule"], f"{p}rule", {"decay": None, "power": 0.0, "scale": 1.0})
        start, q = _as_int(obj.get("start", 1), f"{p}start"), _as_number(obj.get("q", 2.0), f"{p}q")
        return _build(path, symbols.SymbolSeq.lacunary_rule, start, q, *rule)
    if kind == "lacunary":
        _fields(obj, path, ("kind", "support", "values"))
        support = _as_list(_require(obj, "support", p), f"{p}support", _as_int)
        values = _as_list(_require(obj, "values", p), f"{p}values", _as_number)
        return _build(path, symbols.SymbolSeq.lacunary, support, values)
    if kind == "randomized":
        _fields(obj, path, ("kind", "base", "dist", "normalized", "seed", "stream"))
        base = _parse_symbol(_require(obj, "base", p), f"{p}base")
        rng = _parse_seed(obj, p)
        return symbols.SymbolSeq.randomized(base, _parse_dist(obj, p), rng.seed, rng.stream)
    raise ConfigError(path, f"unknown symbol kind {kind!r}; expected explicit, powerlog, moments, lacunary or randomized")


def _parse_density(obj, path: str) -> measures.Density:
    args = _numbers(obj, path, {"c": None, "gamma": 0.0, "delta": 0.0, "kappa": 0.0})
    return _build(path, measures.Density, *args)


def _parse_measure(obj, path: str = "measure") -> measures.MeasureSpec:
    if isinstance(obj, dict) and "named" in obj:
        _fields(obj, path, ("named",))
        if obj["named"] != "lebesgue":
            raise ConfigError(f"{path}.named", f"unknown named measure {obj['named']!r}; expected 'lebesgue'")
        return measures.MeasureSpec.lebesgue()
    _fields(obj, path, ("atoms", "densities"))
    atoms = _as_list(obj.get("atoms", []), f"{path}.atoms", lambda a, at: _numbers(a, at, {"loc": None, "mass": None}))
    densities = _as_list(obj.get("densities", []), f"{path}.densities", _parse_density)
    return _build(path, measures.MeasureSpec, atoms, densities)


def _parse_kind(cfg: dict) -> str:
    kind = cfg.get("kind", "hankel")
    if kind not in ("hankel", "cesaro"):
        raise ConfigError("kind", f"expected 'hankel' or 'cesaro', got {kind!r}")
    return kind


def _sub_config(cfg: dict, key: str, fields: tuple) -> dict:
    """The optional object cfg[key]; a field outside ``fields`` is an error."""
    return _fields(cfg.get(key, {}), key, fields)


def _parse_classify_cfg(cfg: dict) -> criteria.ClassifyConfig:
    sub = _sub_config(cfg, "classify", ("m_grid", "nmax"))
    kwargs = {}
    if "m_grid" in sub:
        kwargs["m_grid"] = tuple(_as_grid(sub["m_grid"], "classify.m_grid", low=0))
    if "nmax" in sub:
        kwargs["nmax"] = _as_int(sub["nmax"], "classify.nmax", low=0)
    return criteria.ClassifyConfig(**kwargs)


def _parse_power(cfg: dict) -> dict:
    sub = _sub_config(cfg, "power", ("tol", "max_iter"))
    out = {}
    if "tol" in sub:
        out["tol"] = _as_number(sub["tol"], "power.tol")
        if out["tol"] <= 0.0:
            raise ConfigError("power.tol", "tolerance must be positive")
    if "max_iter" in sub:
        out["max_iter"] = _as_int(sub["max_iter"], "power.max_iter", low=1)
    return out


def _degree_grid(cfg: dict, default: list) -> list:
    return _as_grid(cfg.get("n_grid", default), "n_grid", low=0)


def _parse_dist(cfg: dict, prefix: str = "") -> stochastic.DistTag:
    normalized = cfg.get("normalized", True)
    if not isinstance(normalized, bool):
        raise ConfigError(f"{prefix}normalized", "expected a boolean")
    return _build(f"{prefix}dist", stochastic.DistTag, cfg.get("dist", "rademacher"), normalized)


def _parse_seed(cfg: dict, prefix: str = "") -> stochastic.RngSpec:
    seed = _as_int(_require(cfg, "seed", prefix), f"{prefix}seed")
    return stochastic.RngSpec(seed, _as_int(cfg.get("stream", 0), f"{prefix}stream"))


def _curve(label: str, rows, meta=None) -> dict:
    return {
        "label": label,
        "meta": meta or {},
        "rows": [[float(x) for x in row] for row in rows],
    }


def _point_curve(label: str, xs, values, meta=None) -> dict:
    """A curve of point estimates: the row of x is [x, v, v, v]."""
    return _curve(label, ([x, v, v, v] for x, v in zip(xs, values)), meta)


def _verdict(report: criteria.ClassReport) -> dict:
    return {"verdict": report.verdict, "applicability": report.applicability, "notes": report.notes}


def _profile_rows(profile):
    return [
        [p.m, p.lower, p.midpoint if np.isfinite(p.upper) else p.lower, p.upper]
        for p in profile
    ]


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _run_classify(cfg: dict) -> tuple[dict, list]:
    if ("symbol" in cfg) == ("measure" in cfg):
        raise ConfigError("symbol", "provide exactly one of 'symbol' or 'measure'")
    kind = _parse_kind(cfg)
    ccfg = _parse_classify_cfg(cfg)
    if "symbol" in cfg:
        sym = _parse_symbol(cfg["symbol"])
    else:
        sym = symbols.SymbolSeq.from_measure(_parse_measure(cfg["measure"]))
    report = criteria.classify(sym, kind, ccfg)
    curves = [_curve("widom_profile", _profile_rows(report.profile), {"nmax": ccfg.nmax})]
    return _verdict(report), curves


def _run_classify_carleson(cfg: dict) -> tuple[dict, list]:
    if _parse_kind(cfg) != "hankel":
        raise ConfigError("kind", "the carleson route classifies Hankel operators only")
    report, _, curves = _carleson_verdict(cfg, [64, 128, 256, 512])
    return _verdict(report), curves


def _run_sections(cfg: dict) -> tuple[dict, list]:
    sym = _parse_symbol(_require(cfg, "symbol"))
    kind = _parse_kind(cfg)
    power = _parse_power(cfg)
    n_grid = _as_grid(cfg.get("n_grid", [64, 128, 256, 512, 1024]), "n_grid", low=1)
    n_top = max(n_grid)
    m_grid = cfg.get("m_grid")
    if m_grid is not None:
        m_grid = _cutoff_grid(m_grid, n_top)
    norms = [operators.tail_section_norm(sym, kind, 0, n, **power) for n in n_grid]
    curves = [_point_curve("section_norm_vs_n", n_grid, norms, {"weight": "dirichlet-section"})]
    if m_grid is not None:
        tails = [operators.tail_section_norm(sym, kind, m, n_top, **power) for m in m_grid]
        curves.append(_point_curve("tail_norm_vs_m", m_grid, tails, {"n": n_top}))
    results = {
        "top_section_norm": norms[-1],
        "n": n_top,
        "exact_weight_interval": list(operators.exact_norm_interval(norms[-1])),
    }
    return results, curves


def _run_rkt(cfg: dict) -> tuple[dict, list]:
    sym = _parse_symbol(_require(cfg, "symbol"))
    kind = _parse_kind(cfg)
    t_grid = _as_grid(_require(cfg, "t_grid"), "t_grid", integer=False)
    if t_grid[0] < 0.0 or t_grid[-1] >= 1.0:
        raise ConfigError("t_grid", "kernel points must lie in [0, 1)")
    n = _as_int(cfg.get("n", 256), "n", low=0)
    probe = criteria.rkt_probe(sym, kind, t_grid, n)
    curves = [
        _point_curve("rkt_estimate_vs_t", t_grid, [r.estimate for r in probe.rows], {"n": n}),
        _point_curve("kernel_tail_bound_vs_t", t_grid, [r.kernel_tail for r in probe.rows], {"n": n}),
    ]
    if kind == "cesaro":
        curves.append(_point_curve("rkt_closed_form_vs_t", t_grid, [r.closed_form for r in probe.rows]))
    return {"statistic": probe.statistic, "notes": probe.notes}, curves


def _run_moments(cfg: dict) -> tuple[dict, list]:
    spec = _parse_measure(_require(cfg, "measure"))
    n = _as_int(cfg.get("n", 64), "n", low=0)
    ccfg = _parse_classify_cfg(cfg)
    sym = symbols.SymbolSeq.from_measure(spec)
    profile = criteria.widom_profile(sym, ccfg.m_grid, ccfg.nmax)
    curves = [
        _point_curve("moments_vs_n", range(n + 1), sym.values(np.arange(n + 1)).real),
        _curve("widom_profile", _profile_rows(profile), {"nmax": ccfg.nmax}),
    ]
    return {"total_mass": spec.total_mass, "support_sup": spec.support_sup}, curves


def _carleson_verdict(cfg: dict, default_n_grid: list):
    """The Carleson-route report of cfg's symbol over its test degrees, the
    symbol's polynomial b of the top degree and the xnorm_vs_degree curve;
    the verdict's profile is the x-norm sweep, so each x-norm is solved once."""
    sym = _parse_symbol(_require(cfg, "symbol"))
    n_grid = _degree_grid(cfg, default_n_grid)
    b_top = carleson.symbol_poly(sym, max(n_grid))
    report = carleson.classify_hankel_general(b_top, n_grid)
    return report, b_top, [_curve("xnorm_vs_degree", _profile_rows(report.profile))]


def _run_carleson(cfg: dict) -> tuple[dict, list]:
    delta_grid = _as_grid(
        cfg.get("delta_grid", sorted(carleson.DELTA_SCHEDULE)),
        "delta_grid",
        integer=False,
    )
    if delta_grid[0] <= 0.0 or delta_grid[-1] >= 1.0:
        raise ConfigError("delta_grid", "annulus widths must lie in (0, 1)")
    report, b_top, curves = _carleson_verdict(cfg, [64, 128, 256])
    restricted = [
        report.restricted_norm  # the verdict's boundary test, same solve
        if delta == carleson.VANISH_DELTA and report.restricted_norm is not None
        else carleson.restricted_carleson_norm(b_top, b_top.degree, delta)
        for delta in delta_grid
    ]
    curves.append(_point_curve("restricted_vs_delta", delta_grid, restricted, {"n": b_top.degree}))
    return _verdict(report), curves


def _run_random_sim(cfg: dict) -> tuple[dict, list]:
    sym = _parse_symbol(_require(cfg, "symbol"))
    dist = _parse_dist(cfg)
    rng = _parse_seed(cfg)
    replicas = _as_int(cfg.get("replicas", 16), "replicas", low=1)
    n = _as_int(cfg.get("n", 512), "n", low=1)
    m_grid = _cutoff_grid(cfg.get("m_grid", sorted({n // 8, n // 4, n // 2})), n)
    power = _parse_power(cfg)
    report = stochastic.random_tail_experiment(sym, dist, replicas, m_grid, n, rng, **power)
    rand_rows = [[row.m, row.q25, row.median, row.q75] for row in report.rows]
    curves = [
        _curve("randomized_tail_quartiles", rand_rows, {"n": n, "replicas": replicas, "seed": rng.seed}),
        _point_curve("deterministic_tail", m_grid, [row.deterministic for row in report.rows], {"n": n}),
    ]
    results = {
        "membership": {
            "lower": report.membership.lower,
            "upper": report.membership.upper,
            "divergent": report.membership.divergent,
        },
        "median_over_deterministic": [
            (row.median / row.deterministic) if row.deterministic > 0 else None for row in report.rows
        ],
        "seed": rng.seed,
        "stream": rng.stream,
    }
    return results, curves


def _run_doublesum(cfg: dict) -> tuple[dict, list]:
    rng = _parse_seed(cfg)
    count = _as_int(cfg.get("count", 1000), "count", low=1)
    max_len = _as_int(cfg.get("max_len", 512), "max_len", low=2)
    ratios = checks.double_sum_battery(rng.seed, rng.seed ^ 0xA5A5, rng.stream, count, max_len)
    max_ratio = max(ratios)
    argmax = ratios.index(max_ratio)
    curves = [_point_curve("double_sum_ratio_per_vector", range(len(ratios)), ratios, {"seed": rng.seed})]
    return {"max_ratio": max_ratio, "argmax_vector": argmax, "seed": rng.seed}, curves


def _run_demo(cfg: dict) -> tuple[dict, list]:
    preset = cfg.get("preset", "all")
    if not isinstance(preset, str):
        raise ConfigError("preset", f"expected a check name or 'all', got {preset!r}")
    registry = {check.name: check for check in checks.CHECKS}
    if preset == "all":
        selected = list(registry.values())
    elif preset in registry:
        selected = [registry[preset]]
    else:
        raise ConfigError("preset", f"unknown preset {preset!r}; choose from {sorted(registry)} or 'all'")
    results = []
    for check in selected:
        ok, detail = check.run("quick")
        results.append({"preset": check.name, "pass": ok, "detail": detail})
    return {"checks": results, "all_pass": all(c["pass"] for c in results)}, []


# the handler of each command and route and the top-level fields it reads;
# a command with several routes reads "route", whose default is listed first
_HANDLERS = {
    ("classify", "widom"): (_run_classify, ("symbol", "measure", "kind", "route", "classify")),
    ("classify", "carleson"): (_run_classify_carleson, ("symbol", "kind", "route", "n_grid")),
    ("sections", None): (_run_sections, ("symbol", "kind", "power", "n_grid", "m_grid")),
    ("rkt", None): (_run_rkt, ("symbol", "kind", "t_grid", "n")),
    ("moments", None): (_run_moments, ("measure", "n", "classify")),
    ("carleson", None): (_run_carleson, ("symbol", "n_grid", "delta_grid")),
    ("random-sim", None): (_run_random_sim, ("symbol", "dist", "normalized", "stream", "replicas", "n", "m_grid", "power")),
    ("doublesum", None): (_run_doublesum, ("stream", "count", "max_len")),
    ("demo", None): (_run_demo, ("preset",)),
}
COMMANDS = tuple(dict.fromkeys(command for command, _ in _HANDLERS))


def run(config: dict) -> dict:
    """Dispatch a validated config to its command handler; returns the report."""
    if not isinstance(config, dict):
        raise ConfigError("", "top-level config must be a JSON object")
    command = _require(config, "command")
    if command not in COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}; choose from {COMMANDS}")
    routes = [route for name, route in _HANDLERS if name == command]
    route = config.get("route", routes[0]) if len(routes) > 1 else None
    if route not in routes:
        raise ConfigError("route", f"expected one of {routes}, got {route!r}")
    handler, fields = _HANDLERS[command, route]
    # seed is allowed everywhere: --seed-override sets it for any command
    _fields(config, "config", ("command", "seed", *fields))
    start = time.perf_counter()
    results, curves = handler(config)
    report = {
        "tool": {"name": "dirspace", "version": __version__},
        "command": command,
        "config": config,
        "results": results,
        "curves": curves,
        "provenance": {
            "seed": config.get("seed"),
            "wall_time_s": round(time.perf_counter() - start, 6),
        },
    }
    return report


def serialize(report: dict, fmt: str) -> dict[str, bytes]:
    """Encode a report as {filename: bytes}.

    json: a single document. csv: one file per curve with header
    (x, lower, mid, upper), plus report.json for the scalar payload.

    report.json is one line with sorted keys and a trailing newline, written
    by json's C encoder (indent would force its pure-Python one).  It keeps
    the default ", " and ": " separators: perfbench's report digest strips
    the text '"wall_time_s": <value>', colon and space included.
    """
    if fmt not in ("json", "csv"):
        raise ConfigError("format", f"unknown format {fmt!r}; expected 'json' or 'csv'")
    out = {}
    if fmt == "csv":
        for curve in report.get("curves", []):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["x", "lower", "mid", "upper"])
            for row in curve["rows"]:
                writer.writerow([repr(v) for v in row])
            out[f"{curve['label']}.csv"] = buf.getvalue().encode()
    out["report.json"] = json.dumps(report, sort_keys=True).encode() + b"\n"
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dirspace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, default=None, help="JSON config file")
        cmd.add_argument("--out", type=Path, default=None, help="output directory")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--seed-override", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = json.load(handle)
            if not isinstance(config, dict):
                raise ConfigError("", "top-level config must be a JSON object")
        elif args.command == "demo":
            config = {}
        else:
            raise ConfigError("", "--config FILE is required for this command")
        config = dict(config)
        config["command"] = args.command
        if args.seed_override is not None:
            config["seed"] = args.seed_override
        report = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # JSONDecodeError subclasses ValueError, so it must be caught first
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: precondition failed: {exc}", file=sys.stderr)
        return 2

    payload = serialize(report, args.format)
    if args.out is None and args.format == "json":
        sys.stdout.write(payload["report.json"].decode())
    else:
        out_dir = args.out or Path(".")
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, data in payload.items():
            (out_dir / name).write_bytes(data)
        print(f"wrote {len(payload)} file(s) to {out_dir}", file=sys.stderr)

    if args.command == "demo":
        for check in report["results"]["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            print(f"[{status}] {check['preset']}: {check['detail']}", file=sys.stderr)
        if not report["results"]["all_pass"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
