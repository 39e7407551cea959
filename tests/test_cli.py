import copy
import json

import numpy as np
import pytest

from dirspace import checks, cli
from dirspace.measures import Density, MeasureSpec
from dirspace.stochastic import DistTag
from dirspace.symbols import SymbolSeq
from golden_reports import benchmark_jobs, perfbench_module


def run_config(config):
    return cli.run(dict(config))


def strip_wall_time(report):
    r = copy.deepcopy(report)
    r["provenance"].pop("wall_time_s", None)
    return r


# -- validation ---------------------------------------------------------------


def test_unknown_command():
    with pytest.raises(cli.ConfigError, match="command"):
        run_config({"command": "frobnicate"})


def test_missing_symbol_field_path():
    with pytest.raises(cli.ConfigError) as err:
        run_config({"command": "sections"})
    assert err.value.path == "symbol"


def test_classify_requires_exactly_one_input():
    cfg = {
        "command": "classify",
        "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
        "measure": {"named": "lebesgue"},
    }
    with pytest.raises(cli.ConfigError, match="exactly one"):
        run_config(cfg)


def test_bad_grid_rejected():
    cfg = {
        "command": "sections",
        "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
        "n_grid": [64, 64],
    }
    with pytest.raises(cli.ConfigError, match="increasing"):
        run_config(cfg)


def test_bad_symbol_kind_path():
    with pytest.raises(cli.ConfigError) as err:
        run_config({"command": "sections", "symbol": {"kind": "mystery"}})
    assert err.value.path == "symbol"


def test_stochastic_commands_require_seed():
    cfg = {
        "command": "random-sim",
        "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
        "replicas": 2,
        "n": 32,
        "m_grid": [8],
    }
    with pytest.raises(cli.ConfigError) as err:
        run_config(cfg)
    assert err.value.path == "seed"


def test_random_sim_rejects_zero_replicas():
    cfg = {
        "command": "random-sim",
        "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
        "replicas": 0,
        "n": 32,
        "m_grid": [8],
        "seed": 1,
    }
    with pytest.raises(cli.ConfigError) as err:
        run_config(cfg)
    assert err.value.path == "replicas"


POWERLOG = {"kind": "powerlog", "alpha": 1.0, "beta": 1.0}
NAN, INF = json.loads("NaN"), json.loads("Infinity")


@pytest.mark.parametrize(
    "config, path",
    [
        (
            {"command": "classify", "route": "carleson", "kind": "cesaro",
             "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0}},
            "kind",
        ),
        ({"command": "doublesum", "count": 5, "max_len": 1, "seed": 1}, "max_len"),
        ({"command": "doublesum", "count": 0, "max_len": 8, "seed": 1}, "count"),
        ({"command": "demo", "preset": ["x"]}, "preset"),
        ({"command": "sections", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 0.0},
          "n_grid": [8], "power": {"max_iter": 0}}, "power.max_iter"),
        ({"command": "sections", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 0.0},
          "n_grid": [8], "power": {"tol": 0.0}}, "power.tol"),
        ({"command": "carleson", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
          "n_grid": [-1, 4]}, "n_grid"),
        ({"command": "classify", "route": "carleson",
          "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0}, "n_grid": [-1, 4]}, "n_grid"),
        ({"command": "classify", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
          "classify": {"m_grid": [-4, 4]}}, "classify.m_grid"),
        ({"command": "classify", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
          "classify": {"nmax": -5}}, "classify.nmax"),
        ({"command": "classify", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
          "classify": {"nmaxx": 1024}}, "classify.nmaxx"),
        ({"command": "classify", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
          "classify": {"plateau_band": 0.2}}, "classify.plateau_band"),
        ({"command": "sections", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 0.0},
          "n_grid": [8], "power": {"maxiter": 10}}, "power.maxiter"),
        ({"command": "rkt", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
          "t_grid": [0.5], "n": -3}, "n"),
        ({"command": "moments", "measure": {"named": "lebesgue"}, "n": -1}, "n"),
        ({"command": "sections", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
          "n_grid": [0, 16]}, "n_grid"),
        ({"command": "sections", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
          "n_grid": [8, 16], "m_grid": [-1, 4]}, "m_grid"),
        ({"command": "random-sim", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
          "n": 16, "m_grid": [4, 20], "seed": 1}, "m_grid"),
        ({"command": "classify", "symbol": {"kind": "randomized", "base": POWERLOG, "normalized": "false",
                                            "seed": 1}}, "symbol.normalized"),
        ({"command": "classify", "symbol": {"kind": "randomized", "base": POWERLOG, "seed": 1.5}}, "symbol.seed"),
        ({"command": "classify", "symbol": {"kind": "randomized", "base": POWERLOG, "seed": True}}, "symbol.seed"),
        ({"command": "classify", "symbol": {"kind": "randomized", "base": {"kind": "powerlog", "alpha": 1.0},
                                            "seed": 1}}, "symbol.base.beta"),
        ({"command": "classify", "symbol": {"kind": "powerlog", "alpha": True, "beta": 1.0}}, "symbol.alpha"),
        ({"command": "classify", "symbol": {"kind": "powerlog", "alpha": "1", "beta": 1.0}}, "symbol.alpha"),
        ({"command": "classify", "symbol": {"kind": "lacunary", "rule": {"decay": 0.7}, "start": 1.7}},
         "symbol.start"),
        ({"command": "classify", "symbol": {"kind": "explicit", "values": [{"re": 1, "imag": 2}]}},
         "symbol.values[0].imag"),
        ({"command": "classify", "measure": {"atoms": [{"loc": "0.5", "mass": 1.0}]}}, "measure.atoms[0].loc"),
        ({"command": "classify", "symbol": {"kind": "moments", "measure": {"densities": [{"c": 1, "gama": 0.5}]}}},
         "symbol.measure.densities[0].gama"),
        # each route reads only its own fields
        ({"command": "classify", "symbol": POWERLOG, "n_grid": [8]}, "config.n_grid"),
        ({"command": "classify", "route": "carleson", "symbol": POWERLOG, "classify": {"nmax": 64}},
         "config.classify"),
        ({"command": "classify", "route": "carleson", "measure": {"named": "lebesgue"}}, "config.measure"),
        ({"command": "classify", "symbol": {"kind": "lacunary", "support": [1, 2, 3], "values": [1.0, 1.0, 1.0],
                                            "q": 50}}, "symbol.q"),
        # json.load reads NaN and Infinity; no number may enter non-finite
        ({"command": "classify", "symbol": {"kind": "powerlog", "alpha": NAN, "beta": 1.0}}, "symbol.alpha"),
        ({"command": "classify", "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": INF}}, "symbol.beta"),
        ({"command": "sections", "symbol": {"kind": "explicit", "values": [1.0, NAN]}, "n_grid": [4]},
         "symbol.values[1]"),
        ({"command": "sections", "symbol": {"kind": "explicit", "values": [{"re": 1.0, "im": NAN}]}, "n_grid": [4]},
         "symbol.values[0].im"),
        ({"command": "classify", "measure": {"atoms": [{"loc": 0.5, "mass": INF}]}}, "measure.atoms[0].mass"),
        ({"command": "sections", "symbol": POWERLOG, "n_grid": [8], "power": {"tol": NAN}}, "power.tol"),
        ({"command": "rkt", "symbol": POWERLOG, "t_grid": [0.5], "n": INF}, "n"),
    ],
)
def test_config_error_path(config, path):
    with pytest.raises(cli.ConfigError) as err:
        run_config(config)
    assert err.value.path == path


# a typo of a real field, last in each config: a misspelt field must not be
# ignored, leaving the command to run on that field's default
_TYPOS = {
    "classify": {"symbol": POWERLOG, "clasify": {"nmax": 8}},
    "sections": {"symbol": POWERLOG, "n_gird": [8]},
    "rkt": {"symbol": POWERLOG, "t_grid": [0.5], "nn": 8},
    "moments": {"measure": {"named": "lebesgue"}, "n": 8, "classfy": {"nmax": 8}},
    "carleson": {"symbol": POWERLOG, "n_grid": [8], "delta_gird": [0.25]},
    "random-sim": {"symbol": POWERLOG, "seed": 1, "n": 16, "replicsa": 2},
    "doublesum": {"seed": 1, "count": 2, "max_lne": 8},
    "demo": {"presets": "hilbert"},
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_unknown_top_level_field_exits_2(command, tmp_path, capsys):
    config = _TYPOS[command]
    typo = list(config)[-1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert f"config.{typo}" in capsys.readouterr().err


def test_random_sim_precondition_message():
    cfg = {
        "command": "random-sim",
        "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 0.0},
        "replicas": 2,
        "n": 32,
        "m_grid": [8],
        "seed": 1,
    }
    with pytest.raises(ValueError, match="Dirichlet space"):
        run_config(cfg)


def test_symbol_describe_roundtrip():
    for cfg, s in [
        ({"kind": "explicit", "values": [1.0, 0.5, 0.25]}, SymbolSeq.explicit([1.0, 0.5, 0.25])),
        ({"kind": "powerlog", "alpha": 1.0, "beta": 1.5, "scale": 2.0}, SymbolSeq.powerlog(1.0, 1.5, 2.0)),
        (
            {"kind": "moments", "measure": {"atoms": [{"loc": 0.5, "mass": 1.0}]}},
            SymbolSeq.from_measure(MeasureSpec.point_mass(0.5)),
        ),
        (
            {"kind": "lacunary", "support": [1, 4, 16], "values": [1.0, 0.5, 0.25]},
            SymbolSeq.lacunary([1, 4, 16], [1.0, 0.5, 0.25]),
        ),
        (
            {"kind": "lacunary", "start": 1, "q": 2.0, "rule": {"decay": 0.5, "power": 1.0}},
            SymbolSeq.lacunary_rule(1, 2.0, 0.5, 1.0),
        ),
        (
            {
                "kind": "randomized",
                "base": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
                "dist": "uniform-symmetric",
                "normalized": False,
                "seed": 3,
                "stream": 1,
            },
            SymbolSeq.randomized(
                SymbolSeq.powerlog(1.0, 1.0), DistTag("uniform-symmetric", normalized=False), 3, 1
            ),
        ),
    ]:
        idx = np.arange(40)
        assert np.array_equal(cli._parse_symbol(cfg).values(idx), s.values(idx))


def test_measure_describe_roundtrip():
    spec = MeasureSpec(atoms=[(0.25, 1.5)], densities=[Density(c=2.0, gamma=0.5, delta=1.0)])
    again = cli._parse_measure(
        {"atoms": [{"loc": 0.25, "mass": 1.5}], "densities": [{"c": 2.0, "gamma": 0.5, "delta": 1.0}]}
    )
    n = np.arange(30)
    assert np.allclose(spec.moments(n), again.moments(n))
    named = cli._parse_measure({"named": "lebesgue"})
    assert named.moment(9) == pytest.approx(0.1)


def test_benchmark_jobs_parse():
    # every job and warm-up of the benchmark workloads passes the config parser
    parsed = 0
    for name, job in [*benchmark_jobs(101), *benchmark_jobs(102)]:
        if "symbol" in job:
            assert isinstance(cli._parse_symbol(job["symbol"]), SymbolSeq), name
            parsed += 1
        if "measure" in job:
            assert isinstance(cli._parse_measure(job["measure"]), MeasureSpec), name
            parsed += 1
    assert parsed > 0


# -- commands -----------------------------------------------------------------


def test_classify_explicit_finite_symbol():
    report = run_config(
        {
            "command": "classify",
            "symbol": {"kind": "explicit", "values": [1.0, 0.5]},
            "kind": "hankel",
        }
    )
    assert report["results"]["verdict"] == "compact"
    profile = report["curves"][0]["rows"]
    assert all(row[1] == 0.0 and row[3] == 0.0 for row in profile)  # zero beyond support


def test_classify_measure_route():
    report = run_config({"command": "classify", "measure": {"named": "lebesgue"}})
    assert report["results"]["verdict"] == "unbounded"


def test_complex_explicit_symbol_via_re_im():
    report = run_config(
        {
            "command": "sections",
            "symbol": {"kind": "explicit", "values": [{"re": 1.0, "im": 2.0}, 0.5]},
            "n_grid": [4, 8],
        }
    )
    from dirspace import SymbolSeq, section_matrix

    ref = section_matrix(SymbolSeq.explicit([1.0 + 2.0j, 0.5]), "hankel", "dirichlet-section", 8)
    want = np.linalg.svd(ref, compute_uv=False)[0]
    assert report["results"]["top_section_norm"] == pytest.approx(want, rel=1e-9)


def test_sections_cesaro_kind():
    report = run_config(
        {
            "command": "sections",
            "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 0.0},
            "kind": "cesaro",
            "n_grid": [8, 16],
            "m_grid": [2, 4],
        }
    )
    assert len(report["curves"]) == 2


def test_non_integer_n_rejected():
    with pytest.raises(cli.ConfigError) as err:
        run_config(
            {
                "command": "rkt",
                "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
                "t_grid": [0.5],
                "n": 2.5,
            }
        )
    assert err.value.path == "n"


def test_classify_carleson_route():
    report = run_config(
        {
            "command": "classify",
            "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
            "route": "carleson",
            "n_grid": [32, 64, 128],
        }
    )
    assert report["results"]["applicability"] == "heuristic"
    assert report["curves"][0]["label"] == "xnorm_vs_degree"
    # the route gives the carleson command's verdict and x-norm sweep
    sweep = run_config({"command": "carleson", "symbol": POWERLOG, "n_grid": [32, 64, 128]})
    for key in ("verdict", "applicability", "notes"):
        assert report["results"][key] == sweep["results"][key]
    assert report["curves"][0] == sweep["curves"][0]


def test_sections_curves():
    report = run_config(
        {
            "command": "sections",
            "symbol": {"kind": "moments", "measure": {"named": "lebesgue"}},
            "n_grid": [16, 32, 64],
            "m_grid": [4, 8],
        }
    )
    labels = [c["label"] for c in report["curves"]]
    assert labels == ["section_norm_vs_n", "tail_norm_vs_m"]
    norms = [row[2] for row in report["curves"][0]["rows"]]
    assert norms == sorted(norms)
    assert report["results"]["n"] == 64


def test_rkt_cesaro_curves():
    report = run_config(
        {
            "command": "rkt",
            "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
            "kind": "cesaro",
            "t_grid": [0.1, 0.5],
            "n": 64,
        }
    )
    labels = [c["label"] for c in report["curves"]]
    assert "rkt_closed_form_vs_t" in labels
    assert report["results"]["statistic"] > 0


def test_moments_command():
    report = run_config({"command": "moments", "measure": {"named": "lebesgue"}, "n": 16})
    rows = report["curves"][0]["rows"]
    assert rows[9][2] == pytest.approx(0.1)
    assert report["results"]["total_mass"] == pytest.approx(1.0)


def test_carleson_command():
    report = run_config(
        {
            "command": "carleson",
            "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
            "n_grid": [32, 64],
            "delta_grid": [0.125, 0.5],
        }
    )
    labels = [c["label"] for c in report["curves"]]
    assert labels == ["xnorm_vs_degree", "restricted_vs_delta"]
    restr = [row[2] for row in report["curves"][1]["rows"]]
    assert restr[0] < restr[1]  # nondecreasing in delta


def test_carleson_command_reuses_the_verdicts_restricted_norm(monkeypatch):
    from dirspace import carleson

    deltas = []
    solve = carleson._carleson_solve

    def counted(b, n, delta=None):
        if delta is not None:
            deltas.append(delta)
        return solve(b, n, delta)

    monkeypatch.setattr(carleson, "_carleson_solve", counted)
    symbol = {"kind": "powerlog", "alpha": 1.0, "beta": 1.0}
    report = run_config(
        {"command": "carleson", "symbol": symbol, "n_grid": [16, 32], "delta_grid": [carleson.VANISH_DELTA, 0.5]}
    )
    assert sorted(deltas) == [carleson.VANISH_DELTA, 0.5]  # the annulus solve at VANISH_DELTA runs once
    b = carleson.symbol_poly(cli._parse_symbol(symbol), 32)
    assert report["curves"][1]["rows"][0][2] == carleson.restricted_carleson_norm(b, 32, carleson.VANISH_DELTA)


def test_random_sim_command_and_seed():
    cfg = {
        "command": "random-sim",
        "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
        "replicas": 3,
        "n": 64,
        "m_grid": [16, 32],
        "seed": 77,
    }
    report = run_config(cfg)
    assert report["results"]["seed"] == 77
    assert len(report["curves"][0]["rows"]) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_sim_small_n_default_cutoffs(n):
    # the default cutoffs n // 8, n // 4, n // 2 coincide for small n
    cfg = {"command": "random-sim", "symbol": POWERLOG, "replicas": 2, "n": n, "seed": 3}
    report = run_config(cfg)
    assert [row[0] for row in report["curves"][0]["rows"]] == sorted({n // 8, n // 4, n // 2})


def test_random_sim_honours_power_max_iter():
    cfg = {
        "command": "random-sim",
        "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
        "replicas": 3,
        "n": 64,
        "m_grid": [16, 32],
        "seed": 77,
    }
    full = run_config(cfg)["curves"][0]["rows"]
    capped = run_config(dict(cfg, power={"max_iter": 2}))["curves"][0]["rows"]
    assert capped != full
    # two power steps only reach a lower estimate of each tail norm
    for short, ref in zip(capped, full):
        assert all(a <= b * (1 + 1e-12) for a, b in zip(short[1:], ref[1:]))


@pytest.mark.xfail(
    reason="ROADMAP item 1a: tail_section_norm drops the converged flag, so a solve "
    "stopped at power.max_iter goes unreported",
    strict=True,
)
def test_random_sim_reports_unconverged_solves():
    cfg = {
        "command": "random-sim",
        "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
        "replicas": 3,
        "n": 64,
        "m_grid": [16, 32],
        "seed": 77,
        "power": {"max_iter": 2},
    }
    text = cli.serialize(run_config(cfg), "json")["report.json"].decode()
    assert "unconverged" in text


def test_doublesum_command():
    report = run_config({"command": "doublesum", "count": 50, "max_len": 64, "seed": 5})
    assert report["results"]["max_ratio"] <= 10.0
    assert len(report["curves"][0]["rows"]) == 50


def test_demo_all_passes():
    report = run_config({"command": "demo"})
    assert report["results"]["all_pass"]
    names = [c["preset"] for c in report["results"]["checks"]]
    assert names == [check.name for check in checks.CHECKS]
    assert len(names) == 12


def test_determinism_modulo_wall_time():
    random_sim = {
        "command": "random-sim",
        "symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0},
        "replicas": 2,
        "n": 32,
        "m_grid": [8],
        "seed": 9,
    }
    for cfg in (random_sim, {"command": "demo"}):
        r1 = strip_wall_time(run_config(cfg))
        r2 = strip_wall_time(run_config(cfg))
        b1 = cli.serialize(r1, "json")["report.json"]
        b2 = cli.serialize(r2, "json")["report.json"]
        assert b1 == b2


# -- serialization ------------------------------------------------------------


def test_serialize_json_roundtrip():
    report = run_config({"command": "moments", "measure": {"named": "lebesgue"}, "n": 4})
    data = cli.serialize(report, "json")["report.json"]
    assert json.loads(data) == report

    # the encoding perfbench relies on: one line, and a digest blind to the
    # wall time, which its regex finds only with the ": " separator
    assert data.endswith(b"\n") and data.count(b"\n") == 1
    other = copy.deepcopy(report)
    other["provenance"]["wall_time_s"] += 1.25
    digest = perfbench_module("worker")._digest
    assert digest(data) == digest(cli.serialize(other, "json")["report.json"])


def test_serialize_csv_line_counts():
    report = {
        "curves": [
            {"label": "empty", "meta": {}, "rows": []},
            {"label": "three", "meta": {}, "rows": [[1, 0, 0.5, 1], [2, 1, 1.5, 2], [3, 2, 2.5, 3]]},
        ]
    }
    files = cli.serialize(report, "csv")
    assert files["empty.csv"].decode().splitlines() == ["x,lower,mid,upper"]
    assert len(files["three.csv"].decode().splitlines()) == 4


def test_serialize_unknown_format():
    with pytest.raises(cli.ConfigError):
        cli.serialize({}, "xml")


# -- entry point ---------------------------------------------------------------


def test_main_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"symbol": {"kind": "mystery"}}))
    assert cli.main(["sections", "--config", str(cfg)]) == 2


def test_main_out_of_memory_exit_code(tmp_path, monkeypatch, capsys):
    # a size too large to allocate is a config error, not a failed check
    def exhausted(config):
        raise MemoryError("Unable to allocate 146. TiB for an array")

    _, fields = cli._HANDLERS["rkt", None]
    monkeypatch.setitem(cli._HANDLERS, ("rkt", None), (exhausted, fields))
    cfg = tmp_path / "rkt.json"
    cfg.write_text(json.dumps({"symbol": {"kind": "powerlog", "alpha": 1.0, "beta": 1.0}, "n": 1e13}))
    assert cli.main(["rkt", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "146. TiB" in err


def test_main_missing_config_exit_code(tmp_path, capsys):
    assert cli.main(["classify"]) == 2
    assert cli.main(["classify", "--config", str(tmp_path / "nonexistent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_main_invalid_json_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert cli.main(["classify", "--config", str(cfg)]) == 2
    assert "config is not valid JSON" in capsys.readouterr().err


def test_main_writes_files_and_seed_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "classify",  # argv's command wins
                "count": 20,
                "max_len": 32,
                "seed": 1,
            }
        )
    )
    out = tmp_path / "out"
    code = cli.main(
        [
            "doublesum",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--format",
            "csv",
            "--seed-override",
            "42",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_bytes())
    assert report["results"]["seed"] == 42
    assert report["command"] == "doublesum"
    assert (out / "double_sum_ratio_per_vector.csv").exists()


def test_main_demo_preset(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "widom-ladder"}))
    assert cli.main(["demo", "--config", str(cfg)]) == 0


def test_main_demo_failure_exit_code(tmp_path, monkeypatch):
    red = checks.Check(13, "always-red", "always red", lambda: (False, "synthetic failure"), {}, {})
    monkeypatch.setattr(checks, "CHECKS", [*checks.CHECKS, red])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "always-red"}))
    assert cli.main(["demo", "--config", str(cfg)]) == 1


def test_main_unknown_preset_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    for preset in ("nope", ["x"]):
        cfg.write_text(json.dumps({"preset": preset}))
        assert cli.main(["demo", "--config", str(cfg)]) == 2


def test_main_stdout_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": {"named": "lebesgue"}, "n": 4}))
    assert cli.main(["moments", "--config", str(cfg)]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["command"] == "moments"
