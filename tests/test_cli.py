"""Experiment harness: subcommands, artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kaclab
from kaclab import svg
from kaclab.cli import _wasserstein1, main
from kaclab.normalization import NormalizationLadder


def read_csv_numbers(path):
    with open(path) as fh:
        header = fh.readline()
        assert header.startswith("# config_hash=")
        fh.readline()  # column names
        return fh.read()


def test_gap_emits_exact_value(tmp_path):
    out = tmp_path / "gap"
    assert main(["gap", "--out", str(out), "--seed", "1"]) == 0
    body = read_csv_numbers(out / "gap.csv")
    assert "1.25" in body


def test_gap_beyond_small_n(tmp_path):
    # few Rayleigh samples: they hold samples x N doubles several times over
    out = tmp_path / "gap"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_list": [16, 256], "rayleigh_samples": 2000}))
    assert main(["gap", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "gap.csv", delimiter=",", skiprows=2)
    assert list(rows[:, 0]) == [16, 256]
    np.testing.assert_allclose(rows[:, 1], rows[:, 2], rtol=1e-12, atol=0)


def test_gap_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gap", "--out", str(a), "--seed", "7"])
    main(["gap", "--out", str(b), "--seed", "7"])
    assert read_csv_numbers(a / "gap.csv") == read_csv_numbers(b / "gap.csv")


def _loaded_by(module: str, names: list, then: str = "pass") -> list:
    """Those of names that a fresh interpreter has loaded after importing
    module and running the statements then."""
    src = os.path.dirname(os.path.dirname(kaclab.__file__))
    code = (f"import sys, {module}; {then}; "
            f"print(' '.join(m for m in {names!r} if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return run.stdout.split()


def test_cli_import_loads_no_scipy_signal():
    # scipy.signal adds about half a second and 24 MB to every start-up,
    # and scipy.fft serves nothing in kaclab, whose ladder transforms are
    # numpy.fft's; scipy.special (about a quarter second) serves nothing
    # either, since the ladder integrates the pdf and log_sphere_area uses
    # math.lgamma, so the import loads no scipy module at all
    assert _loaded_by("kaclab.cli", ["scipy", "scipy.signal", "scipy.fft",
                                     "scipy.special"]) == []


def test_cli_import_loads_no_spline_stack():
    # scipy's sparse and LAPACK modules load with the first limit-equation
    # geometry; a run that never builds one never pays for them
    assert _loaded_by("kaclab.cli", ["scipy.interpolate", "scipy.optimize",
                                     "scipy.spatial", "scipy.sparse",
                                     "scipy.linalg"]) == []


def test_limit_equation_loads_no_spline_stats_or_special_module():
    # the knot vector and the B-spline design matrices are built in numpy
    # (scipy.interpolate alone adds about 50 MB and half a second), and
    # neither the solver nor the production reads scipy.stats or
    # scipy.special
    then = ("from kaclab.densities import mixture; "
            "f = mixture(0.25); s = kaclab.limit_eq.LimitSolver(f, 0.5); "
            "[s.step(0.01) for _ in range(3)]; "
            "kaclab.limit_eq.limit_production(s.vals, s.v, 0.5); "
            "import numpy as np; v = np.linspace(0.0, f.v_max, 513); "
            "kaclab.limit_eq.cercignani_ratio(f(v), v)")
    assert _loaded_by("kaclab.limit_eq", ["scipy.interpolate", "scipy.stats",
                                          "scipy.special"], then) == []


def test_inequalities_import_loads_no_limit_equation():
    # the N-particle inequality layer does not depend on the limit PDE
    assert _loaded_by("kaclab.inequalities",
                      ["kaclab.limit_eq", "scipy.interpolate"]) == []


def test_entropy_scan_gaussian_is_flat(tmp_path):
    out = tmp_path / "scan"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"kind": "gaussian"},
                               "n_list": [8, 16]}))
    assert main(["entropy-scan", "--config", str(cfg),
                 "--out", str(out)]) == 0
    rows = np.loadtxt(out / "entropy_scan.csv", delimiter=",", skiprows=2)
    assert np.max(np.abs(rows[:, 1])) < 1e-5


def test_clt_subcommand(tmp_path):
    out = tmp_path / "clt"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"kind": "mixture", "delta": 0.25},
                               "n_list": [16, 32]}))
    assert main(["clt", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "clt.svg").exists()
    rows = np.loadtxt(out / "clt.csv", delimiter=",", skiprows=2)
    assert rows[0, 2] > rows[1, 2] > 0


def test_clt_schedule_uses_its_beta(tmp_path):
    rows = {}
    for beta in (0.05, 0.15):
        out = tmp_path / f"clt{beta}"
        cfg = tmp_path / f"cfg{beta}.json"
        cfg.write_text(json.dumps({"generator": {"kind": "schedule",
                                                 "beta": beta},
                                   "n_list": [64]}))
        assert main(["clt", "--config", str(cfg), "--out", str(out)]) == 0
        rows[beta] = np.loadtxt(out / "clt.csv", delimiter=",", skiprows=2)
    # the hot weight N^{2 beta - 1} shrinks as beta falls, so Sigma^2 grows
    assert rows[0.05][1] > rows[0.15][1]
    assert rows[0.05][2] != rows[0.15][2]


def test_cercignani_subcommand(tmp_path):
    out = tmp_path / "cerc"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"deltas": [0.1, 0.03]}))
    assert main(["cercignani", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "cercignani.csv", delimiter=",", skiprows=2)
    assert rows[0, 1] > rows[1, 1]


# (subcommand, config text): each must exit 2 with a JSON error
INVALID_CONFIGS = [
    ("gap", "{not json"),
    ("gap", "[1, 2]"),
    ("clt", '{"generator": "mixture"}'),
    ("pde", '{"delta": 1.5}'),
    ("villani", '{"n_list": []}'),
    ("inequality", '{"n_list": []}'),
    ("clt", '{"n_list": []}'),
    ("entropy-scan", '{"n_list": []}'),
    ("chaos", '{"n_list": []}'),
    ("villani", '{"n_list": "64"}'),
    ("clt", '{"n_list": [16, "32"]}'),
    ("entropy-scan", '{"gamma": "0.5", "n_list": [16]}'),
    ("villani", '{"gamma": true, "n_list": [16]}'),
    ("entropy-scan",
     '{"generator": {"kind": "mixture", "delta": "0.25"}, "n_list": [16]}'),
    ("cercignani", '{"deltas": ["0.1"]}'),
    ("gap", '{"n_list": [2]}'),
    ("villani", '{"generator": {"kind": "gaussian"}, "n_list": [16]}'),
    ("pde", '{"dt": 0.0}'),
    ("pde", '{"t_final": 0.0}'),
    ("pde", '{"dt": -0.01}'),
    ("chaos", '{"t_final": 0.0}'),
    ("cercignani", '{"nodes": 1}'),
    ("gap", '{"rayleigh_samples": 0}'),
    ("pde", '{"v_max": 0.0}'),
    ("chaos", '{"v_max": -8.0}'),
    ("pde", '{"nodes": 3}'),
    ("clt", '{"n_list": [true, 2]}'),
    ("cercignani", '{"deltas": []}'),
    ("clt", '{"generator": {"kind": "gaussian", "variance": 2.0}}'),
    ("villani",
     '{"generator": {"kind": "gaussian", "variance": 2.0}, "n_list": [16]}'),
    ("cercignani", '{"gamma": -3.0}'),
    ("cercignani", '{"gamma": 2.5}'),
    ("cercignani", '{"nodes": 3}'),
    ("pde", '{"record_every": -1}'),
    ("villani", '{"n_list": [64]}'),
    ("villani", '{"n_list": [64, 64]}'),
    ("inequality", '{"c1": 0.0}'),
    ("inequality", '{"c1": -1.0}'),
    ("inequality", '{"gamma": 1.0}'),
    ("entropy-scan", '{"generator": {"kind": "schedule"}, "n_list": [16]}'),
    ("clt", '{"j": 5}'),
    # a schedule's beta must lie in (0, 1/6)
    ("villani",
     '{"generator": {"kind": "schedule", "beta": -1.0}, "n_list": [16, 32]}'),
    ("villani",
     '{"generator": {"kind": "schedule", "beta": 0.3}, "n_list": [16, 32]}'),
    # non-finite numbers, and literals that overflow to them
    ("pde", '{"t_final": Infinity}'),
    ("chaos", '{"t_final": Infinity}'),
    ("pde", '{"dt": Infinity}'),
    ("pde", '{"v_max": Infinity}'),
    ("pde", '{"v_max": 1e999}'),
    ("villani", '{"gamma": NaN, "n_list": [16, 32]}'),
    ("entropy-scan", '{"gamma": NaN, "n_list": [16]}'),
    ("chaos", '{"w1_tolerance": NaN}'),
    ("inequality", '{"beta": NaN}'),
    ("chaos", '{"w1_tolerance": -Infinity}'),
    # the production's rate exponent must lie in [0, 1]
    ("villani", '{"gamma": 5.0, "n_list": [16, 32]}'),
    ("villani", '{"gamma": -2.0, "n_list": [16, 32]}'),
    ("entropy-scan", '{"gamma": 5.0, "n_list": [16]}'),
    ("entropy-scan", '{"gamma": -2.0, "n_list": [16]}'),
]


def test_invalid_config_exit_code(tmp_path, capsys):
    # a rejected config exits 2 with a JSON error and writes no table
    for k, (command, text) in enumerate(INVALID_CONFIGS):
        bad = tmp_path / f"bad{k}.json"
        bad.write_text(text)
        out = tmp_path / f"o{k}"
        code = main([command, "--config", str(bad), "--out", str(out)])
        assert code == 2, (command, text)
        assert "error" in json.loads(capsys.readouterr().err), (command, text)
        assert not list(out.glob("*.csv")), (command, text)


def test_inequality_checks_gamma_and_c1_before_any_ladder(tmp_path,
                                                        monkeypatch):
    def unbuilt(self, *args, **kwargs):
        raise RuntimeError("a ladder was built")

    monkeypatch.setattr(NormalizationLadder, "__init__", unbuilt)
    for k, text in enumerate(['{"gamma": 1.0}', '{"c1": 0.0}']):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(text)
        assert main(["inequality", "--config", str(cfg), "--out",
                     str(tmp_path / f"o{k}")]) == 2, text


def test_wasserstein1_is_scipys():
    # chaos's W1 is scipy.stats.wasserstein_distance bit for bit, with ties
    # and unsorted points, on weighted and on equal-weight points
    from scipy.stats import wasserstein_distance

    rng = np.random.default_rng(21)
    u = np.round(rng.normal(size=2000), 2)
    v = rng.permutation(np.linspace(-8.0, 8.0, 513))
    w = rng.random(v.size)
    assert _wasserstein1(u, v, w) == wasserstein_distance(u, v, v_weights=w)
    assert _wasserstein1(u, v, np.ones(v.size)) == wasserstein_distance(u, v)


# (subcommand, config text): each must exit 3 with a JSON error
UNRESOLVED_CONFIGS = [
    # D_gamma >= 0, but four nodes give D = -5.36 at delta = 0.1
    ("cercignani", '{"nodes": 4}'),
]


def test_unresolved_config_exit_code(tmp_path, capsys):
    # a tolerance failure exits 3 with a JSON error and writes no table
    for k, (command, text) in enumerate(UNRESOLVED_CONFIGS):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(text)
        out = tmp_path / f"o{k}"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code == 3, (command, text)
        assert "error" in json.loads(capsys.readouterr().err), (command, text)
        assert not list(out.glob("*.csv")), (command, text)


# (subcommand, config text, message, table): valid configs whose numbers
# fail the subcommand's own final check; each writes its table, then exits
# 3 with a JSON tolerance error
FAILED_CHECK_CONFIGS = [
    # the rescaled inequality's constant c1 is far too large at every N
    ("inequality", '{"c1": 1e6}',
     "inequality failed at N = [32, 64, 128, 256]", "rescaled.csv"),
    # the W1 bridge at N = 512 reads 0.0090
    ("chaos", '{"w1_tolerance": 1e-6}', "W1 bridge too wide: 0.0090",
     "chaos.csv"),
]


def test_failed_check_exit_code(tmp_path, capsys):
    for k, (command, text, message, table) in enumerate(FAILED_CHECK_CONFIGS):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(text)
        out = tmp_path / f"o{k}"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code == 3, (command, text)
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": message, "kind": "tolerance"}, (command, text)
        assert (out / table).is_file(), (command, text)


def test_unknown_generator_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"kind": "cauchy"}}))
    assert main(["clt", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2


def test_villani_small_sweep(tmp_path):
    out = tmp_path / "vil"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"kind": "mixture", "delta": 0.25},
                               "n_list": [16, 32, 64]}))
    assert main(["villani", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "villani.json").read_text())
    assert "slope" in payload and payload["slope"] < 0


def test_pde_short_run(tmp_path):
    out = tmp_path / "pde"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_final": 0.2, "dt": 0.01, "nodes": 129,
                               "v_max": 8.0}))
    assert main(["pde", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "pde.csv", delimiter=",", skiprows=2)
    assert np.all(np.diff(rows[:, 1]) <= 1e-12)


def test_log_axis_draws_values_below_its_floor(tmp_path):
    # a production that decays to rounding noise, or to zero, still draws
    path = tmp_path / "floor.svg"
    svg.line_chart(path, [("D", [0.0, 1.0, 2.0], [1.0, 1e-20, 0.0])],
                   title="", x_label="t", y_label="D", log_x=False,
                   log_y=True)
    text = path.read_text()
    assert "nan" not in text and "inf" not in text


def test_artifacts_carry_provenance(tmp_path):
    out = tmp_path / "prov"
    main(["gap", "--out", str(out), "--seed", "42"])
    with open(out / "gap.csv") as fh:
        first = fh.readline()
    assert "seed=42" in first
