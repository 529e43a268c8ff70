import ast
import json
import re
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gplod import cli, gpe_minimizer
from gplod.cli import (
    CONFIG_KEYS,
    USAGE_ERROR,
    ConfigError,
    main,
    parse_config,
    study_config_from,
)

from helpers import serialize_config

LAPLACE_CONFIG = """
[domain]
xmin = 0
xmax = 1
ymin = 0
ymax = 1

[potential]
kind = constant
value = 0.0

[flow]
tau = 0.5

[solve]
space = fine_fem
cells = 64
beta = 0
"""


def test_parse_round_trip():
    resolved = parse_config(LAPLACE_CONFIG)
    again = parse_config(serialize_config(resolved))
    assert resolved == again


def test_parse_overrides():
    resolved = parse_config(LAPLACE_CONFIG, ["solve.beta=2.5", "flow.tau=0.25"])
    assert resolved["solve"]["beta"] == "2.5"
    assert resolved["flow"]["tau"] == "0.25"
    with pytest.raises(Exception):
        parse_config(LAPLACE_CONFIG, ["notakeyvalue"])


def test_study_config_round_trip(tmp_path):
    text = (
        "[domain]\nxmin=0\nxmax=1\nymin=0\nymax=1\n"
        "[potential]\nkind = constant\nvalue = 1.0\n"
        "[flow]\ntau = 0.5\n"
        "[study]\nbeta = 5\nreference_cells = 32\nh_sequence = 0.25 0.125\n"
    )
    resolved = parse_config(text)
    cfg1 = study_config_from(resolved, tmp_path)
    cfg2 = study_config_from(parse_config(serialize_config(resolved)), tmp_path)
    assert cfg1.beta == cfg2.beta
    assert cfg1.H_sequence == cfg2.H_sequence
    assert cfg1.reference_cells == cfg2.reference_cells
    assert cfg1.domain == cfg2.domain


def test_solve_laplace(tmp_path, capsys):
    config = tmp_path / "laplace.cfg"
    config.write_text(LAPLACE_CONFIG)
    code = main(["solve", "--config", str(config), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    lam = float(re.search(r"eigenvalue:\s+(\S+)", captured.out).group(1))
    assert abs(lam - 2 * np.pi**2) <= 0.01 * 2 * np.pi**2


def test_solve_missing_config(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "nope.cfg" in captured.err


def test_solve_override_recorded(tmp_path, capsys):
    config = tmp_path / "laplace.cfg"
    config.write_text(LAPLACE_CONFIG)
    code = main(
        [
            "solve",
            "--config",
            str(config),
            "--out",
            str(tmp_path),
            "solve.cells=16",
            "solve.beta=1.0",
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "solve_manifest.json").read_text())
    assert "solve.beta=1.0" in manifest["overrides"]
    assert manifest["resolved_config"]["solve"]["beta"] == "1.0"


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    config = tmp_path / "laplace.cfg"
    config.write_text(LAPLACE_CONFIG)
    code = main(
        [
            "solve",
            "--config",
            str(config),
            "--out",
            str(tmp_path),
            "solve.cells=16",
            "solve.beta=100",
            "flow.max_steps=2",
        ]
    )
    assert code == 2


def test_solve_records_residual_and_inner_iterations(tmp_path, capsys):
    code = main(["solve", "--config", "smoke", "--out", str(tmp_path)])
    assert code == 0
    res = json.loads((tmp_path / "solve_manifest.json").read_text())["results"]
    assert res["converged"]
    assert res["residual"] <= 1e-10 * res["residual_scale"]
    assert len(res["inner_iterations"]) == res["iterations"]
    assert 0 < res["newton_steps"] < res["iterations"]
    assert min(res["inner_iterations"]) >= 1
    assert re.search(rf"^newton steps: {res['newton_steps']}$", capsys.readouterr().out, re.M)


def test_cold_checkerboard_solve_reaches_the_residual_target(tmp_path, capsys):
    # checkerboard_reduced's LOD space (H = 1/2, m = 529) over a coarser fine
    # mesh; a stop on |dE|/tau alone ended this solve at a relative
    # residual of 4.7e-6
    code = main(
        ["solve", "--config", "checkerboard_reduced", "--out", str(tmp_path), "--no-cache",
         "solve.cells=96"]
    )
    assert code == 0
    res = json.loads((tmp_path / "solve_manifest.json").read_text())["results"]
    assert res["converged"] and res["pre_iterations"] > 0 and res["newton_steps"] > 0
    assert res["residual"] <= 1e-10 * res["residual_scale"]
    capsys.readouterr()


def test_solve_manifest_records_both_flow_phases(tmp_path, capsys):
    # LOD from the Thomas-Fermi profile: coarse-density steps, then exact steps
    code = main(
        ["solve", "--config", "smoke", "--out", str(tmp_path), "--no-cache",
         "solve.space=lod", "solve.coarse_cells=8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    res = json.loads((tmp_path / "solve_manifest.json").read_text())["results"]
    assert re.search(rf"^coarse-density steps: {res['pre_iterations']} ", out, re.M)
    assert re.search(rf"^coarse-density newton steps: {res['pre_newton_steps']}$", out, re.M)
    assert res["converged"] and res["iterations"] >= 1
    assert len(res["inner_iterations"]) == res["iterations"]
    # the coarse-density phase, too, ends with Newton steps
    assert 0 < res["pre_newton_steps"] < res["pre_iterations"]
    assert len(res["pre_inner_iterations"]) == res["pre_iterations"]
    assert min(res["pre_inner_iterations"]) >= 1
    assert res["pre_flow_s"] > 0.0 and res["flow_s"] > 0.0
    # a P1 space has one phase
    code = main(["solve", "--config", "smoke", "--out", str(tmp_path)])
    assert code == 0
    res = json.loads((tmp_path / "solve_manifest.json").read_text())["results"]
    assert res["pre_iterations"] == 0 and res["pre_inner_iterations"] == []
    assert res["pre_newton_steps"] == 0
    assert res["pre_flow_s"] == 0.0
    assert "coarse-density" not in capsys.readouterr().out


def test_solve_inner_solve_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gpe_minimizer, "_PCG_MAX_ITERATIONS", 1)
    code = main(
        ["solve", "--config", "harmonic", "--out", str(tmp_path), "solve.space=fine_fem",
         "solve.cells=16"]
    )
    assert code == 2
    assert "inner PCG solve failed at step 1" in capsys.readouterr().err
    res = json.loads((tmp_path / "solve_manifest.json").read_text())["results"]
    assert not res["converged"]


def test_solve_dumps(tmp_path):
    config = tmp_path / "laplace.cfg"
    config.write_text(LAPLACE_CONFIG)
    sol = tmp_path / "solution.txt"
    mesh = tmp_path / "mesh.txt"
    code = main(
        [
            "solve",
            "--config",
            str(config),
            "--out",
            str(tmp_path),
            "--dump-solution",
            str(sol),
            "--dump-mesh",
            str(mesh),
            "solve.cells=8",
        ]
    )
    assert code == 0
    rows = [ln.split() for ln in sol.read_text().strip().splitlines()]
    assert len(rows) == 81  # (8+1)^2 nodes as "x y value"
    assert all(len(r) == 3 for r in rows)
    assert "# nodes 81" in mesh.read_text()


def test_smoke_study_under_ten_seconds(tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(["study", "--config", "smoke", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 0
    assert elapsed < 10.0
    assert (tmp_path / "study.csv").exists()
    assert (tmp_path / "study_baseline.csv").exists()
    assert (tmp_path / "study.gp").exists()
    assert (tmp_path / "study_manifest.json").exists()
    assert "fitted rates" in captured.out


def test_study_manifest_reproducibility(tmp_path, capsys):
    code = main(["study", "--config", "smoke", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "study_manifest.json").read_text())
    # rerun from the manifest's resolved config alone
    config2 = tmp_path / "from_manifest.cfg"
    config2.write_text(serialize_config(manifest["resolved_config"]))
    out2 = tmp_path / "rerun"
    code = main(["study", "--config", str(config2), "--out", str(out2)])
    assert code == 0
    capsys.readouterr()

    def strip_wall(path):
        return [
            ",".join(ln.split(",")[:-1]) if not ln.startswith("#") and "," in ln else ln
            for ln in path.read_text().strip().splitlines()
        ]

    assert strip_wall(tmp_path / "study.csv") == strip_wall(out2 / "study.csv")


def test_correctors_cache_cycle(tmp_path, capsys):
    # one lookup per run, of the finest H; the coarser H is derived from it
    code = main(["correctors", "--config", "smoke", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "correctors_manifest.json").read_text())
    assert manifest["cache"] == {"hits": 0, "misses": 1}
    assert [r["source"] for r in manifest["correctors"]] == ["built", "derived"]

    code = main(["correctors", "--config", "smoke", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "correctors_manifest.json").read_text())
    assert manifest["cache"] == {"hits": 1, "misses": 0}
    capsys.readouterr()

    # corrupt the finest H's file: it is rebuilt with a warning, not an error
    finest = Path(manifest["outputs"][0])
    finest.write_bytes(finest.read_bytes()[:50])
    with pytest.warns(UserWarning, match="rebuilding correctors"):
        code = main(["correctors", "--config", "smoke", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "correctors_manifest.json").read_text())
    assert manifest["cache"] == {"hits": 0, "misses": 1}


def test_correctors_manifest_lists_its_own_cache_files(tmp_path, capsys):
    # a shared cache directory holds another potential's file too; the
    # manifest records only the file of each H of this run
    cache = tmp_path / "cache"
    for value in ("1.0", "2.0"):
        code = main(
            ["correctors", "--config", "smoke", "--out", str(tmp_path / value),
             f"study.cache_dir={cache}", "study.h_sequence=0.25", f"potential.value={value}"]
        )
        assert code == 0
    capsys.readouterr()
    assert len(list(cache.glob("correctors_*.npz"))) == 2
    manifest = json.loads((tmp_path / "2.0" / "correctors_manifest.json").read_text())
    assert len(manifest["outputs"]) == 1
    assert Path(manifest["outputs"][0]).exists()


def test_correctors_builds_once_and_caches_every_h(tmp_path, capsys, monkeypatch):
    # one build, of the finest H; the coarser H's file is derived and saved,
    # so an LOD solve at the coarser H is a cache hit
    from gplod import lod_space

    built = []
    build = lod_space.compute_correctors

    def counted(hierarchy, *args):
        built.append(hierarchy.coarse.cells_per_side)
        return build(hierarchy, *args)

    monkeypatch.setattr(lod_space, "compute_correctors", counted)
    assert main(["correctors", "--config", "smoke", "--out", str(tmp_path)]) == 0
    assert built == [8]
    assert len(list((tmp_path / "correctors").glob("correctors_*.npz"))) == 2
    code = main(
        ["solve", "--config", "smoke", "--out", str(tmp_path), "solve.space=lod",
         "solve.coarse_cells=4"]
    )
    assert code == 0
    assert built == [8]
    manifest = json.loads((tmp_path / "solve_manifest.json").read_text())
    assert manifest["cache"] == {"hits": 1, "misses": 0}
    capsys.readouterr()


def test_solve_reads_study_cache_dir(tmp_path, capsys):
    # an LOD solve finds the correctors that `correctors` cached in study.cache_dir
    cache = tmp_path / "cache"
    code = main(
        ["correctors", "--config", "smoke", "--out", str(tmp_path / "o1"),
         f"study.cache_dir={cache}", "study.h_sequence=0.125"]
    )
    assert code == 0
    out = tmp_path / "o2"
    code = main(
        ["solve", "--config", "smoke", "--out", str(out), "solve.space=lod",
         "solve.coarse_cells=8", f"study.cache_dir={cache}"]
    )
    assert code == 0
    manifest = json.loads((out / "solve_manifest.json").read_text())
    assert manifest["cache"] == {"hits": 1, "misses": 0}
    assert not (out / "correctors").exists()
    capsys.readouterr()


def test_study_reads_the_finest_correctors_that_correctors_cached(tmp_path, capsys, monkeypatch):
    # `correctors` caches every H; a study then loads the finest H's file,
    # one hit, and derives the coarser space from it with no build
    from gplod import lod_space

    code = main(["correctors", "--config", "smoke", "--out", str(tmp_path)])
    assert code == 0

    def no_build(*args):
        raise AssertionError("compute_correctors called")

    monkeypatch.setattr(lod_space, "compute_correctors", no_build)
    code = main(["study", "--config", "smoke", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "study_manifest.json").read_text())
    assert manifest["cache"] == {"hits": 1, "misses": 0}
    capsys.readouterr()


def test_study_bad_config_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("[domain]\nxmin=0\nxmax=1\nymin=0\nymax=1\n")
    code = main(["study", "--config", str(config), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


def test_preset_resolution(capsys):
    code = main(["study", "--config", "definitely_not_a_preset", "--out", "/tmp"])
    captured = capsys.readouterr()
    assert code == 1
    assert "not found" in captured.err


@pytest.mark.parametrize(
    "overrides",
    [
        ["solve.bogus_key=1"],
        ["solve.localization_radius=3"],
        ["nosuch.key=1"],
        ["study.warm_start=true"],
        ["study.relative_errors=true"],
        ["flow.initial_guess=thomas_fermi"],
    ],
)
def test_unknown_config_key_rejected(tmp_path, capsys, overrides):
    code = main(["solve", "--config", "smoke", "--out", str(tmp_path), *overrides])
    captured = capsys.readouterr()
    assert code == USAGE_ERROR
    assert overrides[0].split("=")[0] in captured.err


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("solve", ["solve.space=lod", "solve.coarse_cells=0"]),
        ("solve", ["solve.space=coarse_fem", "solve.coarse_cells=12"]),
        ("solve", ["solve.cells=0"]),
        ("study", ["study.h_sequence=abc"]),
        ("study", ["study.h_sequence=0.3"]),
        ("solve", ["flow.tau=-1"]),
        ("study", ["study.reference_tol_energy=x"]),
        ("solve", ["solve.beta=-1"]),
        ("study", ["flow.max_steps=0"]),
        ("solve", ["flow.max_steps=-5"]),
        # squares of side 0.2 on a fine mesh of 32 cells: not a union of cells
        ("solve", ["potential.kind=checkerboard", "potential.square_side=0.2"]),
        ("study", ["potential.kind=checkerboard", "potential.square_side=0.2"]),
        ("correctors", ["flow.tau=-1"]),
    ],
)
def test_config_value_errors_exit_1(tmp_path, capsys, command, overrides):
    code = main([command, "--config", "smoke", "--out", str(tmp_path), *overrides])
    assert code == USAGE_ERROR
    assert re.search(r"^error: ", capsys.readouterr().err, re.M)
    assert not list(tmp_path.glob("*_manifest.json"))


def test_unknown_config_key_in_file_rejected():
    with pytest.raises(ConfigError, match="flow.tua"):
        parse_config(LAPLACE_CONFIG.replace("tau = 0.5", "tua = 0.5"))


@pytest.mark.parametrize("preset", ["harmonic", "checkerboard", "checkerboard_reduced", "smoke"])
def test_presets_load(preset):
    text = resources.files("gplod.presets").joinpath(f"{preset}.cfg").read_text()
    study_config_from(parse_config(text))


def _keys_read_by_cli():
    """(section, key) of every config read in ``cli.py``: the calls
    ``_get(resolved, section, key, ...)`` and
    ``resolved.get(section, {}).get(key, ...)``."""
    read = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "_get":
            read.add((node.args[1].value, node.args[2].value))
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "attr", None) == "get"
        ):
            read.add((func.value.args[0].value, node.args[0].value))
    return read


def test_config_keys_match_readme_schema():
    # the config surface cannot drift: a removed key is rejected, README
    # documents exactly CONFIG_KEYS, and cli.py reads every one of them
    for text, overrides in (
        (LAPLACE_CONFIG.replace("tau = 0.5", "tau = 0.5\ntol_energy = 1e-10"), ()),
        (LAPLACE_CONFIG, ["flow.tol_energy=1e-10"]),
    ):
        with pytest.raises(ConfigError, match="unknown config key.*flow.tol_energy"):
            parse_config(text, overrides)
    assert _keys_read_by_cli() == {(s, k) for s, keys in CONFIG_KEYS.items() for k in keys}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Config schema", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    documented = {}
    section = None
    for line in block.splitlines():
        text = line.split("#", 1)[0]
        match = re.match(r"\s*\[(\w+)\](.*)", text)
        if match:
            section, text = match.groups()
        keys = text.split("=", 1)[0].split()
        if keys:
            documented.setdefault(section, set()).update(keys)
    assert documented == {k: set(v) for k, v in CONFIG_KEYS.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["study", "--out", "x"],  # --config missing
        ["study", "--config", "smoke", "--absolute"],  # removed flag
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == USAGE_ERROR
    assert "error" in capsys.readouterr().err


def test_manifests_record_peak_rss(tmp_path, capsys):
    # each command's manifest holds exactly these keys, peak memory among them
    common = {
        "tool", "version", "command", "timestamp", "config_path", "overrides",
        "resolved_config", "outputs", "peak_rss_mb", "cache",
    }
    expected = {
        "solve": common | {"results"},
        "study": common | {"reference", "rows", "baseline_rows", "invalid", "workers"},
        "correctors": common | {"correctors"},
    }
    for name, keys in expected.items():
        assert main([name, "--config", "smoke", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
        assert set(manifest) == keys
        assert manifest["command"] == name
        peak = manifest["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0
    solve = json.loads((tmp_path / "solve_manifest.json").read_text())
    assert set(solve["results"]) == {
        "energy", "eigenvalue", "iterations", "newton_steps", "inner_iterations", "flow_s",
        "pre_iterations", "pre_newton_steps", "pre_inner_iterations", "pre_flow_s", "converged",
        "residual", "residual_scale",
    }
    study = json.loads((tmp_path / "study_manifest.json").read_text())
    assert set(study["reference"]) == {
        "energy", "eigenvalue", "n_dofs", "steps", "newton_steps", "inner_iterations",
        "residual", "residual_scale",
    }
    # every reported state carries its residual, at most the solves' target
    rows = study["rows"] + study["baseline_rows"]
    assert study["rows"] and study["baseline_rows"]  # the smoke preset runs both
    assert all(set(row) == {"H", "steps", "newton_steps", "residual", "residual_scale"} for row in rows)
    for record in [solve["results"], study["reference"]] + rows:
        assert record["residual"] <= 1e-10 * record["residual_scale"]
    capsys.readouterr()


def test_study_no_cache_creates_no_correctors_dir(tmp_path, capsys):
    code = main(["study", "--config", "smoke", "--out", str(tmp_path), "--no-cache"])
    assert code == 0
    assert not (tmp_path / "correctors").exists()
    manifest = json.loads((tmp_path / "study_manifest.json").read_text())
    assert manifest["cache"] == {"hits": 0, "misses": 1}
    assert manifest["reference"]["inner_iterations"] >= manifest["reference"]["steps"]


def test_lod_dump_solution_maps_the_state_to_the_fine_mesh_once(tmp_path, capsys, monkeypatch):
    # the dump writes the fine coefficients minimize already formed; in an
    # LOD space each to_fine is a solve with A
    calls = []
    original = gpe_minimizer.DiscreteSpace.to_fine

    def counted(self, c):
        calls.append(self.n_dofs)
        return original(self, c)

    monkeypatch.setattr(gpe_minimizer.DiscreteSpace, "to_fine", counted)
    sol = tmp_path / "solution.txt"
    code = main(
        ["solve", "--config", "smoke", "--out", str(tmp_path), "--no-cache",
         "--dump-solution", str(sol), "solve.space=lod", "solve.coarse_cells=8"]
    )
    assert code == 0
    assert len(calls) == 1
    assert len(sol.read_text().splitlines()) == 33 * 33
    capsys.readouterr()


def test_coarse_fem_solve_with_cells_wider_than_the_squares(tmp_path, capsys):
    # squares of side 1/4 align with the fine mesh (h = 1/32) but not with
    # the coarse one (H = 1/2): the coarse space restricts the fine operators
    code = main(
        ["solve", "--config", "smoke", "--out", str(tmp_path), "potential.kind=checkerboard",
         "potential.square_side=0.25", "solve.space=coarse_fem", "solve.coarse_cells=2"]
    )
    assert code == 0
    res = json.loads((tmp_path / "solve_manifest.json").read_text())["results"]
    assert res["converged"]
    capsys.readouterr()
