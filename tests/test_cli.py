import filecmp
import json
import os
import pathlib
import subprocess
import sys

import pytest

import banddim.cli
from banddim.cli import main
from banddim.errors import SizeLimitError
from banddim.space import generate_space, read_json


def write_config(tmp_path, **overrides):
    cfg = {"space": {"family": "interval", "length": 40},
           "cover": {"brick_side": 10},
           "r": 2, "fiber": 1, "test_scale": 1,
           "stages": ["space", "cover", "witness", "check", "hat", "extract", "report"],
           "out_dir": str(tmp_path / "out"), "seed": 0}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# A fresh interpreter runs every stage and lists the top-level modules it
# loaded beyond its startup set, apart from the standard library.
IMPORT_PROBE = """
import json, sys
start = set(sys.modules)
from banddim.cli import main
code = main(["run", "--config", sys.argv[1]])
loaded = {name.partition(".")[0] for name in set(sys.modules) - start}
print(json.dumps([code, sorted(loaded - set(sys.stdlib_module_names))]))
"""


def test_run_imports_only_numpy(tmp_path):
    """The runtime needs numpy and the standard library only: a new runtime
    import must be declared, and the hat stays numpy only.  numpy's compiled
    extensions register ``cython_runtime`` and ``_cython_*`` modules."""
    path, _ = write_config(tmp_path)
    src = pathlib.Path(banddim.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(path)], env=env,
                          capture_output=True, text=True, check=True)
    code, extra = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert [m for m in extra if m not in ("banddim", "numpy", "cython_runtime")
            and not m.startswith("_cython_")] == []


def test_full_pipeline_run(tmp_path, capsys):
    path, cfg = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = cfg["out_dir"]
    for name in ("space.json", "cover.json", "check_report.json",
                 "hat_report.json", "extraction_report.json",
                 "extracted_cover.json", "report.json"):
        assert os.path.isfile(os.path.join(out, name)), name
    report = read_json(os.path.join(out, "report.json"))
    conditions = report["artifacts"]["check"]["conditions"]
    assert len(conditions) == 6
    assert all(row["verdict"] for row in conditions)
    assert report["artifacts"]["extract"]["bound_ok"]


def test_single_point_run(tmp_path):
    path, cfg = write_config(tmp_path, space={"family": "interval", "length": 1},
                             cover={"brick_side": 5}, r=1,
                             stages=["space", "cover", "witness", "check",
                                     "hat", "extract", "report"])
    assert main(["run", "--config", str(path)]) == 0
    report = read_json(os.path.join(cfg["out_dir"], "report.json"))
    assert report["artifacts"]["extract"]["S"] == 1


def test_bad_brick_side_is_stage_failure(tmp_path):
    path, _ = write_config(tmp_path, cover={"brick_side": 4})
    assert main(["run", "--config", str(path)]) == 3


def test_unknown_config_key_is_usage_error(tmp_path):
    path, _ = write_config(tmp_path, bogus=1)
    assert main(["run", "--config", str(path)]) == 2


def test_stage_list_must_be_prefix(tmp_path):
    path, _ = write_config(tmp_path, stages=["space", "witness"])
    assert main(["run", "--config", str(path)]) == 2


def test_reports_are_deterministic(tmp_path):
    p1, c1 = write_config(tmp_path, out_dir=str(tmp_path / "a"))
    assert main(["run", "--config", str(p1)]) == 0
    p2, c2 = write_config(tmp_path, out_dir=str(tmp_path / "b"))
    assert main(["run", "--config", str(p2)]) == 0
    a = pathlib.Path(c1["out_dir"], "report.json").read_bytes()
    b = pathlib.Path(c2["out_dir"], "report.json").read_bytes()
    assert a == b


def test_subcommand_pipeline(tmp_path):
    sp = tmp_path / "space.json"
    cov = tmp_path / "cover.json"
    assert main(["space", "gen", "--family", "interval", "--length", "30",
                 "--out", str(sp)]) == 0
    assert main(["cover", "gen", "--space", str(sp), "--r", "2",
                 "--brick-side", "10", "--out", str(cov)]) == 0
    assert main(["cover", "check", "--space", str(sp), "--cover", str(cov),
                 "--r", "6", "--out", str(tmp_path / "cc.json")]) == 0
    assert read_json(tmp_path / "cc.json")["passed"]
    wdir = tmp_path / "w"
    assert main(["witness", "build", "--space", str(sp), "--cover", str(cov),
                 "--r", "2", "--fiber", "1", "--test-scale", "1",
                 "--out", str(wdir)]) == 0
    assert main(["witness", "check", "--witness", str(wdir),
                 "--out", str(tmp_path / "check.json")]) == 0
    assert main(["extract", "--witness", str(wdir),
                 "--out", str(tmp_path / "ext.json"),
                 "--cover-out", str(tmp_path / "ec.json")]) == 0
    assert read_json(tmp_path / "ext.json")["bound_ok"]
    assert main(["report", "--inputs", str(tmp_path / "check.json"),
                 str(tmp_path / "ext.json"),
                 "--out", str(tmp_path / "summary.json")]) == 0


def test_sweep_subcommand(tmp_path):
    sp = tmp_path / "space.json"
    assert main(["space", "gen", "--family", "interval", "--length", "60",
                 "--out", str(sp)]) == 0
    assert main(["sweep", "--space", str(sp), "--r", "2", "4", "--fiber", "1",
                 "--test-scale", "1", "--out", str(tmp_path / "sweep.json")]) == 0
    doc = read_json(tmp_path / "sweep.json")
    assert doc["non_increasing"]
    assert [row["r"] for row in doc["rows"]] == [2, 4]


def test_sweep_subcommand_grid(tmp_path):
    """On a 2-D grid the sweep builds each cover at 3r with run's auto-brick
    side, 12 at r = 1."""
    sp = tmp_path / "space.json"
    assert main(["space", "gen", "--family", "grid", "--sides", "6", "6",
                 "--metric", "linf", "--out", str(sp)]) == 0
    assert main(["sweep", "--space", str(sp), "--r", "1", "--fiber", "1",
                 "--out", str(tmp_path / "sweep.json")]) == 0
    doc = read_json(tmp_path / "sweep.json")
    assert [(row["r"], row["brick_side"]) for row in doc["rows"]] == [(1, 12)]


def test_missing_file_is_error(tmp_path):
    assert main(["witness", "check", "--witness", str(tmp_path / "nothing")]) == 3


def test_test_set_extension(tmp_path):
    import numpy as np
    from banddim.operators import BandOperator, save_operator
    from banddim.space import generate_space
    from banddim.witness import load_witness

    sp_path = tmp_path / "space.json"
    cov_path = tmp_path / "cover.json"
    assert main(["space", "gen", "--family", "interval", "--length", "30",
                 "--out", str(sp_path)]) == 0
    assert main(["cover", "gen", "--space", str(sp_path), "--r", "2",
                 "--brick-side", "10", "--out", str(cov_path)]) == 0
    sp = generate_space("interval", length=30)
    extra = BandOperator.partial_translation(sp, 1, [(x + 2, x) for x in range(28)])
    op_path = tmp_path / "extra.json"
    save_operator(extra, op_path)
    wdir = tmp_path / "w"
    assert main(["witness", "build", "--space", str(sp_path), "--cover", str(cov_path),
                 "--r", "2", "--fiber", "1", "--test-scale", "1",
                 "--test-op", str(op_path), "--out", str(wdir)]) == 0
    back = load_witness(wdir)
    got = back.test_set[-1]
    assert np.allclose(got.to_dense(), extra.to_dense())


def test_cover_check_rejects_non_finite_space(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": [0, 1],
                                 "dist": [[0, float("inf")], [float("inf"), 0]]}))
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"r": 1.0, "families": [[[0], [1]]]}))
    assert main(["cover", "check", "--space", str(space), "--cover", str(cover),
                 "--r", "1"]) == 3


def test_null_test_scale_with_test_ops_uses_r(tmp_path):
    import numpy as np
    from banddim.operators import BandOperator, save_operator
    from banddim.space import generate_space
    from banddim.witness import load_witness

    sp = generate_space("interval", length=40)
    extra = BandOperator.partial_translation(sp, 1, [(x + 2, x) for x in range(38)])
    op_path = tmp_path / "extra.json"
    save_operator(extra, op_path)
    path, cfg = write_config(tmp_path, test_scale=None, test_ops=[str(op_path)])
    assert main(["run", "--config", str(path)]) == 0
    back = load_witness(os.path.join(cfg["out_dir"], "witness"))
    assert np.array_equal(back.test_set[-1].to_dense(), extra.to_dense())


def _same_files(a, b):
    if os.path.isdir(a):
        cmp = filecmp.dircmp(a, b)
        _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
        return (not cmp.left_only and not cmp.right_only and not cmp.common_dirs
                and not mismatch and not errors)
    return filecmp.cmp(a, b, shallow=False)


# Per case: the run config overrides, and the space gen and cover gen
# arguments that write the same files.  A grid witness at r needs its cover
# at 3r, which run's auto-brick builds with side 12 on a 2-D grid at r = 1.
CHAIN_CASES = {
    "interval": ({}, ["--family", "interval", "--length", "40"],
                 ["--r", "2", "--brick-side", "10"]),
    "grid": ({"space": {"family": "grid", "sides": [6, 6], "metric": "linf"},
              "cover": "auto-brick", "r": 1},
             ["--family", "grid", "--sides", "6", "6", "--metric", "linf"],
             ["--r", "3", "--brick-side", "12"]),
}


def subcommand_chain(case, out):
    """The subcommand calls that redo the case's ``run`` in directory out."""
    overrides, space_args, cover_args = CHAIN_CASES[case]
    r = overrides.get("r", 2)
    j = lambda name: os.path.join(out, name)
    return [
        ["space", "gen", *space_args, "--out", j("space.json")],
        ["cover", "gen", "--space", j("space.json"), *cover_args,
         "--out", j("cover.json")],
        ["cover", "check", "--space", j("space.json"), "--cover", j("cover.json"),
         "--r", str(3 * r), "--out", j("cover_check.json")],
        ["witness", "build", "--space", j("space.json"), "--cover", j("cover.json"),
         "--r", str(r), "--fiber", "1", "--test-scale", "1", "--out", j("witness")],
        ["witness", "check", "--witness", j("witness"), "--out", j("check_report.json")],
        ["witness", "hat", "--witness", j("witness"), "--seed", "0",
         "--out", j("hat_report.json")],
        ["extract", "--witness", j("witness"), "--cover-out", j("extracted_cover.json"),
         "--out", j("extraction_report.json")],
        ["report", "--inputs", j("check_report.json"), j("extraction_report.json"),
         "--out", j("summary.json")],
    ]


@pytest.fixture(scope="module", params=sorted(CHAIN_CASES))
def run_and_chain(request, tmp_path_factory):
    """The directories written by one ``run`` and by its subcommand chain."""
    tmp_path = tmp_path_factory.mktemp(request.param)
    path, cfg = write_config(tmp_path, **CHAIN_CASES[request.param][0])
    assert main(["run", "--config", str(path)]) == 0
    sub = tmp_path / "sub"
    sub.mkdir()
    for argv in subcommand_chain(request.param, str(sub)):
        assert main(argv) == 0, argv
    return cfg["out_dir"], str(sub)


def test_run_matches_subcommand_chain(run_and_chain):
    run_dir, sub = run_and_chain
    for name in ("space.json", "cover.json", "witness", "check_report.json",
                 "hat_report.json", "extraction_report.json", "extracted_cover.json"):
        assert _same_files(os.path.join(run_dir, name), os.path.join(sub, name)), name


def test_every_json_file_is_canonical(run_and_chain):
    """Every file is written in the one form: sorted keys, no spaces, a
    trailing newline."""
    paths = [p for d in run_and_chain for p in pathlib.Path(d).rglob("*.json")]
    assert len(paths) > 20
    for p in paths:
        text = p.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":")) + "\n", p


def test_hat_falsifier_on_readme_witness(tmp_path):
    """Epsilon 0.1 declared on the README interval witness: condition 2
    (worst 0.087) and the build pass, and the hat reports a failure, its
    approximation and multiplicativity bounds below the measured defects."""
    path, cfg = write_config(tmp_path, space={"family": "interval", "length": 150},
                             cover={"brick_side": 30}, r=5, fiber=2, epsilon=0.1,
                             stages=["space", "cover", "witness", "check", "hat"])
    assert main(["run", "--config", str(path)]) == 0
    check = read_json(os.path.join(cfg["out_dir"], "check_report.json"))
    assert check["epsilon"] == 0.1
    assert all(row["verdict"] for row in check["conditions"])
    assert 0.08 < check["conditions"][1]["worst"] < 0.1
    hat = read_json(os.path.join(cfg["out_dir"], "hat_report.json"))
    assert hat["passed"] is False
    assert hat["approximation_worst"] > hat["approximation_bound"]
    assert hat["multiplicativity_worst"] > hat["multiplicativity_bound"]


def test_parser_survives_usage_error(tmp_path, capsys):
    """The parser is built once per process: a usage error (exit 2) followed
    by valid calls in one process writes the same files as the same calls in
    fresh processes."""
    chain = subcommand_chain("interval", "{out}")[:4]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    assert main(["space", "gen", "--length", "not-a-number", "--out", "x.json"]) == 2
    assert main(["witness", "hat"]) == 2
    for argv in chain:
        assert main([a.format(out=here) for a in argv]) == 0
    src = pathlib.Path(banddim.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    for argv in chain:
        subprocess.run([sys.executable, "-m", "banddim.cli",
                        *[a.format(out=fresh) for a in argv]], env=env, check=True)
    names = ["space.json", "cover.json", "cover_check.json", "witness"]
    assert sorted(os.listdir(here)) == sorted(os.listdir(fresh)) == sorted(names)
    for name in names:
        assert _same_files(here / name, fresh / name), name


def test_benchmark_patch_points(tmp_path, monkeypatch):
    """The benchmark's traced run wraps banddim functions where callers look
    them up; a moved or renamed function breaks ``install`` or the counts."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    import tracing

    original = banddim.cli.check_witness
    path, _ = write_config(tmp_path, stages=["space", "cover", "witness", "check", "hat",
                                             "extract"])
    sub = tmp_path / "sub"
    sub.mkdir()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert main(["run", "--config", str(path)]) == 0
        for argv in subcommand_chain("interval", str(sub)):
            assert main(argv) == 0, argv
    finally:
        tracer.uninstall()
    assert {"witness.build", "witness.check", "witness.hat", "extract.translation",
            "space.save", "space.load", "cover.brick", "witness.save",
            "witness.load"} <= {s[0] for s in tracer.spans}
    # the per-layer identities metric needs exactly one span per extraction
    assert tracer.count("extract.identities") == 2
    assert tracer.calls["operators.norm"] > 0
    assert tracer.counts["witness.bundle_bytes"] > 0
    assert banddim.cli.check_witness is original


def test_every_exported_name_resolves():
    import banddim
    assert len(set(banddim.__all__)) == len(banddim.__all__)
    assert [name for name in banddim.__all__ if not hasattr(banddim, name)] == []


def test_bundle_window_listing_a_point_twice_exits_3(tmp_path, capsys):
    path, cfg = write_config(tmp_path, stages=["space", "cover", "witness"])
    assert main(["run", "--config", str(path)]) == 0
    bundle = pathlib.Path(cfg["out_dir"]) / "witness"
    doc = json.loads((bundle / "witness.json").read_text())
    points = doc["summands"][0]["points"]
    points[1] = points[0]
    (bundle / "witness.json").write_text(json.dumps(doc))
    for command in ("check", "hat"):
        report = tmp_path / f"{command}.json"
        assert main(["witness", command, "--witness", str(bundle),
                     "--out", str(report)]) == 3
        assert not report.exists()
        assert "distinct points" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--samples=0", "--samples=-3", "--seed=-1"])
def test_invalid_hat_arguments_exit_3(tmp_path, capsys, flag):
    path, cfg = write_config(tmp_path, stages=["space", "cover", "witness"])
    assert main(["run", "--config", str(path)]) == 0
    out = pathlib.Path(cfg["out_dir"])
    assert main(["witness", "hat", "--witness", str(out / "witness"), flag,
                 "--out", str(out / "hat.json")]) == 3
    assert not (out / "hat.json").exists()
    assert f"hat {flag[2:flag.index('=')]} must be" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_invalid_run_seed_fails_hat_stage(tmp_path, capsys, seed):
    path, cfg = write_config(tmp_path, stages=["space", "cover", "witness", "check",
                                               "hat"], seed=seed)
    assert main(["run", "--config", str(path)]) == 3
    assert not (pathlib.Path(cfg["out_dir"]) / "hat_report.json").exists()
    assert "stage 'hat' failed: hat seed must be" in capsys.readouterr().err


def test_bad_fiber_is_stage_failure(tmp_path, capsys):
    sp = tmp_path / "space.json"
    cov = tmp_path / "cover.json"
    assert main(["space", "gen", "--family", "interval", "--length", "30",
                 "--out", str(sp)]) == 0
    assert main(["cover", "gen", "--space", str(sp), "--r", "2",
                 "--brick-side", "10", "--out", str(cov)]) == 0
    for fiber in ("0", "-1"):
        capsys.readouterr()
        assert main(["witness", "build", "--space", str(sp), "--cover", str(cov),
                     "--r", "2", "--fiber", fiber, "--out", str(tmp_path / "w")]) == 3
        err = capsys.readouterr().err
        assert "fiber dimension must be an integer >= 1" in err
        assert "Traceback" not in err
    for fiber in (0, -1, 1.5, "2", True):
        path, _ = write_config(tmp_path, fiber=fiber)
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "stage 'witness' failed: fiber dimension" in err
        assert "Traceback" not in err


def test_fiber_too_large_for_memory_exits_3(tmp_path, capsys):
    """A fiber whose identity blocks would not fit in memory fails the
    witness stage with ``SizeLimitError`` before anything of it is written;
    it used to end in a MemoryError traceback."""
    path, cfg = write_config(tmp_path, space={"family": "interval", "length": 12},
                             fiber=1000000)
    out = pathlib.Path(cfg["out_dir"])
    _assert_exit_3(["run", "--config", str(path)], capsys, "stage 'witness' failed: a dense",
                   out / "witness", out / "check_report.json")
    assert sorted(p.name for p in out.iterdir()) == ["cover.json", "space.json"]


@pytest.mark.parametrize("space", [{"family": "interval", "length": 1000000},
                                   {"family": "grid", "sides": [100000, 100000]}],
                         ids=["interval", "grid"])
def test_space_too_large_for_memory_exits_3(tmp_path, capsys, space):
    """A generated space whose distance matrices would not fit in memory
    fails the space stage with ``SizeLimitError`` before anything of it is
    built; an interval of 10**6 points used to end in a MemoryError
    traceback asking for 7.28 TiB."""
    with pytest.raises(SizeLimitError, match="the distance matrices of"):
        generate_space(**space)
    path, cfg = write_config(tmp_path, space=space)
    out = pathlib.Path(cfg["out_dir"])
    _assert_exit_3(["run", "--config", str(path)], capsys,
                   "stage 'space' failed: the distance matrices of", out / "space.json")


@pytest.mark.parametrize("key, stage", [("space.file", "space"), ("cover.file", "cover"),
                                        ("test_ops", "witness")])
def test_run_names_the_key_of_a_missing_file(tmp_path, capsys, key, stage):
    """A space, cover or test operator file that does not exist fails its
    stage with exit 3, naming the stage and the config key; it used to exit
    3 with the bare ``FileNotFoundError``, naming neither."""
    missing = str(tmp_path / "nope.json")
    value = [missing] if key == "test_ops" else {"file": missing}
    path, cfg = write_config(tmp_path, **{key.split(".")[0]: value})
    out = pathlib.Path(cfg["out_dir"])
    _assert_exit_3(["run", "--config", str(path)], capsys,
                   f"stage '{stage}' failed: config key '{key}' names a missing file: "
                   f"[Errno 2] No such file or directory: {missing!r}",
                   out / "witness", out / "check_report.json")


def test_bad_space_spec_is_usage_error(tmp_path, capsys):
    for spec, key in (({"family": "torus", "length": 5}, "'torus'"),
                      ({"family": ["grid"], "sides": [3]}, "['grid']"),
                      ({"family": "interval"}, "'length'"),
                      ({"family": "grid", "metric": "l1"}, "'sides'")):
        path, _ = write_config(tmp_path, space=spec)
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and key in err
    for family, key in (("interval", "'length'"), ("grid", "'sides'")):
        assert main(["space", "gen", "--family", family,
                     "--out", str(tmp_path / "space.json")]) == 2
        assert key in capsys.readouterr().err
    assert not (tmp_path / "space.json").exists()


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", True])
def test_invalid_check_tolerance_exits_3(tmp_path, capsys, tol):
    """A check tolerance that is not a finite real number >= 0 exits 3; a
    bool in the config used to run as 1.0 (``--tol`` parses a float, so it
    cannot pass one)."""
    path, cfg = write_config(tmp_path, stages=["space", "cover", "witness"])
    assert main(["run", "--config", str(path)]) == 0
    out = pathlib.Path(cfg["out_dir"])
    if tol is not True:
        assert main(["witness", "check", "--witness", str(out / "witness"),
                     f"--tol={tol}", "--out", str(out / "check.json")]) == 3
        assert not (out / "check.json").exists()
        assert "tolerance" in capsys.readouterr().err

    path, cfg = write_config(tmp_path, stages=["space", "cover", "witness", "check"],
                             tolerances={"check": tol if tol is True else float(tol)})
    assert main(["run", "--config", str(path)]) == 3
    assert not (out / "check_report.json").exists()
    assert "stage 'check' failed" in capsys.readouterr().err


BUNDLE_COMMANDS = {"check": ["witness", "check"], "hat": ["witness", "hat"],
                   "extract": ["extract"]}


def _interval_bundle(tmp_path, fiber=1):
    """A ``witness build`` bundle on interval 24 at r=2, brick side 8."""
    sp, cov = tmp_path / "space.json", tmp_path / "cover.json"
    if not sp.exists():
        assert main(["space", "gen", "--family", "interval", "--length", "24",
                     "--out", str(sp)]) == 0
        assert main(["cover", "gen", "--space", str(sp), "--r", "2",
                     "--brick-side", "8", "--out", str(cov)]) == 0
    bundle = tmp_path / f"witness{fiber}"
    assert main(["witness", "build", "--space", str(sp), "--cover", str(cov),
                 "--r", "2", "--fiber", str(fiber), "--out", str(bundle)]) == 0
    return bundle


# The edit that replaces a file's document by a list holding it.
IN_LIST = "in-list"


def _edit_json(path, edit):
    """Edit the file's document in place, or put it in a list for IN_LIST."""
    doc = json.loads(path.read_text())
    if edit == IN_LIST:
        doc = [doc]
    else:
        edit(doc)
    path.write_text(json.dumps(doc))


def _assert_exit_3(argv, capsys, message, *unwritten):
    """The command exits 3 with the message, no traceback and none of the
    given files written."""
    capsys.readouterr()
    assert main(argv) == 3, argv
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, (argv, err)
    for path in unwritten:
        assert not path.exists(), path


def _assert_commands_exit_3(bundle, capsys, message):
    for command, argv in BUNDLE_COMMANDS.items():
        report = bundle.parent / f"{command}.json"
        _assert_exit_3(argv + ["--witness", str(bundle), "--out", str(report)], capsys,
                       message, report)


@pytest.mark.parametrize("key, value, message", [
    ("d", 0, "outside range(d + 1)"),
    ("d", "1", "dimension d must be an integer"),
    ("d", 1.0, "dimension d must be an integer"),
    ("d", True, "dimension d must be an integer"),
    ("d", -1, "dimension d must be an integer"),
    ("epsilon", "0.5", "epsilon must be a finite real number"),
    ("epsilon", None, "epsilon must be a finite real number"),
    ("epsilon", float("nan"), "epsilon must be a finite real number"),
])
def test_bundle_with_bad_dimension_or_epsilon_exits_3(tmp_path, capsys, key, value,
                                                      message):
    """A bundle whose d is not an integer >= 0 covering its colors, or whose
    epsilon is not a finite real number, fails every command with exit 3."""
    bundle = _interval_bundle(tmp_path)
    _edit_json(bundle / "witness.json", lambda doc: doc.update({key: value}))
    _assert_commands_exit_3(bundle, capsys, message)


def test_bundle_with_missing_coefficient_exits_3(tmp_path, capsys):
    bundle = _interval_bundle(tmp_path)
    _edit_json(bundle / "witness.json", lambda doc: doc["coefficients"].pop())
    _assert_commands_exit_3(bundle, capsys, "one coefficient per window")


def test_bundle_with_coefficient_of_other_fiber_exits_3(tmp_path, capsys):
    fiber1 = _interval_bundle(tmp_path, fiber=1)
    bundle = _interval_bundle(tmp_path, fiber=2)
    (bundle / "coeff_000.json").write_text((fiber1 / "coeff_000.json").read_text())
    _assert_commands_exit_3(bundle, capsys, "propagation-zero band operator with fiber 2")


def test_bundle_with_off_diagonal_coefficient_exits_3(tmp_path, capsys):
    bundle = _interval_bundle(tmp_path)

    def add_block(doc):
        first, second = doc["blocks"][:2]
        doc["blocks"].append(dict(first, y=second["x"]))
    _edit_json(bundle / "coeff_000.json", add_block)
    _assert_commands_exit_3(bundle, capsys, "propagation-zero band operator with fiber 1")


SCALE_MESSAGE = "scale must be a finite real number >= 0"
EPSILON_MESSAGE = "epsilon must be a finite real number"


@pytest.mark.parametrize("r", ["nan", "inf", "-1"])
def test_commands_reject_bad_scale(tmp_path, capsys, r):
    """A scale that is not a finite real number >= 0 exits 3 before anything
    is written; -1 used to pass cover check, and extract wrote a cover of
    singletons at r = -1."""
    bundle = _interval_bundle(tmp_path)
    sp, cov = bundle.parent / "space.json", bundle.parent / "cover.json"
    out, cover_out = tmp_path / "out.json", tmp_path / "cover_out.json"
    _assert_exit_3(["cover", "gen", "--space", str(sp), "--r", r, "--brick-side", "8",
                    "--out", str(out)], capsys, SCALE_MESSAGE, out)
    _assert_exit_3(["cover", "check", "--space", str(sp), "--cover", str(cov), "--r", r,
                    "--out", str(out)], capsys, SCALE_MESSAGE, out)
    _assert_exit_3(["extract", "--witness", str(bundle), "--r", r, "--cover-out",
                    str(cover_out), "--out", str(out)], capsys, SCALE_MESSAGE, out, cover_out)


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_witness_build_rejects_bad_epsilon(tmp_path, capsys, epsilon):
    """A declared epsilon is held to the bundle rule before anything is
    written; a NaN used to be saved and rejected only on loading."""
    bundle = _interval_bundle(tmp_path)
    out = tmp_path / "bad_witness"
    _assert_exit_3(["witness", "build", "--space", str(bundle.parent / "space.json"),
                    "--cover", str(bundle.parent / "cover.json"), "--r", "2", "--fiber", "1",
                    "--epsilon", epsilon, "--out", str(out)], capsys, EPSILON_MESSAGE, out)


@pytest.mark.parametrize("key, value, message", [
    ("test_scale", "x", f"a {SCALE_MESSAGE}"),
    ("epsilon", float("nan"), f"witness {EPSILON_MESSAGE}"),
    ("epsilon", "abc", f"witness {EPSILON_MESSAGE}"),
    ("epsilon", [1], f"witness {EPSILON_MESSAGE}"),
    ("epsilon", True, f"witness {EPSILON_MESSAGE}"),
], ids=["test_scale-string", "epsilon-nan", "epsilon-string", "epsilon-list",
        "epsilon-bool"])
def test_run_rejects_bad_witness_inputs(tmp_path, capsys, key, value, message):
    path, cfg = write_config(tmp_path, stages=["space", "cover", "witness", "check"],
                             **{key: value})
    out = pathlib.Path(cfg["out_dir"])
    _assert_exit_3(["run", "--config", str(path)], capsys,
                   f"stage 'witness' failed: {message}",
                   out / "witness", out / "check_report.json")


@pytest.mark.parametrize("r", [float("nan"), "2"], ids=["nan", "string"])
def test_grid_run_rejects_bad_scale(tmp_path, capsys, r):
    """A grid's auto-brick reads the scale before the cover is built; it used
    to end in a ValueError (NaN) or TypeError (string) traceback."""
    path, cfg = write_config(tmp_path, space={"family": "grid", "sides": [6, 6]},
                             cover="auto-brick", r=r)
    out = pathlib.Path(cfg["out_dir"])
    _assert_exit_3(["run", "--config", str(path)], capsys,
                   f"stage 'cover' failed: a {SCALE_MESSAGE}", out / "cover.json")


@pytest.mark.parametrize("cover", ["x", 5, None, [], {}, {"brick_side": 4, "zzz": 1},
                                   {"file": 3}, {"file": "c.json", "brick_side": 4}],
                         ids=["string", "number", "null", "list", "empty", "extra-key",
                              "file-not-a-path", "file-and-brick"])
def test_run_rejects_malformed_cover(tmp_path, capsys, cover):
    """Only "auto-brick", {"file": path} and {"brick_side": s} name a cover;
    anything else is a usage error before any stage runs (it used to run as
    auto-brick or brick)."""
    path, cfg = write_config(tmp_path, cover=cover)
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config key 'cover'"), err
    assert not os.path.exists(cfg["out_dir"])


@pytest.mark.parametrize("space", [{"file": 7}, "x"], ids=["file-descriptor", "string"])
def test_run_rejects_malformed_space(tmp_path, capsys, space):
    """A space is {"file": path} or a generator spec object; an integer file
    used to open that file descriptor, and a string ended in an
    AttributeError traceback."""
    path, cfg = write_config(tmp_path, space=space)
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config key 'space'"), err
    assert not os.path.exists(cfg["out_dir"])


@pytest.mark.parametrize("command, value", [
    ("cover-gen", "nan"), ("cover-gen", "inf"), ("space-gen", "nan"), ("space-gen", "inf"),
    ("run-brick-side", "x"), ("run-brick-side", float("nan")),
    ("run-spacing", float("nan")),
], ids=["cover-gen-nan", "cover-gen-inf", "space-gen-nan", "space-gen-inf",
        "run-brick-side-string", "run-brick-side-nan", "run-spacing-nan"])
def test_non_finite_sizes_exit_3(tmp_path, capsys, command, value):
    """A brick side or spacing that is not a positive finite number exits 3
    before its file is written; each used to end in a traceback from
    ``Fraction``."""
    out = tmp_path / "out.json"
    if command == "cover-gen":
        bundle = _interval_bundle(tmp_path)
        _assert_exit_3(["cover", "gen", "--space", str(bundle.parent / "space.json"),
                        "--r", "2", "--brick-side", value, "--out", str(out)],
                       capsys, "brick_side must be a positive finite number", out)
    elif command == "space-gen":
        _assert_exit_3(["space", "gen", "--length", "8", "--spacing", value,
                        "--out", str(out)],
                       capsys, "spacing must be a positive finite number", out)
    elif command == "run-brick-side":
        path, cfg = write_config(tmp_path, cover={"brick_side": value})
        run_out = pathlib.Path(cfg["out_dir"])
        _assert_exit_3(["run", "--config", str(path)], capsys,
                       "stage 'cover' failed: brick_side must be a positive finite number",
                       run_out / "cover.json")
    else:
        path, cfg = write_config(tmp_path, space={"family": "interval", "length": 40,
                                                  "spacing": value})
        run_out = pathlib.Path(cfg["out_dir"])
        _assert_exit_3(["run", "--config", str(path)], capsys,
                       "stage 'space' failed: spacing must be a positive finite number",
                       run_out / "space.json")


@pytest.mark.parametrize("key, value", [
    ("stages", None), ("tolerances", "x"), ("tolerances", None), ("test_ops", 3),
    ("out_dir", 5), ("space", {"family": "interval", "length": 40, "metric": "l2"}),
    ("space", {"family": "interval", "length": 40, "colour": 3}),
    ("space", {"family": "grid", "sides": [4, 4], "length": 40}),
    ("space", {"file": "space.json", "family": "interval"}), ("tolerances", {"foo": 1}),
], ids=["stages-null", "tolerances-string", "tolerances-null", "test_ops-number",
        "out_dir-number", "interval-metric", "space-unknown-key", "grid-length",
        "file-and-family", "tolerances-unknown-key"])
def test_run_rejects_malformed_structure(tmp_path, capsys, monkeypatch, key, value):
    """A stage list, tolerances object, operator list or output directory of
    the wrong type is a usage error before any stage writes; each used to
    end in a traceback.  So is a key that a space spec of its kind, or the
    tolerances object, does not read, by the rule for top-level keys; each
    used to be ignored."""
    path, _ = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"  # the output directory of every valid config here
    out.mkdir()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and key in err and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]
    assert list(out.iterdir()) == []


def _set_first_test_block(value):
    def edit(doc):
        doc["blocks"][0]["block"] = value
    return "test_000.json", edit


def _set_first(key, value):
    def edit(doc):
        doc[key][0] = value
    return edit


def _first_record(edit):
    """An edit of the first block record of ``test_000.json``."""
    return "test_000.json", lambda doc: edit(doc["blocks"][0])


def _set_first_point(points):
    def edit(doc):
        points(doc)[0] = {"x": 1}
    return edit


OBJECT_MESSAGE = "the file must hold a JSON object"
POINT_MESSAGE = "a point id must be a number, a string or a list of them"


# Space-file edits of the wrong type, shared by bundles and the commands that
# read a space file.
SPACE_EDITS = [
    (lambda doc: doc.update(points=5), "'points' must be a list of point ids"),
    (lambda doc: doc.update(dist="x"), "'dist' must be a matrix of numbers"),
    (lambda doc: doc.update(dist=[[0.0, 1.0], [1.0]]), "'dist' must be a matrix of numbers"),
    (lambda doc: doc.update(generator=5), "'generator' must be an object"),
    (lambda doc: doc["generator"].update(sides=5), "no generator block that yields its points"),
    (IN_LIST, OBJECT_MESSAGE),
    (_set_first_point(lambda doc: doc["points"]), POINT_MESSAGE),
]
SPACE_EDIT_IDS = ["points-number", "dist-string", "dist-ragged", "generator-number",
                  "generator-sides-number", "list", "point-object"]


@pytest.mark.parametrize("name, edit, message", [
    (*_set_first_test_block("x"), "operator block must be a list of rows"),
    (*_set_first_test_block([[[1.0]]]), "operator block must be a list of rows"),
    ("test_000.json", lambda doc: doc.update(blocks="x"), "'blocks' must be a list"),
    ("test_000.json", lambda doc: doc["blocks"].append(dict(doc["blocks"][0])),
     "test_000.json: block record 24 repeats the point pair (0, 0)"),
    ("test_000.json", lambda doc: doc.pop("blocks"),
     "test_000.json: the file has no key 'blocks'"),
    ("test_000.json", lambda doc: doc.pop("fiber"),
     "test_000.json: the file has no key 'fiber'"),
    (*_first_record(lambda rec: rec.pop("x")), "test_000.json: block record 0 has no key 'x'"),
    (*_first_record(lambda rec: rec.pop("y")), "test_000.json: block record 0 has no key 'y'"),
    (*_first_record(lambda rec: rec.pop("block")),
     "test_000.json: block record 0 has no key 'block'"),
    (*_first_record(lambda rec: rec.update(y=999)),
     "test_000.json: the point id 999 names no point of the space"),
    ("witness.json", lambda doc: doc.update(summands="x"), "'summands' must be a list"),
    ("witness.json", lambda doc: doc.update(coefficients=5), "'coefficients' must be a list"),
    ("witness.json", lambda doc: doc.update(test_set=3), "'test_set' must be a list"),
    ("witness.json", _set_first("summands", 5), "'summands' must be a list of records"),
    ("witness.json", lambda doc: doc["summands"][0].update(points=5),
     "'summands' must be a list of records with a 'points' list"),
    ("witness.json", _set_first("coefficients", 5), "'coefficients' must be a list of file"),
    ("witness.json", _set_first("test_set", 5), "'test_set' must be a list of file names"),
    ("witness.json", lambda doc: doc.update(space=5), "'space' must be a file name"),
    ("witness.json", lambda doc: doc.update(meta="x"), "'meta' must be an object"),
    ("witness.json", _set_first_point(lambda doc: doc["summands"][0]["points"]),
     POINT_MESSAGE),
    ("witness.json", IN_LIST, OBJECT_MESSAGE),
    ("test_000.json", IN_LIST, OBJECT_MESSAGE),
] + [("space.json", *case) for case in SPACE_EDITS],
    ids=["block-string", "block-without-imaginary-part", "blocks-string", "record-repeated",
         "blocks-missing", "fiber-missing", "x-missing", "y-missing", "block-missing",
         "point-unknown", "summands-string",
         "coefficients-number", "test_set-number", "summand-number", "summand-points-number",
         "coefficient-number", "test_set-entry-number", "space-number", "meta-string",
         "summand-point-object", "witness-list", "test-list"]
    + [f"space-{i}" for i in SPACE_EDIT_IDS])
def test_malformed_bundle_exits_3(tmp_path, capsys, name, edit, message):
    """A bundle file holding a value of the wrong type fails every command
    with exit 3; each used to end in a traceback.  An operator file that
    repeats a point pair, lacks a key or names no point of the space exits
    3 naming the file: the repeat used to pass with the later block, and
    the others exited 3 with only the bare key or point id."""
    bundle = _interval_bundle(tmp_path)
    _edit_json(bundle / name, edit)
    _assert_commands_exit_3(bundle, capsys, message)


@pytest.mark.parametrize("name, edit, message", [
    ("cover.json", lambda doc: doc.update(families=[[5]]),
     "'families' must be a list of lists of point lists"),
    ("cover.json", lambda doc: doc.update(families=None),
     "'families' must be a list of lists of point lists"),
    ("cover.json", lambda doc: doc.update(r="x"), "a scale must be a finite real number"),
    ("cover.json", lambda doc: doc.update(r=None), "a scale must be a finite real number"),
    ("cover.json", _set_first_point(lambda doc: doc["families"][0][0]), POINT_MESSAGE),
    ("cover.json", IN_LIST, OBJECT_MESSAGE),
] + [("space.json", *case) for case in SPACE_EDITS],
    ids=["families-set-number", "families-null", "r-string", "r-null", "set-point-object",
         "list"]
    + [f"space-{i}" for i in SPACE_EDIT_IDS])
def test_malformed_cover_or_space_file_exits_3(tmp_path, capsys, name, edit, message):
    """A cover or space file holding a value of the wrong type fails every
    command that reads it with exit 3 and writes nothing; each used to end
    in a traceback."""
    _interval_bundle(tmp_path)
    sp, cov = str(tmp_path / "space.json"), str(tmp_path / "cover.json")
    _edit_json(tmp_path / name, edit)
    commands = [["cover", "check", "--space", sp, "--cover", cov, "--r", "6"],
                ["witness", "build", "--space", sp, "--cover", cov, "--r", "2",
                 "--fiber", "1"]]
    if name == "space.json":
        commands += [["cover", "gen", "--space", sp, "--r", "2", "--brick-side", "8"],
                     ["sweep", "--space", sp, "--r", "2", "--fiber", "1"]]
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}"
        _assert_exit_3(argv + ["--out", str(out)], capsys, message, out)


def _point_999(points):
    """An edit that sets the first point id of ``points(doc)`` to 999, which
    names no point of the interval."""
    def edit(doc):
        points(doc)[0] = 999
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("witness1/witness.json", _point_999(lambda doc: doc["summands"][0]["points"]),
     "the point id 999 names no point of the space"),
    ("witness1/witness.json", lambda doc: doc["summands"][0].pop("label"),
     "summand 0 has no key 'label'"),
    ("witness1/witness.json", lambda doc: doc.pop("d"), "the file has no key 'd'"),
    ("cover.json", _point_999(lambda doc: doc["families"][0][0]),
     "the point id 999 names no point of the space"),
    ("cover.json", lambda doc: doc.pop("r"), "the file has no key 'r'"),
    ("space.json", lambda doc: doc.pop("points"), "the file has no key 'points'"),
    ("space.json", lambda doc: doc["generator"].pop("spacing"),
     "the generator has no key 'spacing'"),
    ("witness1/witness.json", lambda doc: doc.update(meta={"r": "x"}),
     "the key 'meta.r' must be a finite real number >= 0, got 'x'"),
    ("space.json", lambda doc: doc.pop("generator"),
     "the file has no distance matrix and no generator block that yields its points"),
    ("space.json", lambda doc: doc["generator"].update(family="torus"),
     "the generator family must be 'interval' or 'grid', got 'torus'"),
], ids=["summand-point-unknown", "summand-label-missing", "d-missing",
        "cover-point-unknown", "cover-r-missing", "space-points-missing",
        "space-generator-spacing-missing", "meta-r-string", "space-no-generator",
        "space-generator-family-unknown"])
def test_loaders_name_file_and_key(tmp_path, capsys, name, edit, message):
    """A space, cover or witness file that lacks a key, names a point not
    in the space or holds a value its loader refuses exits 3 naming the
    file and the key, point id or value; each used to print only the bare
    key or id, a message without the file (a space with neither distances
    nor a generator), to read a ``"torus"`` generator as a grid, or to take
    a bundle's ``meta.r`` unchecked until extraction."""
    bundle = _interval_bundle(tmp_path)
    _edit_json(tmp_path / name, edit)
    message = f"{tmp_path / name}: {message}"
    if name.startswith("witness1/"):
        _assert_commands_exit_3(bundle, capsys, message)
        return
    sp, cov = str(tmp_path / "space.json"), str(tmp_path / "cover.json")
    for i, argv in enumerate([
            ["cover", "check", "--space", sp, "--cover", cov, "--r", "6"],
            ["witness", "build", "--space", sp, "--cover", cov, "--r", "2", "--fiber", "1"]]):
        out = tmp_path / f"out{i}"
        _assert_exit_3(argv + ["--out", str(out)], capsys, message, out)


@pytest.mark.parametrize("space, message", [
    ({"family": "interval", "length": "x"}, "interval length must be an integer >= 1"),
    ({"family": "interval", "length": True}, "interval length must be an integer >= 1"),
    ({"family": "grid", "sides": ["x", 3]}, "a grid side must be an integer >= 1, got 'x'"),
    ({"family": "grid", "sides": [2.5, 3]}, "a grid side must be an integer >= 1, got 2.5"),
    ({"family": "grid", "sides": 5}, "grid sides must be a list of integers >= 1"),
], ids=["length-string", "length-bool", "sides-string", "sides-fraction", "sides-number"])
def test_run_rejects_non_integer_space_sizes(tmp_path, capsys, space, message):
    """An interval length or grid side that is not an integer >= 1 (a bool
    is not one) fails the space stage with exit 3 and writes nothing: a
    string used to end in a ValueError traceback, a side of 2.5 ran as 2 and
    a length of true as 1."""
    path, cfg = write_config(tmp_path, space=space)
    out = pathlib.Path(cfg["out_dir"])
    _assert_exit_3(["run", "--config", str(path)], capsys,
                   f"stage 'space' failed: {message}")
    assert list(out.iterdir()) == []


def test_run_and_sweep_measure_condition2_once(tmp_path, condition2_norms):
    """A witness is measured against condition 2 once per test element: the
    build's epsilon pass over the test set and its squares serves check, hat
    and sweep, which each used to measure the test set again.  The values
    they read are those of the test elements, the first half of the pass."""
    from banddim.operators import operator_norm
    from banddim.space import load_space
    from banddim.witness import default_test_set

    path, cfg = write_config(tmp_path, stages=["space", "cover", "witness", "check", "hat"])
    assert main(["run", "--config", str(path)]) == 0
    out = pathlib.Path(cfg["out_dir"])
    t = len(json.loads((out / "witness" / "witness.json").read_text())["test_set"])
    assert len(condition2_norms) == 2 * t
    check = json.loads((out / "check_report.json").read_text())["conditions"][1]
    assert check["worst"] == max(map(operator_norm, condition2_norms[:t]))

    condition2_norms.clear()
    space = tmp_path / "sweep_space.json"
    assert main(["space", "gen", "--family", "interval", "--length", "40",
                 "--out", str(space)]) == 0
    assert main(["sweep", "--space", str(space), "--r", "2", "3", "--fiber", "1",
                 "--out", str(tmp_path / "sweep.json")]) == 0
    t = len(default_test_set(load_space(str(space)), 1, 1))
    assert len(condition2_norms) == 2 * 2 * t
    rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
    assert [row["error"] for row in rows] == [
        max(map(operator_norm, condition2_norms[2 * t * i:2 * t * i + t])) for i in range(2)]
