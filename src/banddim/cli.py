"""Batch command-line entry point.

Subcommands generate spaces and covers, build and check witnesses, run the
extraction pipeline, and consolidate reports.  Every artifact has the
bytes ``space.write_json`` gives its document (sorted keys, no spaces, a
trailing newline; an operator file is joined from the same fragments by
``operators.save_operator``) and holds no timestamps, so identical
configurations (and seeds) produce byte-identical outputs.  Exit codes: 0
on success, 2 on usage or configuration errors, 3 on stage failures.
Failed verdicts inside reports are data, not errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys

from . import __version__
from .cover import brick_cover, load_cover, save_cover, verify_cover, witness_brick
from .errors import BandDimError, InvalidParameterError, UsageError
from .extract import build_translation_system, extract_cover, threshold_setup
from .extract import matrix_unit_identities  # only for perfbench tracing
from .space import (_is_list_of, canonical_json, generate_space, load_space, read_json,
                    save_space, write_json)
from .witness import (build_upper_witness, check_witness, condition2_errors,
                      default_test_set, hat_normalize, load_witness, save_witness)

STAGES = ["space", "cover", "witness", "check", "hat", "extract", "report"]


def _emit(doc, out):
    if out:
        write_json(doc, out)
    else:
        sys.stdout.write(canonical_json(doc))


def _provenance(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return {"config_sha256": hashlib.sha256(blob).hexdigest(),
            "package_version": __version__}


def _gen_space(spec):
    family = spec.get("family", "interval")
    if family not in ("interval", "grid"):  # compared, not hashed: a list may come
        raise UsageError(f"unknown space family {family!r}; expected 'interval' or 'grid'")
    key = "length" if family == "interval" else "sides"
    if key not in spec:
        raise UsageError(f"a {family} space needs the key {key!r}")
    if family == "interval":
        return generate_space("interval", length=spec["length"],
                              spacing=spec.get("spacing", 1))
    return generate_space("grid", sides=spec["sides"],
                          metric=spec.get("metric", "linf"),
                          spacing=spec.get("spacing", 1))


def _test_set(space, fiber, scale, extra_files=()):
    from .operators import load_operator
    ops = default_test_set(space, scale, fiber)
    for path in extra_files:
        ops.append(load_operator(path, space))
    return ops


def _build_witness(space, cover, r, fiber, test_scale, test_ops, epsilon):
    """The witness at scale r; the test scale defaults to r, which gives the
    default test set of ``build_upper_witness`` when no operator files are
    added."""
    scale = r if test_scale is None else test_scale
    test_set = _test_set(space, fiber, scale, test_ops or ())
    witness = build_upper_witness(space, cover, r, fiber, test_set=test_set,
                                  epsilon=epsilon)
    witness.meta["r"] = r
    return witness


def _extraction_report(witness, r, out_cover=None):
    td = threshold_setup(witness)
    pts = build_translation_system(witness, td)
    extracted = extract_cover(pts, witness.space, r)
    if out_cover:
        save_cover(extracted.cover, witness.space, out_cover)
    doc = extracted.to_json(witness.space)
    doc["identities"] = pts.identities.to_json()
    doc["constants"] = {"delta": float(td.delta), "eta": float(td.eta),
                        "eps": float(td.eps)}
    doc["corners"] = [{"color": c.color, "j": c.j, "s": c.s} for c in td.corners]
    doc["borderline_thresholds"] = len(pts.borderline)
    return doc


# -- subcommand handlers -------------------------------------------------

def _cmd_space_gen(args):
    spec = {"family": args.family, "length": args.length, "sides": args.sides,
            "metric": args.metric, "spacing": args.spacing}
    space = _gen_space({k: v for k, v in spec.items() if v is not None})
    save_space(space, args.out)
    return 0


def _cmd_cover_gen(args):
    space = load_space(args.space)
    cover = brick_cover(space, args.r, args.brick_side)
    save_cover(cover, space, args.out)
    return 0


def _cmd_cover_check(args):
    space = load_space(args.space)
    cover = load_cover(args.cover, space)
    report = verify_cover(cover, space, args.r)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_witness_build(args):
    space = load_space(args.space)
    cover = load_cover(args.cover, space)
    witness = _build_witness(space, cover, args.r, args.fiber, args.test_scale,
                             args.test_op, args.epsilon)
    save_witness(witness, args.out)
    return 0


def _cmd_witness_check(args):
    witness = load_witness(args.witness)
    _emit(check_witness(witness, tol=args.tol).to_json(), args.out)
    return 0


def _cmd_witness_hat(args):
    witness = load_witness(args.witness)
    pair = hat_normalize(witness, samples=args.samples, seed=args.seed)
    _emit(pair.report, args.out)
    return 0


def _cmd_extract(args):
    witness = load_witness(args.witness)
    r = args.r if args.r is not None else witness.meta.get("r")
    if r is None:
        raise UsageError("no scale r: pass --r or build the witness with one")
    _emit(_extraction_report(witness, r, out_cover=args.cover_out), args.out)
    return 0


def _cmd_sweep(args):
    space = load_space(args.space)
    test_set = _test_set(space, args.fiber, args.test_scale)
    rows = []
    for r in args.r:
        scale, side = witness_brick(space, r)  # run's auto-brick cover
        cover = brick_cover(space, scale, side)
        witness = build_upper_witness(space, cover, r, args.fiber, test_set=test_set)
        err = max(condition2_errors(witness))
        rows.append({"r": r, "brick_side": int(side) if side.denominator == 1 else float(side),
                     "error": err, "epsilon": witness.epsilon})
    doc = {"rows": rows,
           "non_increasing": all(rows[i + 1]["error"] <= rows[i]["error"] + 1e-12
                                 for i in range(len(rows) - 1))}
    _emit(doc, args.out)
    return 0


def _cmd_report(args):
    inputs = {os.path.basename(path): read_json(path) for path in args.inputs}
    doc = {"inputs": inputs, "provenance": _provenance({"inputs": sorted(inputs)})}
    _emit(doc, args.out)
    for name, content in sorted(inputs.items()):
        if isinstance(content, dict) and "conditions" in content:
            for row in content["conditions"]:
                verdict = "pass" if row["verdict"] else "FAIL"
                print(f"{name}: condition {row['condition']}: {verdict} "
                      f"(worst {row['worst']:.3e})")
        elif isinstance(content, dict) and "S" in content:
            print(f"{name}: extracted S={content['S']} s_max={content['s_max']} "
                  f"bound_ok={content['bound_ok']}")
    return 0


# -- config-driven pipeline ----------------------------------------------

CONFIG_KEYS = {"space", "cover", "r", "fiber", "epsilon", "test_scale",
               "test_ops", "stages", "out_dir", "seed", "tolerances"}
# The keys of a generator spec of each space family.
GENERATOR_KEYS = {"interval": {"family", "length", "spacing"},
                  "grid": {"family", "sides", "metric", "spacing"}}


def _reject_unknown(doc, allowed, owner):
    unknown = set(doc) - allowed
    if unknown:
        raise UsageError(f"unknown {owner} keys: {sorted(unknown)}")


def _validate_config(cfg):
    _reject_unknown(cfg, CONFIG_KEYS, "config")
    stages = cfg.get("stages", STAGES)
    if not isinstance(stages, list) or stages != STAGES[:len(stages)]:
        raise UsageError(f"stages must be a prefix of {STAGES}, got {stages!r}")
    for key in ("r", "fiber", "out_dir"):
        if key not in cfg:
            raise UsageError(f"config key {key!r} is required")
    if not isinstance(cfg["out_dir"], str):
        raise UsageError(f"config key 'out_dir' must be a path, got {cfg['out_dir']!r}")
    cover = cfg.get("cover", "auto-brick")
    if not (cover == "auto-brick" or isinstance(cover, dict) and len(cover) == 1
            and ("brick_side" in cover or isinstance(cover.get("file"), str))):
        raise UsageError("config key 'cover' must be \"auto-brick\", {\"file\": path} or "
                         f"{{\"brick_side\": s}}, got {cover!r}")
    space = cfg.get("space", {})
    if not (isinstance(space, dict) and isinstance(space.get("file", ""), str)):
        raise UsageError("config key 'space' must be {\"file\": path} or a generator "
                         f"spec object, got {space!r}")
    family = space.get("family", "interval")
    if "file" in space:
        _reject_unknown(space, {"file"}, "config 'space'")
    elif family in ("interval", "grid"):  # any other family fails the space stage
        _reject_unknown(space, GENERATOR_KEYS[family], f"config 'space' ({family})")
    tolerances = cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise UsageError("config key 'tolerances' must be an object {\"check\": tol}, "
                         f"got {tolerances!r}")
    _reject_unknown(tolerances, {"check"}, "config 'tolerances'")
    test_ops = cfg.get("test_ops", [])
    if not _is_list_of(test_ops, str):
        raise UsageError(f"config key 'test_ops' must be a list of paths, got {test_ops!r}")
    return stages


@contextlib.contextmanager
def _config_file(key):
    """A missing file that the config key names, reported as
    ``InvalidParameterError`` naming the key; the stage that reads the file
    names itself."""
    try:
        yield
    except FileNotFoundError as exc:
        raise InvalidParameterError(f"config key {key!r} names a missing file: {exc}") from exc


def _cmd_run(args):
    cfg = read_json(args.config)
    if args.out_dir:
        if "out_dir" in cfg and cfg["out_dir"] != args.out_dir:
            print("warning: --out-dir overridden by config value", file=sys.stderr)
        else:
            cfg.setdefault("out_dir", args.out_dir)
    stages = _validate_config(cfg)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    r = cfg["r"]
    fiber = cfg["fiber"]
    tol = cfg.get("tolerances", {}).get("check", 1e-9)

    artifacts = {}
    space = cover = witness = None
    for stage in stages:
        try:
            if stage == "space":
                spec = cfg.get("space", {"family": "interval", "length": 150})
                if "file" in spec:
                    with _config_file("space.file"):
                        space = load_space(spec["file"])
                else:
                    space = _gen_space(spec)
                save_space(space, os.path.join(out, "space.json"))
                artifacts["space"] = "space.json"
            elif stage == "cover":
                spec = cfg.get("cover", "auto-brick")
                if isinstance(spec, dict) and "file" in spec:
                    with _config_file("cover.file"):
                        cover = load_cover(spec["file"], space)
                else:
                    side = spec.get("brick_side") if isinstance(spec, dict) else None
                    cover = brick_cover(space, *witness_brick(space, r, side))
                save_cover(cover, space, os.path.join(out, "cover.json"))
                artifacts["cover"] = "cover.json"
            elif stage == "witness":
                with _config_file("test_ops"):
                    witness = _build_witness(space, cover, r, fiber, cfg.get("test_scale"),
                                             cfg.get("test_ops"), cfg.get("epsilon"))
                save_witness(witness, os.path.join(out, "witness"))
                artifacts["witness"] = "witness"
            elif stage == "check":
                write_json(check_witness(witness, tol=tol).to_json(),
                           os.path.join(out, "check_report.json"))
                artifacts["check"] = "check_report.json"
            elif stage == "hat":
                pair = hat_normalize(witness, samples=50, seed=cfg.get("seed", 0))
                write_json(pair.report, os.path.join(out, "hat_report.json"))
                artifacts["hat"] = "hat_report.json"
            elif stage == "extract":
                doc = _extraction_report(
                    witness, r, out_cover=os.path.join(out, "extracted_cover.json"))
                write_json(doc, os.path.join(out, "extraction_report.json"))
                artifacts["extract"] = "extraction_report.json"
            elif stage == "report":
                merged = {}
                for name, ref in artifacts.items():
                    path = os.path.join(out, ref)
                    if os.path.isfile(path):
                        merged[name] = read_json(path)
                hashed = {k: v for k, v in cfg.items() if k != "out_dir"}
                write_json({"artifacts": merged, "provenance": _provenance(hashed)},
                           os.path.join(out, "report.json"))
        except UsageError:
            raise
        except BandDimError as exc:
            print(f"stage {stage!r} failed: {exc}", file=sys.stderr)
            return 3
    return 0


# -- parser ----------------------------------------------------------------

@functools.cache
def _build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs a few milliseconds per call."""
    parser = argparse.ArgumentParser(
        prog="banddim",
        description="covers, band operators, and approximation witnesses on "
                    "finite metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="space generation")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    g = ssub.add_parser("gen")
    g.add_argument("--family", choices=["interval", "grid"], default="interval")
    g.add_argument("--length", type=int)
    g.add_argument("--sides", type=int, nargs="+")
    g.add_argument("--metric", choices=["l1", "linf"], default=None)
    g.add_argument("--spacing", type=float, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_space_gen)

    p = sub.add_parser("cover", help="cover generation and checking")
    csub = p.add_subparsers(dest="subcommand", required=True)
    g = csub.add_parser("gen")
    g.add_argument("--space", required=True)
    g.add_argument("--r", type=float, required=True)
    g.add_argument("--brick-side", type=float, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_cover_gen)
    c = csub.add_parser("check")
    c.add_argument("--space", required=True)
    c.add_argument("--cover", required=True)
    c.add_argument("--r", type=float, required=True)
    c.add_argument("--out")
    c.set_defaults(func=_cmd_cover_check)

    p = sub.add_parser("witness", help="witness construction and checking")
    wsub = p.add_subparsers(dest="subcommand", required=True)
    b = wsub.add_parser("build")
    b.add_argument("--space", required=True)
    b.add_argument("--cover", required=True)
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--fiber", type=int, required=True)
    b.add_argument("--test-scale", type=int, default=None)
    b.add_argument("--test-op", action="append", default=None,
                   help="operator file appended to the test set (repeatable)")
    b.add_argument("--epsilon", type=float, default=None)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_witness_build)
    c = wsub.add_parser("check")
    c.add_argument("--witness", required=True)
    c.add_argument("--tol", type=float, default=1e-9)
    c.add_argument("--out")
    c.set_defaults(func=_cmd_witness_check)
    h = wsub.add_parser("hat")
    h.add_argument("--witness", required=True)
    h.add_argument("--samples", type=int, default=50)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--out")
    h.set_defaults(func=_cmd_witness_hat)

    e = sub.add_parser("extract", help="cover extraction from a witness")
    e.add_argument("--witness", required=True)
    e.add_argument("--r", type=float, default=None)
    e.add_argument("--cover-out")
    e.add_argument("--out")
    e.set_defaults(func=_cmd_extract)

    s = sub.add_parser("sweep", help="approximation error against the scale")
    s.add_argument("--space", required=True)
    s.add_argument("--r", type=int, nargs="+", required=True)
    s.add_argument("--fiber", type=int, required=True)
    s.add_argument("--test-scale", type=int, default=1)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_sweep)

    rp = sub.add_parser("report", help="consolidate report files")
    rp.add_argument("--inputs", nargs="+", required=True)
    rp.add_argument("--out")
    rp.set_defaults(func=_cmd_report)

    rn = sub.add_parser("run", help="config-driven pipeline")
    rn.add_argument("--config", required=True)
    rn.add_argument("--out-dir")
    rn.set_defaults(func=_cmd_run)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (BandDimError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
