"""Correctness oracle: checks each stage's artifact in an output directory.

Covers are re-verified here from the point coordinates, without calling the
program, so a wrong cover cannot pass by agreeing with the program's own
checker.  ``failed_stages`` names the stages whose output is wrong.
"""

from __future__ import annotations

import json
import os

import numpy as np

REL_TOL = 1e-9
IDENTITY_TOL = 1e-8


def _load(out, name):
    with open(os.path.join(out, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, ref):
    return abs(value - ref) <= REL_TOL * abs(ref)


def cover_ok(families, points, r):
    """Whether a cover (families of point-id lists) covers ``points`` with
    same-color sets strictly more than ``r`` apart in the linf metric."""
    index = {json.dumps(p): i for i, p in enumerate(points)}
    coords = np.array(points, dtype=np.int64).reshape(len(points), -1)
    covered = set()
    for fam in families:
        members, labels = [], []
        for s, pts in enumerate(fam):
            ids = [index[json.dumps(p)] for p in pts]
            covered.update(ids)
            members.extend(ids)
            labels.extend([s] * len(ids))
        xy = coords[members]
        dist = np.abs(xy[:, None, :] - xy[None, :, :]).max(axis=2)
        other = np.array(labels)[:, None] != np.array(labels)[None, :]
        if other.any() and dist[other].min() <= r:
            return False
    return len(covered) == len(points)


def _check_space(wl, out):
    doc = _load(out, "space.json")
    return doc["points"] == wl.points


def _check_cover(wl, out):
    doc = _load(out, "cover.json")
    return cover_ok(doc["families"], wl.points, 3 * wl.r)


def _check_cover_check(wl, out):
    doc = _load(out, "cover_check.json")
    return doc["passed"] and doc["covers"] and all(doc["separation_ok"])


def _check_witness(wl, out):
    doc = _load(out, os.path.join("witness", "witness.json"))
    return doc["fiber"] == wl.fiber and _close(doc["epsilon"], wl.epsilon)


def _check_check(wl, out):
    doc = _load(out, "check_report.json")
    verdicts = {row["condition"]: row for row in doc["conditions"]}
    return (sorted(verdicts) == [1, 2, 3, 4, 5, 6]
            and all(row["verdict"] is True for row in verdicts.values())
            and _close(doc["epsilon"], wl.epsilon)
            and _close(verdicts[2]["worst"], wl.c2_worst))


def _check_hat(wl, out):
    return _load(out, "hat_report.json")["passed"] is True


def _check_extract(wl, out):
    report = _load(out, "extraction_report.json")
    families = _load(out, "extracted_cover.json")["families"]
    S = max(len(s) for fam in families for s in fam)
    s_max = max(c["s"] for c in report["corners"])
    return (report["identities"]["worst"] <= IDENTITY_TOL
            and len(families) == wl.colors
            and cover_ok(families, wl.points, wl.r)
            and report["S"] == S and report["s_max"] == s_max and S <= s_max)


def _check_report(wl, out):
    doc = _load(out, "report.json")
    if wl.subcommands:
        return sorted(doc["inputs"]) == ["check_report.json",
                                         "extraction_report.json",
                                         "hat_report.json"]
    # `run` merges the file artifacts; the witness bundle is a directory.
    return sorted(doc["artifacts"]) == sorted(set(wl.stages) - {"witness", "report"})


CHECKS = {"space": _check_space, "cover": _check_cover,
          "cover_check": _check_cover_check, "witness": _check_witness,
          "check": _check_check, "hat": _check_hat, "extract": _check_extract,
          "report": _check_report}


def failed_stages(wl, out, stages):
    """The stages among ``stages`` whose artifact in ``out`` is missing,
    unreadable or wrong."""
    failed = []
    for stage in stages:
        try:
            ok = CHECKS[stage](wl, out)
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            failed.append(stage)
    return failed
