"""Tests of the measurement scripts under tools/."""

import importlib.util
import json
import operator
from pathlib import Path

import pytest

import hybrid_nls
from hybrid_nls import solver, specfun

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def census_run():
    """The census of the first warm-pool rotation at N=512, with every
    ``_descend`` call it makes, rerun or not, as (args, keywords, run)."""
    census = _load("iteration_census")
    from perfbench import workloads as wl

    (rotation,) = wl.warm_pool(N=512)[:1]
    descend, seen = solver._descend, []

    def recorded(*args, **kwargs):
        seen.append((args, kwargs, descend(*args, **kwargs)))
        return seen[-1][2]

    solver._descend = recorded
    try:
        s = census.census(rotation, hybrid_nls, solver)
        assert solver._descend is recorded  # the wrappers are taken off again
    finally:
        solver._descend = descend
    return rotation, s, seen


def test_iteration_census_adds_up(census_run):
    rotation, s, _ = census_run
    ops = s["ops"]
    assert [r["key"] for r in ops] == [op.key for op in rotation]
    every = [st for r in ops for st in r["starts"]]
    # three starts per multistart; the uncoupled hybrid runs one per plane
    kinds = [op.kind for op in rotation]
    assert len(every) == s["starts"] == 3 * (len(kinds) + kinds.count("hybrid_beta0"))
    assert s["total_iters"] == sum(r["total_iters"] for r in ops)
    assert s["winner_iters"] == sum(r["winner_iters"] for r in ops)
    for r in ops:
        assert r["total_iters"] == sum(st["iterations"] for st in r["starts"])
        assert r["winner_iters"] <= r["total_iters"]
        assert any(st["outcome"] == "finished" for st in r["starts"])
    joined = [st for st in every if st["outcome"] == "joined"]
    assert {st["outcome"] for st in every} <= {"finished", "joined"}
    assert s["joined"] == len(joined) > 0
    assert s["joined_iters"] == sum(st["iterations"] for st in joined)
    assert all(st["distance"] <= solver._DUPLICATE for st in joined)
    assert s["max_rerun_distance"] == max(st["rerun_distance"] for st in joined)
    assert s["max_rerun_distance"] <= 1e-3
    assert s["unconverged"] == sum(not r["converged"] for r in ops) == 0


def test_joined_start_reruns_at_its_shift(census_run):
    # a start run alone keeps the preconditioner shift it began at, the
    # multiplier its multistart had found, and drops only ``near``
    _, s, seen = census_run
    joins = [(args, kw) for args, kw, run in seen if run["stop"] == "duplicate"]
    reruns = [(args, kw) for args, kw, _ in seen if "near" not in kw]
    assert len(joins) == len(reruns) == s["joined"]
    for (args, kw), (rargs, rkw) in zip(joins, reruns):
        assert len(rargs) == len(args) and all(map(operator.is_, rargs, args))
        assert rkw == {"shift": kw["shift"]}
    assert any(kw["shift"] != args[0].lam for args, kw in joins)


def test_k0_coefficients_are_the_tools():
    # specfun holds the constants tools/k0_coefficients.py computes
    for name, values in _load("k0_coefficients").coefficients().items():
        assert getattr(specfun, name) == values, name


def test_draw_census_recipe_and_classes():
    dc = _load("draw_census")
    params = dc.draws()
    assert len(params) == 300 and params[:2] == dc.draws(2)
    for p1, p2, s1, s2, beta, mu in params:
        assert 2.05 <= min(p1, p2) and max(p1, p2) <= 3.95
        assert -3.0 <= min(s1, s2) and max(s1, s2) <= 20.0
        assert 0.0 <= beta <= 2.5 and 1e-3 <= mu <= 1e3
    s = dc.census(hybrid_nls, params[:4])
    assert [r["draw"] for r in s["draws"]] == [0, 1, 2, 3]
    assert sum(s["counts"].values()) == 4
    for r in s["draws"]:
        assert r["converged"] == (r["class"] != "unconverged")
        assert r["converged"] == (r["stop_reason"] == "converged")


def test_draw_census_compare_fails_only_on_a_lost_flag(capsys):
    dc = _load("draw_census")

    def entry(*rows):
        draws = [{"draw": i, "class": c, "converged": c != "unconverged",
                  "stop_reason": "converged" if c != "unconverged" else "no_progress",
                  "energy": -1.0} for i, c in enumerate(rows)]
        counts = {c: rows.count(c) for c in dc.CLASSES}
        return {"draw_census": {"counts": counts, "draws": draws}}

    data = {"a": entry("certified", "unconverged", "uncertified"),
            "b": entry("certified", "certified", "certified")}
    assert dc.compare(data, "a", "b") == 0
    out = capsys.readouterr().out
    assert "draw 1: unconverged" in out and "draw 2: uncertified" in out
    assert "draw 0" not in out
    data["c"] = entry("unconverged", "unconverged", "uncertified")
    assert dc.compare(data, "a", "c") == 1


def test_census_records_take_one_line_each():
    dumps = _load("iteration_census")._dumps
    data = {"x": {"warm_pool": {"ops": [{"key": "a", "starts": [{"n": 1}]}],
                                "total_iters": 3},
                  "draw_census": {"draws": [{"draw": 0}, {"draw": 1}]}}}
    text = dumps(data)
    assert json.loads(text) == data
    assert '{"key": "a", "starts": [{"n": 1}]}' in text
    assert '{"draw": 0}' in text and '{"draw": 1}' in text
