"""Tests of the measurement scripts under tools/."""

import importlib.util
import json
import math
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
    from perfbench import workloads as wl

    (rotation,) = wl.warm_pool(N=512)[:1]
    descend, seen = solver._descend, []

    def recorded(*args, **kwargs):
        seen.append((args, kwargs, descend(*args, **kwargs)))
        return seen[-1][2]

    census = _load("census")
    counted = {name: getattr(solver, name) for name in census.WORK.values()}
    solver._descend = recorded
    try:
        s = census.iterations(rotation, hybrid_nls, solver)
        # the wrappers are taken off again
        assert solver._descend is recorded
        assert all(getattr(solver, name) is fn for name, fn in counted.items())
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


def test_census_work_totals_add_up(census_run):
    # each total is the sum over the operations; every start factors its
    # preconditioner and evaluates its start, then at least one point
    # per iteration that does not stop
    _, s, _ = census_run
    ops = s["ops"]
    for key in _load("census").WORK:
        assert s[key] == sum(r[key] for r in ops), key
    for r in ops:
        assert r["factorizations"] >= len(r["starts"])
        assert r["energy_evals"] >= r["total_iters"]


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
    dc = _load("census")
    params = dc.draws()
    assert len(params) == 300 and params[:2] == dc.draws(2)
    for p1, p2, s1, s2, beta, mu in params:
        assert 2.05 <= min(p1, p2) and max(p1, p2) <= 3.95
        assert -3.0 <= min(s1, s2) and max(s1, s2) <= 20.0
        assert 0.0 <= beta <= 2.5 and 1e-3 <= mu <= 1e3
    s = dc.classes(hybrid_nls, params[:4])
    assert [r["draw"] for r in s["draws"]] == [0, 1, 2, 3]
    assert sum(s["counts"].values()) == 4
    for r in s["draws"]:
        assert r["converged"] == (r["class"] != "unconverged")
        assert r["converged"] == (r["stop_reason"] == "converged")


def test_draw_class_is_the_first_failed_test():
    classify = _load("census").classify
    cfg = hybrid_nls.SolverConfig(N=512)
    HP = hybrid_nls.HybridParams
    assert classify(hybrid_nls.solve_hybrid(HP(3, 3, 0, 1, 1, 1), cfg)) == "certified"
    assert classify(hybrid_nls.solve_planar(3.9, 1.0, cfg)) == "box"
    assert classify(hybrid_nls.solve_hybrid(HP(3, 3, 200, 200, 0.5, 1), cfg)) == "uncertified"
    short = hybrid_nls.SolverConfig(N=512, max_iters=2)
    assert classify(hybrid_nls.solve_planar(3.0, 1.0, short)) == "unconverged"


def _entry(classes, energies=None, pool=(True, True)):
    """A recorded census entry: draws of the given classes and energies,
    and pool and ``fine_hard`` ops with the given ``converged`` flags."""
    def op(key, flag):
        return {"key": key, "converged": flag, "energy": -2.0,
                "stop_reason": "converged" if flag else "no_progress"}

    energies = energies or [-1.0] * len(classes)
    draws = [{"draw": i, "class": c, "converged": c != "unconverged",
              "stop_reason": "converged" if c != "unconverged" else "no_progress",
              "energy": e} for i, (c, e) in enumerate(zip(classes, energies))]
    counts = {c: classes.count(c) for c in _load("census").CLASSES}
    entry = {"draw_census": {"counts": counts, "draws": draws}}
    for name in ("warm_pool", "fine_hard"):
        entry[name] = {"ops": [op(f"op{i}", f) for i, f in enumerate(pool)],
                       "total_iters": 10, "winner_iters": 5, "joined": 0,
                       "starts": 3, "joined_iters": 0, "max_rerun_distance": None}
    return entry


def test_draw_census_compare_fails_only_on_a_lost_flag(capsys):
    dc = _load("census")
    data = {"a": _entry(["certified", "unconverged", "uncertified"]),
            "b": _entry(["certified", "certified", "certified"])}
    assert dc.compare(data, "a", "b") == 0
    out = capsys.readouterr().out
    assert "draw 1: unconverged" in out and "draw 2: uncertified" in out
    assert "draw 0" not in out
    data["c"] = _entry(["unconverged", "unconverged", "uncertified"])
    assert dc.compare(data, "a", "c") == 1


def test_census_compare_exit_status(tmp_path, capsys):
    # a pool or fine_hard flag that differs, or a draw flag lost, fails the
    # compare; moved energies and gained flags are listed but pass
    main = _load("census").main
    old = _entry(["certified", "unconverged", "box"])
    data = {"old": old,
            "pool": _entry(["certified", "unconverged", "box"], pool=(True, False)),
            "lost": _entry(["unconverged", "unconverged", "box"]),
            "gained": _entry(["certified", "certified", "box"],
                             energies=[-1.0, -1.5, -1.0 * (1 + 1e-9)])}
    path = tmp_path / "census.json"
    path.write_text(json.dumps(data))

    def run(new):
        capsys.readouterr()
        code = main([str(path), "--compare", "old", new])
        return code, capsys.readouterr().out

    code, out = run("pool")
    assert code == 1 and "warm_pool op1: converged" in out and "fine_hard op1" in out
    assert "2 pool and fine_hard converged flags differ" in out
    code, out = run("lost")
    assert code == 1 and "draw 0: certified" in out
    assert "1 draw converged flags turned False" in out
    code, out = run("gained")
    assert code == 0
    assert "draw 1: unconverged" in out and "draw 2: box" in out and "draw 0" not in out
    assert "draw: 2 of 3 energies moved by more than 1e-10 relative" in out
    assert "warm_pool: 0 of 2 energies moved" in out
    code, out = run("old")
    assert code == 0 and "draw: 0 of 3 energies moved" in out


def test_census_compare_prints_work_where_recorded(capsys):
    # an entry recorded before the work counts compares as before
    dc = _load("census")
    data = {"old": _entry(["certified"]), "new": _entry(["certified"])}
    for name in dc.SETS:
        data["new"][name].update(energy_evals=12, factorizations=3,
                                 newton_factorizations=0)
    assert dc.compare(data, "old", "new") == 0
    lines = capsys.readouterr().out.splitlines()
    old = [x for x in lines if x.startswith("warm_pool old: total")]
    new = [x for x in lines if x.startswith("warm_pool new: total")]
    assert len(old) == len(new) == 1 and "energy_evals" not in old[0]
    assert new[0].endswith("energy_evals 12, factorizations 3, newton_factorizations 0")


def test_census_environment_without_scipy(monkeypatch):
    census = _load("census")
    version = census.importlib.metadata.version

    def installed(name):
        if name == "scipy":
            raise census.importlib.metadata.PackageNotFoundError(name)
        return version(name)

    monkeypatch.setattr(census.importlib.metadata, "version", installed)
    env = census.environment()
    assert env["scipy"] is None and env["numpy"] == version("numpy")
    json.dumps(env)


def test_census_records_take_one_line_each():
    dumps = _load("census")._dumps
    data = {"x": {"warm_pool": {"ops": [{"key": "a", "starts": [{"n": 1}]}],
                                "total_iters": 3},
                  "draw_census": {"draws": [{"draw": 0}, {"draw": 1}]}}}
    text = dumps(data)
    assert json.loads(text) == data
    assert '{"key": "a", "starts": [{"n": 1}]}' in text
    assert '{"draw": 0}' in text and '{"draw": 1}' in text


LINES_FIXTURE = '''"""Module docstring,
two lines."""

import math  # a comment


# a comment line
class Shape:
    """Class docstring."""

    side = 2.0

    def area(self):
        """Method docstring,

        three lines."""
        return self.side ** 2


async def fetch():
    """One line."""
    text = """a string that is
    not a docstring"""
    return text
'''


def test_count_lines_fixture(tmp_path, capsys):
    tool = _load("count_lines")
    # code lines: import, class, side, def, return, async def, the two
    # lines of the string, return; docstring lines: 2 + 1 + 3 + 1
    assert tool.count(LINES_FIXTURE) == (24, 9, 7)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(LINES_FIXTURE)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\n")
    assert tool.main([str(tmp_path / "pkg")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["raw", "code", "doc", "path"]
    assert [r.split()[-1].rsplit("/", 1)[-1] for r in rows[1:]] == ["a.py", "b.py", "total"]
    assert rows[-1].split()[:3] == ["26", "10", "7"]



def test_bench_pairs_claim_rule():
    judge = _load("bench_pairs").judge
    parent = [48.0, 48.2, 48.1, 48.6, 48.3, 48.0, 48.4, 48.2, 48.5, 48.1]
    lower = [p - 4.0 for p in parent]
    j = judge(list(zip(parent, lower)), "lower")
    assert (j["change_won"], j["parent_won"], j["pairs"]) == (10, 0, 10)
    assert j["parent"]["median"] == 48.2 and j["change"]["median"] == 44.2
    assert j["parent"]["q1"] == 48.1 and j["parent"]["q3"] == 48.375
    assert math.isclose(j["gap"], 4.0) and j["claim"]
    # the same runs, judged as a metric where higher is better
    j = judge(list(zip(parent, lower)), "higher")
    assert (j["change_won"], j["parent_won"]) == (0, 10) and not j["claim"]
    # nine of ten won is enough; a tie counts for neither side
    nine = lower[:9] + [parent[9]]
    j = judge(list(zip(parent, nine)), "lower")
    assert (j["change_won"], j["parent_won"]) == (9, 0) and j["claim"]
    eight = lower[:8] + [parent[8], parent[9] + 1.0]
    j = judge(list(zip(parent, eight)), "lower")
    assert (j["change_won"], j["parent_won"]) == (8, 1) and not j["claim"]
    # every pair won, by less than the parent's quartile spread
    j = judge(list(zip(parent, [p - 0.1 for p in parent])), "lower")
    assert j["change_won"] == 10 and j["gap"] < j["parent_iqr"] and not j["claim"]


def test_bench_pairs_unpacks_both_trees_at_equal_path_length(tmp_path):
    # the checkout path moves heap layout and times, so each side gets a
    # sibling directory of the same length; the change is the working tree
    bench_pairs = _load("bench_pairs")
    head = bench_pairs.git("rev-parse", "HEAD")
    parent, change, _ = bench_pairs.unpack(head, tmp_path)
    assert parent.parent == change.parent == tmp_path
    assert len(str(parent)) == len(str(change)) and parent != change
    for tree in (parent, change):
        assert (tree / "perfbench" / "run.py").is_file()
    here = Path("tools") / "bench_pairs.py"
    assert (change / here).read_bytes() == (ROOT / here).read_bytes()


def test_bench_pairs_run_records_its_faults(tmp_path):
    # a stand-in benchmark: the last line of its output is the result
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "pages = bytearray(8 << 20)\n"
        "print('warming up')\n"
        "print(json.dumps({'argv': sys.argv[1:], 'metrics': {}}))\n")
    run = _load("bench_pairs").run_side(tmp_path, "fine_hard", 3, 0.5)
    assert run["result"] == {"argv": ["--workload", "fine_hard", "--seed", "3",
                                      "--seconds", "0.5", "--trace", "0"],
                             "metrics": {}}
    assert run["minor_faults"] > 2048  # the 8 MB alone are 2048 pages
