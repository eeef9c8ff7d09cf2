"""The shared run comparison: one loader, one aligner, one noise rule.

``bench --compare``, ``diff`` and ``perf diff`` are views over the same
:class:`~repro.obs.compare.Comparison`; these tests pin the pieces they
share — the loader's validation (malformed files must be a clean
"unreadable input", never a traceback that looks like a verdict), the
point alignment of every run format, and the noise rule.
"""

import json

import pytest

from repro.__main__ import main
from repro.obs.compare import (
    compare_runs,
    load_run,
    noise_verdict,
    point_key,
    run_record,
)
from repro.pipeline.grid import GridPoint, GridResult


def _malformed(tmp_path, kind):
    if kind == "list":
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
    elif kind == "pointer-to-list":
        (tmp_path / "target.json").write_text("[1, 2, 3]")
        path = tmp_path / "pointer.json"
        path.write_text(json.dumps({"pointer": "target.json"}))
    else:
        path = tmp_path / "points5.json"
        path.write_text(json.dumps({"points": 5}))
    return path


@pytest.mark.parametrize("kind", ["list", "pointer-to-list", "points-5"])
@pytest.mark.parametrize("command", ["diff", "perf diff", "bench"])
def test_malformed_run_file_is_unreadable_input(tmp_path, capsys,
                                                kind, command):
    path = str(_malformed(tmp_path, kind))
    with pytest.raises(ValueError):
        load_run(path)
    if command == "bench":
        # The baseline is loaded before the grid runs, so this never
        # measures anything.
        with pytest.raises(SystemExit, match="cannot load baseline"):
            main(["bench", "--no-save", "--compare", path])
        return
    assert main(command.split() + [path, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: ")
    assert len(err.strip().splitlines()) == 1


def test_pointer_must_be_a_path(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"pointer": 7}))
    with pytest.raises(ValueError, match="pointer"):
        load_run(path)


@pytest.mark.parametrize("payload", [
    {"points": [{"app": "simple", "sim": []}]},
    {"points": [{"app": "simple",
                 "perf": {"ledger": {"rows": [{"kind": "pass"}]}}}]},
    {"points": [{"app": "simple", "provenance": "layout"}]},
    {"points": [{"app": "simple", "provenance": ["layout"]}]},
    {"points": [{"app": "simple", "machine_fp": 7}]},
    {"results": [{"point": {"app": "simple"}, "miss_breakdown": [1]}]},
])
def test_malformed_point_fields_rejected(payload):
    with pytest.raises(ValueError):
        run_record(payload)


def _batch_payload(total_time=100.0):
    results = [
        GridResult(point=GridPoint(app="simple", scheme=s, nprocs=p, n=8),
                   ok=True, total_time=total_time, n_accesses=64,
                   miss_breakdown={"cold": 4}, elapsed=0.01).as_dict()
        for s in ("base", "data") for p in (1, 2)
    ]
    return {"summary": {}, "results": results}


class TestAlignment:
    def test_batch_rows_align_on_their_grid_coordinate(self):
        # batch --json nests app/scheme/nprocs under "point"; every row
        # must keep its own key instead of collapsing into one.
        rec = run_record(_batch_payload())
        assert sorted(rec["points"]) == [
            "simple/base/P1", "simple/base/P2",
            "simple/data/P1", "simple/data/P2"]
        assert rec["points"]["simple/base/P1"]["sim"] == {
            "sim.total_time": 100.0, "sim.n_accesses": 64,
            "sim.misses.cold": 4}

    def test_batch_counter_drift_diverges_on_every_point(self):
        cmp = compare_runs(run_record(_batch_payload()),
                           run_record(_batch_payload(total_time=101.0)))
        assert cmp.n_compared == 4
        assert cmp.diverged
        assert len(cmp.attribution) == 4

    def test_missing_and_new_points(self):
        base = _batch_payload()
        cur = _batch_payload()
        cur["results"] = cur["results"][1:]
        cmp = compare_runs(run_record(base), run_record(cur))
        assert cmp.missing == ["simple/base/P1"] and cmp.new == []
        assert not cmp.ok and cmp.diverged
        cmp = compare_runs(run_record(cur), run_record(base))
        assert cmp.new == ["simple/base/P1"]
        assert cmp.ok  # a new point never fails the gate

    def test_point_key(self):
        assert point_key({"app": "lu", "scheme": "data",
                          "nprocs": 4}) == "lu/data/P4"
        assert point_key({}) == "?/?/P?"


class TestNoiseRule:
    def test_needs_relative_and_absolute(self):
        assert noise_verdict(0.001, 0.003) == "ok"       # +200%, +2 ms
        assert noise_verdict(1.0, 1.1) == "ok"           # +10%
        assert noise_verdict(0.01, 0.03) == "regressed"  # +200%, +20 ms
        assert noise_verdict(0.03, 0.01) == "improved"

    def test_higher_is_better(self):
        assert noise_verdict(5.0, 3.0, floor=0.0,
                             higher_is_better=True) == "regressed"
        assert noise_verdict(5.0, 7.0, floor=0.0,
                             higher_is_better=True) == "improved"
