"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import sys
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_the_gate(workload, trace):
    result, report = run.measure(workload, 7, 0, trace, size="tiny")
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_frac"] == 0
    assert report["seed"] == 7
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_digest_counts_as_failed():
    expected = json.loads(run.EXPECTED.read_text())
    cmds = workloads.commands("series", 0, "tiny")
    expected[cmds[0].key] = {**expected[cmds[0].key], "sha256": "0" * 64}
    result, report = run.measure("series", 0, 0, False, size="tiny", expected=expected)
    assert not result["correct"]
    assert result["failed"] == 1
    assert report["failed_frac"] == 1 / len(cmds)
    assert "digest" in report["problems"][0]


def test_every_command_and_red_set_has_a_recorded_digest():
    expected = json.loads(run.EXPECTED.read_text())
    keys = {cmd.key for cmd in workloads.all_commands()}
    assert keys == set(expected)
    n = workloads.SIZES["full"]["enum_n"]
    red_keys = [k for k in keys if k.startswith(f"enumerate --n {n} --red-denoms")]
    assert len(red_keys) == comb(n, workloads.RED_SET_SIZE)
    assert all(want["exit"] == 0 for want in expected.values())


def test_independent_checks_reject_wrong_values():
    assert workloads.a002893(6) == [1, 3, 15, 93, 639, 4653, 35169]
    assert workloads.check_verify("n=0 lhs=rhs=ct=1 OK\nn=1 lhs=rhs=ct=3 OK\n", 1) is None
    assert workloads.check_verify("n=0 lhs=rhs=ct=1 OK\nn=1 lhs=rhs=ct=4 OK\n", 1)
    assert workloads.check_ct("93\n", 3) is None
    assert workloads.check_ct("94\n", 3)
    assert workloads.check_ct_poly("x + y + x*y^-1 + 3 + x^-1*y + y^-1 + x^-1\n", 1) is None
    assert workloads.check_ct_poly("x + y + x*y^-1 + 4 + x^-1*y + y^-1 + x^-1\n", 1)
    assert workloads.check_ct_poly("x + y + x + 3 + x^-1*y + y^-1 + x^-1\n", 1)
    deals = ["S={1};R=[b1];G=[r1];B=[g1]", "S={1};R=[g1];G=[b1];B=[r1]"]
    assert workloads.check_enumerate("n=1 total=3\nS={};R=[];G=[];B=[]\n" + "\n".join(deals) + "\n", 1) is None
    assert workloads.check_enumerate("n=1 total=3\nS={};R=[];G=[];B=[]\n" + "\n".join([deals[0]] * 2) + "\n", 1)
    assert workloads.check_enumerate("n=1 total=3\nS={};R=[];G=[];B=[]\nS={1};R=[r1];G=[b1];B=[g1]\n" + deals[1] + "\n", 1)


def test_traced_counts_repeat_and_tracer_restores_the_package():
    first, _ = run.measure("oracle", 3, 0, True, size="tiny")
    second, _ = run.measure("oracle", 4, 0, True, size="tiny")
    counts = [name for name, unit in run.LAYER_UNITS.items() if unit in ("count", "digits", "bytes")]
    assert [first["metrics"][c] for c in counts] == [second["metrics"][c] for c in counts]
    import trideal.cli
    import trideal.model
    assert trideal.cli.deal_to_text is trideal.model.deal_to_text
    assert trideal.model.deal_to_text.__module__ == "trideal.model"


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-dir")
    assert run.main(["--workload", "series", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
