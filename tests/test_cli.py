import json
from pathlib import Path

import pytest

from rds_kit import cli, oracle

DATA = Path(__file__).parent / "data"


@pytest.fixture
def f2_path(tmp_path):
    p = tmp_path / "F2.json"
    p.write_text(
        json.dumps(
            {
                "kind": "bipartite",
                "u_degrees": [1, 1, 1],
                "w_degrees": [1, 1, 1],
                "star_center": None,
                "star_leaves": [],
                "matching": [[0, 0], [1, 1], [2, 2]],
            }
        )
    )
    return str(p)


@pytest.fixture
def f5_path(tmp_path):
    p = tmp_path / "F5.json"
    p.write_text(
        json.dumps(
            {
                "kind": "bipartite",
                "u_degrees": [2, 1],
                "w_degrees": [1, 2],
                "matching": [[0, 0], [1, 1]],
            }
        )
    )
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_graphical(capsys, f2_path):
    code, payload = run(capsys, ["check", f2_path])
    assert code == 0 and payload["graphical"] is True
    assert payload["schema"] == "rds-kit/1"


def test_check_not_graphical_exit_one(capsys, f5_path):
    code, payload = run(capsys, ["check", f5_path])
    assert code == 1 and payload["graphical"] is False


def test_construct_emits_edges(capsys, f2_path):
    code, payload = run(capsys, ["construct", f2_path])
    assert code == 0
    assert payload["edges"] == [[0, 1], [1, 2], [2, 0]]


def test_count_exact(capsys, f2_path):
    code, payload = run(capsys, ["count", "--exact", f2_path])
    assert code == 0 and payload["count"] == "2"


def test_count_approx(capsys, f2_path):
    code, payload = run(capsys, ["count", "--approx", f2_path, "--samples", "4000", "--seed", "5"])
    assert code == 0
    assert 1.5 <= payload["estimate"] <= 2.5
    assert payload["config"]["seed"] == 5


def test_distance(capsys, f2_path):
    code, payload = run(
        capsys,
        [
            "distance",
            f2_path,
            "--from",
            "[[0,1],[1,2],[2,0]]",
            "--to",
            "[[0,2],[1,0],[2,1]]",
        ],
    )
    assert code == 0
    assert payload["weight"] == 2 and payload["delta"] == 6 and payload["mc"] == 1


def test_kernel(capsys, f2_path):
    code, payload = run(capsys, ["kernel", f2_path])
    assert code == 0
    assert payload["matrix"] == [["3/4", "1/4"], ["1/4", "3/4"]]


def test_enumerate(capsys, f2_path):
    code, payload = run(capsys, ["enumerate", f2_path])
    assert code == 0 and payload["count"] == "2"
    assert len(payload["realizations"]) == 2


def test_sample_seeded(capsys, f2_path):
    code, payload = run(capsys, ["sample", f2_path, "--steps", "40", "--samples", "3", "--seed", "7"])
    assert code == 0 and len(payload["samples"]) == 3


def test_audit_paths(capsys, f2_path):
    code, payload = run(capsys, ["audit-paths", f2_path])
    assert code == 0
    assert payload["ordered_pairs"] == 2 and payload["all_ok"]
    assert payload["max_hamming"] <= payload["hamming_bound"]


def test_audit_paths_max_states_stops_enumeration(capsys, half_regular_5_path, monkeypatch):
    built = []
    real_build = oracle.realization_from_global_edges
    monkeypatch.setattr(
        oracle, "realization_from_global_edges", lambda i, e: built.append(1) or real_build(i, e)
    )
    code, payload = run(capsys, ["audit-paths", half_regular_5_path, "--max-states", "2"])
    assert code == 3 and payload["error"] == "TooManyStates"
    assert len(built) == 3 < 32


@pytest.fixture
def roadmap_4x4_path(tmp_path):
    """The ROADMAP 4x4 instance: u = w = [2]*4, star u0 -> {w1}, matching (1, 2), (2, 3)."""
    p = tmp_path / "roadmap4x4.json"
    p.write_text(
        json.dumps(
            {
                "kind": "bipartite",
                "u_degrees": [2, 2, 2, 2],
                "w_degrees": [2, 2, 2, 2],
                "star_center": 0,
                "star_leaves": [1],
                "matching": [[1, 2], [2, 3]],
            }
        )
    )
    return str(p)


def test_audit_paths_verbose_matches_golden(capsys, roadmap_4x4_path):
    """15 states; the golden report predates the audit caches."""
    assert cli.main(["audit-paths", roadmap_4x4_path, "--verbose"]) == 0
    golden = (DATA / "audit_paths_roadmap_4x4_verbose.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_kernel_matches_golden(capsys, roadmap_4x4_path):
    """The golden report predates building the kernel from generated moves."""
    assert cli.main(["kernel", roadmap_4x4_path]) == 0
    golden = (DATA / "kernel_roadmap_4x4.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_convert_directed(capsys, tmp_path):
    p = tmp_path / "D.json"
    p.write_text(json.dumps({"kind": "directed", "out_degrees": [1, 1], "in_degrees": [1, 1]}))
    code, payload = run(capsys, ["convert-directed", str(p)])
    assert code == 0
    assert payload["instance"]["kind"] == "bipartite"
    assert payload["instance"]["matching"] == [[0, 0], [1, 1]]


def test_malformed_json_exit_two(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "bipartite",')
    code, payload = run(capsys, ["check", str(p)])
    assert code == 2
    assert payload["error"] == "malformed JSON"
    assert "line" in payload and "column" in payload


def test_validation_error_exit_two(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "bipartite", "u_degrees": [1], "w_degrees": [2]}))
    code, payload = run(capsys, ["check", str(p)])
    assert code == 2 and payload["error"] == "DegreeSumMismatch"


def test_guard_exit_three(capsys, tmp_path):
    p = tmp_path / "big.json"
    p.write_text(
        json.dumps({"kind": "bipartite", "u_degrees": [1] * 9, "w_degrees": [1] * 9, "matching": []})
    )
    code, payload = run(capsys, ["enumerate", str(p), "--max-delta", "10"])
    assert code == 3 and payload["error"] == "TooLarge"


def test_usage_error_exit_two(capsys, f2_path):
    assert cli.main(["count", f2_path]) == 2  # neither --exact nor --approx
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--steps", "-5"],
        ["sample", "--samples", "-1"],
        ["sample", "--samples", "0"],
        ["count", "--approx", "--samples", "0"],
        ["count", "--approx", "--burn-in", "-1"],
        ["bench", "--steps", "-1"],
    ],
)
def test_bad_count_exit_two(capsys, f2_path, argv):
    assert cli.main([argv[0], f2_path, *argv[1:]]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "rds-kit/1" and report["error"] == "UsageError"


@pytest.mark.parametrize(
    "argv, command, fragment",
    [
        (["sample", "F2", "--steps", "-5"], "sample", "--steps"),
        (["count", "F2"], "count", "--exact --approx"),
        (["frobnicate", "F2"], "frobnicate", "invalid choice"),
        ([], None, "required"),
    ],
)
def test_argparse_rejection_prints_json_report(capsys, f2_path, argv, command, fragment):
    argv = [f2_path if a == "F2" else a for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["schema"] == "rds-kit/1"
    assert report["command"] == command and report["error"] == "UsageError"
    assert fragment in report["message"]
    assert captured.err.startswith("usage: rds-kit")
    assert report["message"] in captured.err


def test_help_exits_zero_without_report(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["audit-paths", "--help"]) == 0
    out = capsys.readouterr().out
    assert "usage: rds-kit" in out and "rds-kit/1" not in out


def test_format_flag_is_gone(capsys, f2_path):
    assert cli.main(["check", f2_path, "--format", "json"]) == 2
    assert "--format" in json.loads(capsys.readouterr().out)["message"]


def test_bench_schema(capsys, f2_path):
    code, payload = run(capsys, ["bench", f2_path, "--steps", "2000"])
    assert code == 0
    assert payload["proposals"] == 2000
    assert payload["proposals_per_second"] > 0
    assert "kernel_seconds" in payload


def test_determinism_byte_identical(capsys, f2_path):
    outs = []
    for _ in range(2):
        code = cli.main(
            ["count", "--approx", f2_path, "--samples", "1000", "--seed", "11"]
        )
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
