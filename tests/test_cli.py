import hashlib
import json
from pathlib import Path

import pytest

from rds_kit import cli, oracle, paths

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


# SHA-256 of `rds-kit audit-paths --verbose` on u = w = [3]*5, star u0 -> {w1},
# matching (i, i) for i = 1..4, as reported before the sweep built its moves
# with try_c4/try_c6 (1,515,991 bytes, too large to commit as a golden file).
HALF_REGULAR_5_AUDIT_SHA256 = "53f87ad71ff0259acfd2d20730387bad22f2bf62a762c3d30bc7fee2bbc58aa3"


def test_audit_paths_verbose_digest_on_half_regular_5(capsys, half_regular_5_path, monkeypatch):
    """32 states; unlike the 4x4 golden, this reaches the sweep's single 6-cycle move."""
    sweep_c6 = []
    try_c6 = paths.try_c6

    def counting_try_c6(*args):
        toggle = try_c6(*args)
        sweep_c6.append(toggle)
        return toggle

    monkeypatch.setattr(paths, "try_c6", counting_try_c6)
    assert cli.main(["audit-paths", half_regular_5_path, "--verbose"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == HALF_REGULAR_5_AUDIT_SHA256
    assert len(sweep_c6) == 6 and all(t is not None for t in sweep_c6)


def test_kernel_matches_golden(capsys, roadmap_4x4_path):
    """The golden report predates building the kernel from generated moves."""
    assert cli.main(["kernel", roadmap_4x4_path]) == 0
    golden = (DATA / "kernel_roadmap_4x4.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def _half_regular(n, d):
    """u = w = [d]*n, star u0 -> {w1}, matching (i, i) for i = 1..n-1."""
    return {
        "kind": "bipartite",
        "u_degrees": [d] * n,
        "w_degrees": [d] * n,
        "star_center": 0,
        "star_leaves": [1],
        "matching": [[i, i] for i in range(1, n)],
    }


def test_construct_matches_golden(capsys, tmp_path):
    """The half-regular ladder and a general instance whose degrees tie completely.

    The golden reports, concatenated in this order, predate ranking the
    greedy's neighbours with plain sort keys.
    """
    instances = [_half_regular(n, d) for n in (10, 30, 100, 150) for d in (3, 10)]
    instances.append(
        {"kind": "general", "degrees": [1, 1, 1, 1, 2], "star_center": 4, "matching": [[0, 1], [2, 3]]}
    )
    reports = []
    for i, inst in enumerate(instances):
        p = tmp_path / f"construct_{i}.json"
        p.write_text(json.dumps(inst))
        assert cli.main(["construct", str(p)]) in (0, 1)
        reports.append(capsys.readouterr().out)
    golden = (DATA / "construct_reports.txt").read_text(encoding="utf-8")
    assert "".join(reports) == golden


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
