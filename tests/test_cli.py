import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rds_kit import cli, oracle, paths, swaps

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
                "u_degrees": [2, 2, 0],
                "w_degrees": [2, 1, 1],
                "matching": [[0, 0], [1, 1], [2, 2]],
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


def test_audit_paths_plain_report_on_half_regular_5(capsys, half_regular_5_path):
    """The 32-state instance of the audit-paths benchmark; pins its max_hamming."""
    code, payload = run(capsys, ["audit-paths", half_regular_5_path])
    assert code == 0
    assert payload == {
        "all_ok": True,
        "command": "audit-paths",
        "config": {"max_states": 256},
        "hamming_bound": 16,
        "max_hamming": 4,
        "ordered_pairs": 992,
        "pairs": None,
        "schema": "rds-kit/1",
        "states": 32,
    }


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


# SHA-256 of `rds-kit distance` from the first state to every state (itself
# included) on F2 and on the ROADMAP 4x4 instance, as reported when the command
# searched twice.
DISTANCE_REPORTS_SHA256 = "84985171f1dbe15508e133143ee72f05702f3327e2129fcdcec6e0b01bd89de0"


def test_distance_runs_one_search(capsys, f2_path, roadmap_4x4_path, monkeypatch):
    searches = []
    search = swaps.max_alternating_circuit_count
    monkeypatch.setattr(
        swaps, "max_alternating_circuit_count", lambda *a, **k: searches.append(1) or search(*a, **k)
    )
    digest = hashlib.sha256()
    for path in (f2_path, roadmap_4x4_path):
        states = oracle.enumerate_all(cli._load_instance(path))
        first = json.dumps(states[0].to_pairs())
        for state in states:
            searches.clear()
            assert cli.main(["distance", path, "--from", first, "--to", json.dumps(state.to_pairs())]) == 0
            assert len(searches) == 1
            digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == DISTANCE_REPORTS_SHA256


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
    greedy's neighbours with plain sort keys.  At n = 10, d = 10 the star
    center has 9 chords, so that instance is refused with exit code 2.
    """
    instances = [_half_regular(n, d) for n in (10, 30, 100, 150) for d in (3, 10)]
    instances.append(
        {"kind": "general", "degrees": [1, 1, 1, 1, 2], "star_center": 4, "matching": [[0, 1], [2, 3]]}
    )
    reports = []
    for i, inst in enumerate(instances):
        p = tmp_path / f"construct_{i}.json"
        p.write_text(json.dumps(inst))
        assert cli.main(["construct", str(p)]) == (2 if inst.get("u_degrees") == [10] * 10 else 0)
        reports.append(capsys.readouterr().out)
    golden = (DATA / "construct_reports.txt").read_text(encoding="utf-8")
    assert "".join(reports) == golden


# SHA-256 of chain-driven reports, as written since the chain runs on edges.
# A change that alters trajectories on purpose must replace these digests and
# say so.
PINNED_CHAIN_REPORTS = [
    ((5, 2), ["sample", "--steps", "2000", "--samples", "200", "--seed", "7"],
     "d04b5d3cdffad266bc9eabcbf2d2e9eba623fbb20d74d32c02647cf8204d91eb"),
    ((150, 10), ["sample", "--steps", "20000", "--samples", "2", "--seed", "1"],
     "1faa9edaf19dcd34a5e67f8eaca33b4f9894b1982a31a79c7f301980e65d52f8"),
    ((6, 3), ["count", "--approx", "--samples", "1000", "--seed", "0"],
     "eda25c7ed9838274052dc06d5cca355194febb280968d81c927cf62df65a15b7"),
]


@pytest.mark.parametrize(
    "size, argv, digest", PINNED_CHAIN_REPORTS, ids=["sample-swarm", "sample-n150", "count-approx"]
)
def test_chain_reports_match_pinned_digests(capsys, tmp_path, size, argv, digest):
    """sample-swarm and count-approx benchmark instances, and a short walk at n = 150."""
    p = tmp_path / "instance.json"
    p.write_text(json.dumps(_half_regular(*size)))
    assert cli.main([*argv, str(p)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_convert_directed(capsys, tmp_path):
    p = tmp_path / "D.json"
    p.write_text(json.dumps({"kind": "directed", "out_degrees": [1, 1], "in_degrees": [1, 1]}))
    code, payload = run(capsys, ["convert-directed", str(p)])
    assert code == 0
    assert payload["instance"]["kind"] == "bipartite"
    assert payload["instance"]["matching"] == [[0, 0], [1, 1]]


@pytest.mark.parametrize("raw", [
    {"kind": "bipartite", "u_degrees": [], "w_degrees": []},
    {"kind": "general", "degrees": []},
    {"kind": "directed", "out_degrees": [], "in_degrees": []},
], ids=lambda raw: raw["kind"])
def test_empty_instance_reports_on_every_subcommand(capsys, tmp_path, raw):
    """No vertices: every subcommand prints one report with a documented exit
    code, and the greedy finds the one realization, the empty graph."""
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(raw))
    reports = {}
    for argv in (
        ["check"], ["construct"], ["sample"], ["enumerate"], ["count", "--exact"],
        ["count", "--approx"], ["distance", "--from", "[]", "--to", "[]"], ["kernel"],
        ["audit-paths"], ["convert-directed"], ["bench", "--steps", "10"],
    ):
        code, payload = run(capsys, [*argv, str(p)])
        assert code in (0, 1, 2, 3) and payload["command"] == argv[0]
        reports[" ".join(argv[:2])] = code, payload
    assert reports["count --exact"][1]["count"] == reports["enumerate"][1]["count"] == "1"
    assert reports["check"][0] == reports["construct"][0] == 0
    assert reports["check"][1]["graphical"] is reports["construct"][1]["graphical"] is True
    assert [reports["construct"][1]["edges"]] == reports["enumerate"][1]["realizations"]


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


def test_degree_above_chord_count_exit_two(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(
        {"kind": "bipartite", "u_degrees": [1, 1], "w_degrees": [2, 0], "star_center": 0, "star_leaves": [0]}
    ))
    code, payload = run(capsys, ["check", str(p)])
    assert code == 2 and payload["error"] == "DegreeExceedsChords"


def test_guard_exit_three(capsys, tmp_path):
    p = tmp_path / "big.json"
    p.write_text(
        json.dumps({"kind": "bipartite", "u_degrees": [1] * 9, "w_degrees": [1] * 9, "matching": []})
    )
    code, payload = run(capsys, ["enumerate", str(p), "--max-delta", "10"])
    assert code == 3 and payload["error"] == "TooLarge"


@pytest.mark.parametrize(
    "edges",
    ['[["a", 1]]', "[[0.5, 1]]"],
    ids=["string-index", "fractional-index"],
)
def test_distance_non_integer_index_exit_two(capsys, f2_path, edges):
    argv = ["distance", f2_path, "--from", edges, "--to", "[[0, 1], [1, 2], [2, 0]]"]
    code, payload = run(capsys, argv)
    assert code == 2 and payload["error"] == "ValidationError"


@pytest.mark.parametrize(
    "matching",
    [[["a", "b"]], [[0.5, 0], [1, 1]]],
    ids=["string-index", "fractional-diagonal"],
)
def test_directed_non_integer_matching_exit_two(capsys, tmp_path, matching):
    p = tmp_path / "D.json"
    p.write_text(
        json.dumps({"kind": "directed", "out_degrees": [1, 1], "in_degrees": [1, 1], "matching": matching})
    )
    code, payload = run(capsys, ["check", str(p)])
    assert code == 2 and payload["error"] == "ValidationError"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["enumerate", "--max-delta", "0"], "TooLarge"),
        (["audit-paths", "--max-states", "0"], "TooManyStates"),
    ],
)
def test_zero_guard_exit_three(capsys, f2_path, argv, error):
    code, payload = run(capsys, [argv[0], f2_path, *argv[1:]])
    assert code == 3 and payload["error"] == error


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
        ["kernel", "--max-states", "-1"],
        ["audit-paths", "--max-states", "-1"],
        ["bench", "--max-states", "-1"],
        ["enumerate", "--max-delta", "-1"],
        ["distance", "--from", "[]", "--to", "[]", "--max-delta", "-1"],
        ["sample", "--seed", "-1"],
        ["count", "--approx", "--seed", "-1"],
        ["bench", "--seed", "-1"],
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


_F2_EDGES = [[0, 1], [1, 2], [2, 0]]
_DIRECTED = {"kind": "directed", "out_degrees": [1, 1], "in_degrees": [1, 1]}


def _invalid(message):
    return {"error": "ValidationError", "message": message}


@pytest.mark.parametrize(
    "argv, content, code, expected",
    [
        (["check", "-"], None, 0, {"graphical": True}),
        (["check", "MISSING"], None, 2, {"path": "MISSING"}),
        (["distance", "F2", "--from", "[[0, 1]", "--to", "[]"], None, 2, {"error": "malformed JSON"}),
        (["distance", "F2", "--from", "FILE", "--to", json.dumps(_F2_EDGES)],
         {"edges": _F2_EDGES}, 0, {"weight": 0, "delta": 0}),
        (["distance", "F2", "--from", "[[0, 1, 2]]", "--to", "[]"], None, 2,
         {"error": "BadRealization"}),
        (["construct", "F5"], None, 1, {"graphical": False}),
        (["sample", "F5"], None, 1, {"graphical": False}),
        (["kernel", "F5"], None, 1, {"graphical": False}),
        (["bench", "F5", "--steps", "10"], None, 1, {"graphical": False}),
        (["bench", "F2", "--steps", "10", "--max-states", "0"], None, 0, {"kernel_seconds": None}),
        (["check", "FILE"], [1, 2], 2, _invalid("instance description must be a JSON object")),
        (["check", "FILE"], {"kind": "hypergraph"}, 2, _invalid(
            "kind must be one of ('bipartite', 'general', 'directed'), got 'hypergraph'"
        )),
        (["check", "FILE"], {"kind": "bipartite", "u_degrees": [1]}, 2,
         _invalid("missing field 'w_degrees' for kind 'bipartite'")),
        (["check", "FILE"], {"kind": "bipartite", "u_degrees": 5, "w_degrees": [1]}, 2,
         _invalid("malformed instance field: 'int' object is not iterable")),
        (["check", "FILE"], {**_DIRECTED, "matching": [[0, 1], [1, 0]]}, 2,
         _invalid("directed instances carry exactly the diagonal matching")),
        (["audit-paths", "FILE"], {"kind": "bipartite", "u_degrees": [0, 2, 2], "w_degrees": [2, 0, 2],
         "matching": [[0, 0], [1, 1], [2, 2]]}, 1, {"graphical": False}),
        (["audit-paths", "FILE"], {"kind": "bipartite", "u_degrees": [0, 3, 1], "w_degrees": [2, 1, 1]},
         2, {"error": "PreconditionViolated"}),
        (["audit-paths", "FILE", "--max-states", "1"],
         {"kind": "bipartite", "u_degrees": [1, 2, 1], "w_degrees": [2, 1, 1]},
         2, {"error": "PreconditionViolated"}),
    ],
    ids=[
        "stdin", "missing-path", "from-malformed-inline", "from-file", "from-not-pairs",
        "construct-f5", "sample-f5", "kernel-f5", "bench-f5", "bench-no-kernel", "instance-not-object",
        "unknown-kind", "missing-field", "malformed-field", "directed-off-diagonal",
        "audit-not-graphical", "audit-one-state-not-half-regular", "audit-checks-before-enumerating",
    ],
)
def test_exit_paths(capsys, monkeypatch, tmp_path, f2_path, f5_path, argv, content, code, expected):
    """Exit code and report fields of input paths that no other test takes."""
    names = {"F2": f2_path, "F5": f5_path, "MISSING": str(tmp_path / "missing.json")}
    if content is not None:
        names["FILE"] = str(tmp_path / "file.json")
        Path(names["FILE"]).write_text(json.dumps(content))
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(f2_path).read_text()))
    got, payload = run(capsys, [names.get(a, a) for a in argv])
    assert got == code
    assert {k: payload.get(k) for k in expected} == {
        k: names.get(v, v) if isinstance(v, str) else v for k, v in expected.items()
    }
    assert code == 0 or "error" in payload or payload["graphical"] is False


def test_bench_schema(capsys, f2_path):
    code, payload = run(capsys, ["bench", f2_path, "--steps", "2000"])
    assert code == 0
    assert payload["proposals"] == 2000
    assert payload["proposals_per_second"] > 0
    # F2 tries a move at a step with probability 3/36 + 1/4 = 1/3
    assert 500 <= payload["tries"] <= 830 and payload["tries_per_second"] > 0
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


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.lists(st.integers(), min_size=2, max_size=2)  # the encoder's edge-pair path
    | st.tuples(st.integers(), st.booleans()),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_report_encoder_matches_json_dumps_property(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)
