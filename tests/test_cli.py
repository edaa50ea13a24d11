import hashlib
import json
import shlex
from pathlib import Path

import pytest

from cyclicforms import harness
from cyclicforms.cli import build_parser, main
from cyclicforms.counting import CyclicSubset
from cyclicforms.forms import dilate_pair, four_ap, kernel_system, three_ap


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "3ap.json"
    path.write_text(three_ap().to_json())
    return str(path)


@pytest.fixture()
def set_file(tmp_path):
    path = tmp_path / "a.txt"
    CyclicSubset(5, (0, 1)).save(path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_sol_command(capsys, system_file, set_file):
    code, out = _run(capsys, ["sol", "--system", system_file, "--set", set_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["value"] == "2/25"
    assert payload["method"] == "brute"


def test_sol_fast_flag(capsys, system_file, set_file):
    code, out = _run(capsys, ["sol", "--system", system_file, "--set", set_file, "--fast"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 2 / 25) < 1e-9
    assert payload["method"] == "fast"


def test_gowers_set_command(capsys, set_file):
    code, out = _run(capsys, ["gowers", "--set", set_file, "--d", "2"])
    assert code == 0
    assert json.loads(out)["norm"] > 0


def test_gowers_function_csv(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("index,value\n" + "\n".join(f"{i},{0.5}" for i in range(8)))
    code, out = _run(capsys, ["gowers", "--function", str(path), "--d", "3"])
    assert code == 0
    assert abs(json.loads(out)["norm"] - 0.5) < 1e-9


def test_gowers_function_csv_must_cover_range(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,0.5\n2,0.5\n")
    code, _ = _run(capsys, ["gowers", "--function", str(path), "--d", "2"])
    assert code == 1


def test_gowers_function_csv_rejects_nan(capsys, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,0.5\n1,nan\n")
    code = main(["gowers", "--function", str(path), "--d", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: values must lie in the unit disc\n" and captured.out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("0,0.5\n1,0.25\n1,0.75\n", "function CSV repeats index 1"),
        ("index,value\n0,0.5\n0,0.5\n1,0.5\n", "function CSV repeats index 0"),
        ("0,0.5\n1,0.5,1\n",
         "function CSV line 2 is not an integer index and a number: '1,0.5,1'"),
        ("index,value\n0,0.5\n\n1\n",
         "function CSV line 4 is not an integer index and a number: '1'"),
        ("x,0.5\n", "function CSV line 1 is not an integer index and a number: 'x,0.5'"),
        ("0,0.5\n1,half\n", "function CSV line 2 is not an integer index and a number: '1,half'"),
    ],
    ids=["repeated-index", "repeated-row", "too-many-fields", "too-few-fields",
         "non-integer-index", "non-numeric-value"],
)
def test_bad_function_csv_is_an_input_error(capsys, tmp_path, text, message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    code = main(["gowers", "--function", str(path), "--d", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_bad_set_file_is_an_input_error(capsys, system_file, tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("N 5\n0\n1\n1\n")
    code = main(["sol", "--system", system_file, "--set", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: set file repeats member 1\n" and captured.out == ""


@pytest.mark.parametrize("inputs", [["--set", "{set}", "--function", "{fn}"], []], ids=["both", "neither"])
def test_gowers_needs_exactly_one_input(capsys, set_file, tmp_path, inputs):
    path = tmp_path / "f.csv"
    path.write_text("0,0.5\n1,0.5\n")
    argv = [x.format(set=set_file, fn=path) for x in inputs]
    with pytest.raises(SystemExit) as exc:
        main(["gowers", *argv, "--d", "2"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def test_min_sol_exact_command(capsys, system_file):
    code, out = _run(
        capsys,
        ["min-sol", "--system", system_file, "--alpha", "2/5", "--n", "5", "--exact"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2/25"
    assert payload["boundKind"] == "equals"
    assert payload["certificate"]["modulus"] == 5


def test_max_sol_heuristic_command(capsys, system_file):
    code, out = _run(
        capsys,
        [
            "max-sol",
            "--system",
            system_file,
            "--alpha",
            "2/5",
            "--n",
            "11",
            "--heuristic",
            "--seed",
            "3",
        ],
    )
    assert code == 0
    assert json.loads(out)["boundKind"] == "lowerBound"


def test_max_free_command(capsys, tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"systems": [json.loads(dilate_pair(2).to_json())]}))
    code, out = _run(capsys, ["max-free", "--family", str(fam), "--n", "7", "--exact"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2/7"
    code, out = _run(
        capsys,
        ["max-free", "--family", str(fam), "--n", "11", "--heuristic", "--seed", "3"],
    )
    assert code == 0
    assert json.loads(out)["boundKind"] == "lowerBound"


def test_construct_commands(capsys, tmp_path):
    code, out = _run(capsys, ["construct", "weyl", "--p", "1009", "--k", "2", "--d", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["solExactlyZero"] is True
    code, out = _run(capsys, ["construct", "mult", "--k", "2", "--p", "101"])
    assert code == 0
    sysfile = tmp_path / "k.json"
    sysfile.write_text(kernel_system((1, 1, -3)).to_json())
    code, out = _run(capsys, ["construct", "interval", "--system", str(sysfile), "--n", "101"])
    assert code == 0
    assert json.loads(out)["certificate"] is not None
    # (x, 3x) at N = 2 is (x, x): every point is a configuration, so no interval is free
    sysfile.write_text(dilate_pair(3).to_json())
    code, out = _run(capsys, ["construct", "interval", "--system", str(sysfile), "--n", "2"])
    assert code == 0
    assert json.loads(out) == {
        "command": "construct-interval",
        "value": None,
        "certificate": None,
        "method": "construction",
        "boundKind": "lowerBound",
        "verification": {"note": "no free interval within the denominator budget"},
    }


def test_kernelize_command(capsys, system_file):
    code, out = _run(capsys, ["kernelize", "--system", system_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["badModulus"] == 1
    assert payload["k"] == 1


def test_nil_build_periodic(capsys):
    code, out = _run(
        capsys,
        [
            "nil",
            "build-periodic",
            "--model",
            "torus:m=2,s=2",
            "--q",
            "37",
            "--A",
            "2",
            "--seed",
            "7",
            "--verify",
            "full",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["periodicSample"] is True
    assert payload["verification"]["irrational"] is True
    sums = payload["verification"]["levelOneCharacterSums"]
    assert all(v == [0.0, 0.0] for v in sums.values())


@pytest.mark.parametrize(
    "model, q, bound, pinned",
    [
        ("torus:m=2,s=2", 17, 2, "nil_build_torus_m2_s2_q17_A2_seed1.json"),
        ("heisenberg-deg3", 67, 2, "nil_build_heisenberg-deg3_q67_A2_seed1.json"),
        ("heisenberg-lcs", 11, 1, "nil_build_heisenberg-lcs_q11_A1_seed1.json"),
    ],
)
def test_nil_build_periodic_output_pinned(capsys, model, q, bound, pinned):
    """Seeded ``--verify full`` output, byte for byte, as the dense matrix kernels gave it."""
    argv = ["nil", "build-periodic", "--model", model, "--q", str(q), "--A", str(bound),
            "--seed", "1", "--verify", "full"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / pinned).read_text(encoding="utf-8")


_FULL_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "nil_build_full_digests.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("key", sorted(_FULL_DIGESTS))
def test_nil_build_periodic_full_size_digests(capsys, key):
    """sha256 of the seed-1 ``--verify full`` output of each full-size benchmark build."""
    model, q, bound = key.split(" ")
    argv = ["nil", "build-periodic", "--model", model, "--q", q[2:], "--A", bound[2:],
            "--seed", "1", "--verify", "full"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _FULL_DIGESTS[key]


def test_scan_command(capsys, system_file, tmp_path):
    code, out = _run(
        capsys,
        [
            "--out",
            str(tmp_path),
            "scan",
            "--system",
            system_file,
            "--quantity",
            "m",
            "--alpha",
            "2/5",
            "--moduli",
            "5,7",
            "--mode",
            "exact",
        ],
    )
    assert code == 0
    assert (tmp_path / "scan_m_3AP.csv").exists()
    assert (tmp_path / "scan_m_3AP.svg").exists()


def test_scan_csv_format(capsys, system_file):
    code, out = _run(
        capsys,
        [
            "scan",
            "--format",
            "csv",
            "--system",
            system_file,
            "--quantity",
            "m",
            "--alpha",
            "2/5",
            "--moduli",
            "5",
        ],
    )
    assert code == 0
    assert out.splitlines()[0].startswith("N,isPrime")


def test_reproduce_unknown_id(capsys):
    code = main(["reproduce", "--id", "not-a-criterion"])
    err = capsys.readouterr().err
    assert code == 1
    assert "valid ids" in err


def test_reproduce_runs_small_criterion(capsys):
    code, out = _run(capsys, ["reproduce", "--id", "periodic-torus"])
    assert code == 0
    assert "PASS" in out


def test_input_error_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code = main(["kernelize", "--system", missing])
    assert code == 1


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"kappa": 2, "basis": [[[0, 0.5], [0, 0]]], "levelDims": [1, 1]}),
        "[1, 2]",
        json.dumps({"kappa": 2, "basis": [[[0, 1], [0, 0]]], "levelDims": 3}),
        json.dumps({"kappa": 2.9, "basis": [[[0, 1], [0, 0]]], "levelDims": [1, 1]}),
        json.dumps({"kappa": 2, "basis": [[[0, 1], [0, 0]]], "levelDims": [1.7, 1]}),
        json.dumps({"kappa": "2", "basis": [[[0, 1], [0, 0]]], "levelDims": [1, 1]}),
        json.dumps({"kappa": 2, "basis": [[[0, 1], [0, 0]]], "levelDims": [True, 1]}),
        json.dumps({"kappa": 2, "basis": [[[0, 1], [0, 0]]], "levelDims": [1, 1],
                    "prefiltration": "false"}),
        json.dumps({"kappa": 2, "basis": [[[0, 1], [0, 0]]], "levelDims": [1, 1], "name": 7}),
    ],
    ids=["float-basis-entry", "top-level-list", "scalar-level-dims", "float-kappa",
         "float-level-dims", "string-kappa", "bool-level-dims", "string-prefiltration",
         "integer-name"],
)
def test_malformed_model_file_is_an_input_error(capsys, tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    code = main(["nil", "build-periodic", "--model", str(path), "--q", "11", "--A", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_negative_irrationality_bound_is_an_input_error(capsys):
    code = main(["nil", "build-periodic", "--model", "torus:m=2,s=2", "--q", "11", "--A", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("model, q", [("heisenberg-lcs", 2), ("heisenberg-deg3", 3)])
def test_prime_q_at_most_the_degree_is_an_input_error(capsys, model, q):
    code = main(["nil", "build-periodic", "--model", model, "--q", str(q), "--A", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: need p_1(")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["max-sol", "--heuristic", "--budget", "-1", "--alpha", "1/2", "--n", "11"],
         "move budget"),
        (["min-sol", "--heuristic", "--budget", "-1", "--alpha", "1/2", "--n", "11"],
         "move budget"),
        (["max-sol", "--alpha", "1/2", "--n", "-3"], "modulus must be positive"),
        (["min-sol", "--alpha", "1/2", "--n", "-3"], "modulus must be positive"),
        (["min-sol", "--heuristic", "--alpha", "1/2", "--n", "0"], "modulus must be positive"),
        (["max-sol", "--alpha", "3/2", "--n", "7"], "alpha must lie between 0 and 1"),
        # flags that only --heuristic reads are refused without it
        (["min-sol", "--exact", "--budget", "-5", "--alpha", "2/5", "--n", "7"],
         "--budget applies only with --heuristic"),
        (["max-sol", "--budget", "100", "--alpha", "2/5", "--n", "7"],
         "--budget applies only with --heuristic"),
        (["min-sol", "--seed", "3", "--alpha", "2/5", "--n", "7"],
         "--seed applies only with --heuristic"),
        (["max-sol", "--exact", "--seed", "3", "--alpha", "2/5", "--n", "7"],
         "--seed applies only with --heuristic"),
        (["max-free", "--seed", "3", "--n", "7"], "--seed applies only with --heuristic"),
        (["max-free", "--exact", "--seed", "3", "--n", "7"],
         "--seed applies only with --heuristic"),
        (["scan", "--seed", "3", "--quantity", "m", "--moduli", "5"],
         "--seed applies only with --mode heuristic"),
        (["scan", "--mode", "exact", "--seed", "3", "--quantity", "m", "--moduli", "5"],
         "--seed applies only with --mode heuristic"),
        # a system file where a family file belongs
        (["max-free", "--n", "7"], 'family files hold a list of systems or {"systems": [...]}'),
    ],
)
def test_extremal_bad_size_or_budget_is_an_input_error(capsys, system_file, argv, message):
    input_flag = "--family" if argv[0] == "max-free" else "--system"
    code = main([*argv, input_flag, system_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_heuristic_flags_keep_their_defaults_and_precedence(capsys, system_file):
    argv = ["max-sol", "--system", system_file, "--alpha", "2/5", "--n", "11", "--heuristic"]
    _, local = _run(capsys, ["--seed", "1", *argv, "--seed", "3"])
    _, global_only = _run(capsys, ["--seed", "3", *argv])
    _, default = _run(capsys, argv)
    assert local == global_only
    assert default == _run(capsys, [*argv, "--budget", "4000", "--seed", "0"])[1]
    # the global --seed is accepted, and unused, by the exact solvers
    code, _ = _run(capsys, ["--seed", "3", "min-sol", *argv[1:-1], "--exact"])
    assert code == 0


def test_exact_scan_rows_carry_no_seed(capsys, system_file):
    def csv(*argv):
        code, out = _run(capsys, [*argv, "--format", "csv", "--moduli", "5,7", "--quantity", "m"])
        assert code == 0
        return [row.rsplit(",", 1)[0] for row in out.splitlines()]  # drop elapsedMs

    scan = ["scan", "--system", system_file, "--alpha", "2/5"]
    exact = csv("--seed", "5", *scan)
    assert exact == csv("--seed", "6", *scan)
    assert [row.rsplit(",", 1)[1] for row in exact[1:]] == ["", ""]
    heuristic = csv("--seed", "6", *scan, "--mode", "heuristic")
    assert heuristic == csv(*scan, "--mode", "heuristic", "--seed", "6")
    assert [row.rsplit(",", 1)[1] for row in heuristic[1:]] == ["6", "6"]


def test_budget_exhaustion_exit_code(capsys, system_file):
    code, _ = _run(
        capsys,
        [
            "scan",
            "--budget-ms",
            "0",
            "--system",
            system_file,
            "--quantity",
            "m",
            "--alpha",
            "2/5",
            "--moduli",
            "5,7,11",
        ],
    )
    assert code == 2


@pytest.mark.parametrize("option", [["--budget-ms", "1"], ["--format", "csv"]])
@pytest.mark.parametrize("command", ["min-sol", "scan"])
def test_scan_only_options_are_usage_errors_before_a_command(
    capsys, system_file, option, command
):
    rest = ["--moduli", "5", "--quantity", "m"] if command == "scan" else ["--n", "21"]
    with pytest.raises(SystemExit) as exc:
        main([*option, command, "--system", system_file, "--alpha", "2/5", *rest])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def _readme_command_lines():
    """(line number, tokens) of each ``cyclicforms ...`` line in README's fenced blocks."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    fenced = False
    for number, line in enumerate(readme.read_text(encoding="utf-8").splitlines(), 1):
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("cyclicforms "):
            yield number, shlex.split(line)[1:]


def test_readme_command_lines_parse():
    lines = list(_readme_command_lines())
    assert len(lines) >= 10
    failing = []
    for number, tokens in lines:
        optional = [t for t in tokens if t.startswith("[") and t.endswith("]")]
        required = [t for t in tokens if t not in optional]
        # an optional "[--flag]" is tried both left out and given
        for argv in (required, [t.strip("[]") for t in tokens]):
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                failing.append(f"README.md:{number}: {' '.join(argv)}")
    assert not failing, failing


def test_cached_parser_keeps_no_state_between_calls():
    assert build_parser() is build_parser()
    argv = ["min-sol", "--system", "s.json", "--alpha", "1/3", "--n", "9"]
    first = vars(build_parser().parse_args(argv))
    build_parser().parse_args(["--seed", "5", "--out", "d", *argv, "--heuristic", "--seed", "2"])
    assert vars(build_parser().parse_args(argv)) == first


def test_scan_alpha_out_of_range_is_an_input_error(capsys, system_file):
    code = main(
        ["scan", "--system", system_file, "--quantity", "m", "--alpha", "7/5", "--moduli", "5,7"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def _save_set(tmp_path, n):
    path = tmp_path / f"set{n}.txt"
    CyclicSubset(n, (0, 1)).save(path)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["min-sol", "--system", "{3ap}", "--alpha", "2/5", "--n", "30"],
        ["sol", "--system", "{3ap}", "--set", "{set40000}"],
        ["gowers", "--set", "{set200}", "--d", "5"],
        ["sol", "--fast", "--system", "{4ap}", "--set", "{set5003}"],
        ["max-free", "--family", "{family}", "--n", "63"],
    ],
    ids=["min-sol", "sol", "gowers", "sol-fast", "max-free"],
)
def test_caps_exit_2(capsys, tmp_path, argv):
    files = {
        "3ap": str(tmp_path / "3ap.json"),
        "4ap": str(tmp_path / "4ap.json"),
        "family": str(tmp_path / "fam.json"),
        "set40000": _save_set(tmp_path, 40000),
        "set200": _save_set(tmp_path, 200),
        "set5003": _save_set(tmp_path, 5003),
    }
    Path(files["3ap"]).write_text(three_ap().to_json())
    Path(files["4ap"]).write_text(four_ap().to_json())
    Path(files["family"]).write_text(json.dumps([json.loads(dilate_pair(2).to_json())]))
    code = main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("budget exhausted: ")
    assert captured.out == ""


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    for argv in (["sol", "--system", "x.json"], ["--bogus"], ["scan", "--quantity", "z"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["min-sol", "max-sol", "scan"])
@pytest.mark.parametrize("alpha", ["1/0", "two"])
def test_bad_alpha_is_a_usage_error(capsys, system_file, command, alpha):
    rest = ["--moduli", "5", "--quantity", "m"] if command == "scan" else ["--n", "5"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--system", system_file, "--alpha", alpha, *rest])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"cyclicforms {command}: error: argument --alpha: invalid fraction: {alpha!r}"
    ]
    assert "Traceback" not in err


def _scan_json(capsys, system_file, *args):
    code = main(["scan", "--system", system_file, "--quantity", "m", "--alpha", "2/5", *args])
    payload = json.loads(capsys.readouterr().out)
    rows = [row.rsplit(",", 1)[0] for row in payload["rows"]]  # drop elapsedMs
    return code, rows, payload["skipped"]


def test_scan_prime_floor_skips_exit_0(capsys, system_file):
    code, rows, skipped = _scan_json(capsys, system_file, "--moduli", "5,6,7", "--min-p1", "3")
    assert code == 0
    assert rows == [
        "5,1,5,m,0.08,exact,",
        "6,0,2,m,,skipped,",
        "7,1,7,m,0.061224489795918366,exact,",
    ]
    assert skipped == [6]


def test_scan_oversized_modulus_exits_2_with_the_same_rows(capsys, system_file):
    code, rows, skipped = _scan_json(capsys, system_file, "--moduli", "5,23")
    assert code == 2
    assert rows == ["5,1,5,m,0.08,exact,", "23,1,23,m,,skipped,"]
    assert skipped == [23]


def test_scan_ignore_constant_reads_the_non_constant_density(capsys, system_file):
    # every point x is the constant 3AP (x, x, x), so d is 0 without the flag;
    # with it, d is the largest 3AP-free density: 2/5 at N = 5, 4/9 at N = 9
    argv = ["scan", "--system", system_file, "--quantity", "d", "--moduli", "5,9",
            "--format", "csv"]
    assert main(argv) == 0
    rows = [row.rsplit(",", 1)[0] for row in capsys.readouterr().out.splitlines()[1:]]
    assert rows == ["5,1,5,d,0.0,exact,", "9,0,3,d,0.0,exact,"]
    assert main([*argv, "--ignore-constant"]) == 0
    rows = [row.rsplit(",", 1)[0] for row in capsys.readouterr().out.splitlines()[1:]]
    assert rows == ["5,1,5,d,0.4,exact,", "9,0,3,d,0.4444444444444444,exact,"]


@pytest.mark.parametrize("quantity", ["m", "M"])
def test_scan_ignore_constant_with_m_or_M_is_an_input_error(capsys, system_file, quantity):
    argv = ["scan", "--system", system_file, "--quantity", quantity, "--moduli", "5,7"]
    assert main([*argv, "--ignore-constant"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: ignore_constant applies only to the quantity d\n"
    assert captured.out == ""


def test_scan_input_error_inside_a_modulus_exits_1(capsys, monkeypatch, system_file):
    run_quantity = harness._run_quantity

    def bad_at_7(system, quantity, alpha, n, *options):
        if n == 7:
            raise ValueError("not a budget")
        return run_quantity(system, quantity, alpha, n, *options)

    monkeypatch.setattr(harness, "_run_quantity", bad_at_7)
    code = main(
        ["scan", "--system", system_file, "--quantity", "m", "--alpha", "2/5", "--moduli", "5,7"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: not a budget\n"
    assert captured.out == ""
