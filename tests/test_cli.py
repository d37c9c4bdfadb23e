import argparse
import contextlib
import io
import json
import math
import sys
import time
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from circleconj import conjugacy
from circleconj.cli import main
from circleconj.exactnum import Surd, UnimodularMatrix2, mobius_apply
from support import time_limit

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_descriptor(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


ROOT2 = {"a": -1, "b": 1, "c": 1, "d": 2}


def test_cf_pinned_root2(capsys):
    code, out, _ = run(capsys, "cf", "--surd", "a=-1,b=1,c=1,d=2")
    assert code == 0
    blob = json.loads(out)
    assert blob["cf"] == {"preperiod": [0], "period": [2]}
    assert blob["stabilizer_generator"] == [2, 1, 1, 0]
    assert blob["value"].startswith("0.41421356")


def test_cf_golden_conjugate(capsys):
    code, out, _ = run(capsys, "cf", "--surd", "a=-1,b=1,c=2,d=5")
    assert code == 0
    blob = json.loads(out)
    assert blob["cf"]["period"] == [1]


def test_cf_rational_rejected(capsys):
    code, _, err = run(capsys, "cf", "--surd", "a=0,b=0,c=1,d=2")
    assert code == 2
    assert "error" in err


def test_cf_malformed_rejected(capsys):
    for surd, message in [
        ("a=1,q=2", "unknown surd fields: ['q']"),
        ("a=1,b", "malformed surd component 'b' (expected key=value)"),
        ("a=1,a=2", "duplicate surd field 'a'"),
        ("b=1,d=2", "missing field 'a'"),
        ("a=1,b=1,c=0,d=2", "surd denominator is zero"),
        ("a=0,b=1,c=1,d=1000000000000000000000000000057", "radicand d = 10"),
    ]:
        code, out, err = run(capsys, "cf", "--surd", surd)
        assert code == 2, surd
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_decide_identical_files(capsys):
    path = str(SAMPLES / "root2_k2_a.json")
    code, out, _ = run(capsys, "decide", path, path)
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "conjugate"
    assert blob["witness"]["f_alpha"] == [1, 0, 0, 1]
    assert blob["witness"]["w"] == [0, 0]


def test_decide_twisted_pair(capsys):
    code, out, _ = run(
        capsys, "decide", str(SAMPLES / "root2_k2_a.json"), str(SAMPLES / "root2_k2_b.json")
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["witness"]["f_alpha"] == [2, 1, 1, 0]
    assert blob["witness"]["h"] == [0, -1]


def test_decide_negative_with_certificate(capsys, tmp_path):
    d2 = write_descriptor(
        tmp_path, "bad.json", {"alpha": ROOT2, "n": 2, "k": 2, "g": [1, 1]}
    )
    code, out, _ = run(capsys, "decide", str(SAMPLES / "root2_k2_a.json"), d2)
    assert code == 1
    blob = json.loads(out)
    assert blob["verdict"] == "not_conjugate"
    assert "congruence" in blob["certificate"]["reason"]


def test_decide_rank_mismatch_exit1(capsys):
    code, out, _ = run(
        capsys, "decide", str(SAMPLES / "root2_k2_a.json"), str(SAMPLES / "golden_k3.json")
    )
    assert code == 1
    assert json.loads(out)["certificate"]["reason"] == "rank_mismatch"


def test_decide_undecided_exit3(capsys, tmp_path):
    nq = write_descriptor(
        tmp_path,
        "nq.json",
        {"alpha": {"nonquadratic_cf": [0, 2, 1, 1, 3]}, "n": 2, "k": 2, "g": [1, 0]},
    )
    code, out, _ = run(capsys, "decide", nq, nq)
    assert code == 3
    assert json.loads(out)["verdict"] == "undecided_nonquadratic"


def test_decide_invalid_descriptor_exit2(capsys, tmp_path):
    bad = write_descriptor(
        tmp_path, "torsion.json", {"alpha": ROOT2, "n": 2, "k": 2, "g": [2, 2]}
    )
    code, _, err = run(capsys, "decide", bad, bad)
    assert code == 2
    assert "torsion" in err


def test_decide_missing_file_exit2(capsys, tmp_path):
    code, _, err = run(capsys, "decide", str(tmp_path / "nope.json"), str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


def test_orbit_writes_files_and_is_deterministic(capsys, tmp_path):
    csv1 = tmp_path / "orbit1.csv"
    svg = tmp_path / "orbit.svg"
    args = [
        "orbit",
        str(SAMPLES / "root2_k2_a.json"),
        "--t0",
        "0.2879",
        "--count",
        "60",
        "--svg",
        str(svg),
        "--seed",
        "5",
    ]
    code, out, _ = run(capsys, *args, "--out", str(csv1))
    assert code == 0
    blob = json.loads(out)
    assert blob["seed"] == 5
    lines = csv1.read_text().strip().split("\n")
    assert lines[0] == "index,t"
    assert len(lines) >= 50
    assert svg.read_text().startswith("<svg")
    # bit-identical on rerun with the same seed
    csv2 = tmp_path / "orbit2.csv"
    run(capsys, *args, "--out", str(csv2))
    assert csv1.read_text() == csv2.read_text()


def test_orbit_zero_count_keeps_start_point(capsys, tmp_path):
    csv = tmp_path / "orbit.csv"
    code, _, _ = run(
        capsys,
        "orbit",
        str(SAMPLES / "root2_k2_a.json"),
        "--t0",
        "0.41",
        "--count",
        "0",
        "--out",
        str(csv),
    )
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 2  # header plus t0 itself
    assert lines[1].startswith("0,0.41")


def test_orbit_marked_start_rejected(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "orbit",
        str(SAMPLES / "root2_k2_a.json"),
        "--t0",
        "1/2",
        "--count",
        "10",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "marked" in err


def test_orbit_zero_denominator_start_exit2(capsys, tmp_path):
    d = str(SAMPLES / "root2_k2_a.json")
    code, out, err = run(capsys, "orbit", d, "--t0", "1/0", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert out == ""
    assert err == "error: --t0 must be a decimal or a fraction p/q, got '1/0'\n"
    assert not (tmp_path / "x.csv").exists()


def test_verify_conjugate_pair(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        str(SAMPLES / "root2_k2_a.json"),
        str(SAMPLES / "root2_k2_b.json"),
        "--grid",
        "10",
        "--out",
        str(out_path),
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["report"]["ok"]
    assert json.loads(out_path.read_text()) == blob


def test_main_builds_its_parser_once_and_parses_each_call_afresh(capsys, monkeypatch):
    pair = (str(SAMPLES / "root2_k2_a.json"), str(SAMPLES / "root2_k2_b.json"))
    code, out, _ = run(capsys, "verify", *pair, "--seed", "5", "--grid", "7")
    assert code == 0
    first = json.loads(out)
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(self) or init(self, *a, **kw)
    )
    code, out, _ = run(capsys, "verify", *pair)
    assert code == 0
    assert built == []  # neither the parser nor a subparser is built again
    second = json.loads(out)
    assert (first["seed"], first["report"]["grid_size"]) == (5, 7)
    assert (second["seed"], second["report"]["grid_size"]) == (0, 48)  # the defaults, not the last flags


def test_verify_corrupted_witness_fails(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        str(SAMPLES / "root2_k2_a.json"),
        str(SAMPLES / "root2_k2_b.json"),
        "--grid",
        "10",
        "--corrupt-witness",
    )
    assert code == 1
    blob = json.loads(out)
    assert not blob["report"]["ok"]
    assert blob["corrupt_witness"] is True


def test_verify_a_group_against_itself(capsys, tmp_path):
    # the witness realizes psi = Identity(), which breaks nowhere
    for n, k, g in ((2, 2, [1, 0]), (3, 3, [1, 0, 2])):
        path = write_descriptor(tmp_path, f"self{n}.json", {"alpha": ROOT2, "n": n, "k": k, "g": g})
        code, out, _ = run(capsys, "verify", path, path, "--grid", "12")
        assert code == 0
        generators = json.loads(out)["report"]["generators"]
        assert all((g["evaluated"], g["skipped"]) == (12, 0) for g in generators)


@pytest.mark.parametrize("command", ["decide", "verify", "orbit"])
def test_deeply_nested_descriptor_exit2_on_one_line(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    args = [str(path)] if command == "orbit" else [str(path), str(path)]
    if command == "orbit":
        args += ["--t0", "0.3", "--out", str(tmp_path / "x.csv")]
    code, out, err = run(capsys, command, *args)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_verify_not_conjugate_exit3(capsys, tmp_path):
    d2 = write_descriptor(
        tmp_path, "other.json", {"alpha": ROOT2, "n": 2, "k": 2, "g": [1, 1]}
    )
    code, out, _ = run(capsys, "verify", str(SAMPLES / "root2_k2_a.json"), d2)
    assert code == 3
    assert json.loads(out)["report"] is None


def test_global_flags_accepted(capsys):
    code, out, _ = run(
        capsys,
        "--precision-bits",
        "128",
        "--delta",
        "1e-5",
        "cf",
        "--surd",
        "a=-1,b=1,c=1,d=2",
    )
    assert code == 0


def test_a_shared_flag_counts_the_same_before_and_after_the_subcommand(capsys):
    pair = (str(SAMPLES / "root2_k2_a.json"), str(SAMPLES / "root2_k2_b.json"))
    flags = ("--seed", "5", "--precision-bits", "128", "--delta", "1e-3")
    before = run(capsys, *flags, "verify", *pair, "--grid", "7")
    after = run(capsys, "verify", *pair, "--grid", "7", *flags)
    assert before == after

    def chosen(out):
        blob = json.loads(out)
        return blob["seed"], blob["report"]["working_bits"], blob["report"]["trust_margin"]

    assert chosen(before[1]) == (5, 128, 1e-3)
    assert chosen(run(capsys, "verify", *pair, "--grid", "7")[1]) == (0, 256, 1e-4)  # the defaults


def test_verify_at_128_bits(capsys):
    code, out, _ = run(
        capsys,
        "--precision-bits",
        "128",
        "verify",
        str(SAMPLES / "root2_k2_a.json"),
        str(SAMPLES / "root2_k2_b.json"),
    )
    assert code == 0
    assert json.loads(out)["report"]["ok"]


def test_verify_at_a_delta_just_below_a_quarter_arc(capsys):
    # k = 2: the window that keeps the margin is 8e-8 of each arc wide, and
    # every draw is placed inside it, so the grid costs --grid draws
    with time_limit(20):
        code, out, _ = run(
            capsys, "verify", str(SAMPLES / "root2_k2_a.json"), str(SAMPLES / "root2_k2_b.json"),
            "--delta=0.12499999",
        )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["ok"] and report["trust_margin"] == 0.12499999
    assert all((g["evaluated"], g["skipped"]) == (48, 0) for g in report["generators"])


@pytest.mark.parametrize("flag", [("--precision-bits", "32"), ("--delta", "0")])
@pytest.mark.parametrize(
    "command",
    [
        ("orbit", str(SAMPLES / "root2_k2_a.json"), "--t0", "0.3", "--count", "5"),
        ("verify", str(SAMPLES / "root2_k2_a.json"), str(SAMPLES / "root2_k2_b.json")),
        ("decide", str(SAMPLES / "root2_k2_a.json"), str(SAMPLES / "root2_k2_b.json")),
        ("cf", "--surd", "a=-1,b=1,c=1,d=2"),
    ],
    ids=["orbit", "verify", "decide", "cf"],
)
def test_bad_precision_flag_exit2(capsys, tmp_path, flag, command):
    extra = ("--out", str(tmp_path / "x.csv")) if command[0] == "orbit" else ()
    code, out, err = run(capsys, *command, *extra, *flag)
    assert code == 2
    assert out == ""
    bound = "at least 64" if flag[0] == "--precision-bits" else "positive"
    assert err == f"error: {flag[0]} must be {bound}\n"


@pytest.mark.parametrize(
    "command, rule",
    [
        (("verify", "--corrupt-witness", "--tol", "nan"), "--tol must be finite and positive"),
        (("verify", "--corrupt-witness", "--tol", "inf"), "--tol must be finite and positive"),
        (("verify", "--tol", "-1"), "--tol must be finite and positive"),
        (("verify", "--tol", "0"), "--tol must be finite and positive"),
        (("verify", "--grid", "0"), "--grid must be at least 1"),
        (("verify", "--grid", "-2"), "--grid must be at least 1"),
        (("orbit", "--t0", "0.3", "--count", "-5"), "--count must be nonnegative"),
        (("verify", "--delta", "0.3"), "--delta must be below 1/(4k) = 0.125 for k = 2"),
        (("orbit", "--t0", "abc"), "--t0 must be a decimal or a fraction p/q, got 'abc'"),
    ],
    ids=[
        "tol-nan", "tol-inf", "tol-negative", "tol-zero", "grid-zero", "grid-negative",
        "count-negative", "delta-no-grid", "t0-not-a-number",
    ],
)
def test_bad_sampling_flag_exit2(capsys, tmp_path, command, rule):
    a, b = str(SAMPLES / "root2_k2_a.json"), str(SAMPLES / "root2_k2_b.json")
    files = (a, "--out", str(tmp_path / "x.csv")) if command[0] == "orbit" else (a, b)
    code, out, err = run(capsys, command[0], *files, *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {rule}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "command, message",
    [
        (("orbit", "--t0", "0.3", "--count", "abc"), "argument --count: invalid int value: 'abc'"),
        (("verify", "--delta", "-1e+16"), "argument --delta: expected one argument"),
    ],
    ids=["count-not-an-int", "delta-read-as-a-flag"],
)
def test_unparsable_flag_exit2_on_one_line(capsys, tmp_path, command, message):
    # argparse's own errors: no usage block, one line on stderr
    a, b = str(SAMPLES / "root2_k2_a.json"), str(SAMPLES / "root2_k2_b.json")
    files = (a, "--out", str(tmp_path / "x.csv")) if command[0] == "orbit" else (a, b)
    code, out, err = run(capsys, command[0], *files, *command[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_orbit_nonquadratic_base_point_exit3(capsys, tmp_path):
    d = write_descriptor(
        tmp_path, "nq.json", {"alpha": {"nonquadratic_cf": [0, 1, 2, 3, 4, 5]}, "n": 2, "k": 2, "g": [1, 0]}
    )
    code, out, err = run(capsys, "orbit", d, "--t0", "0.3", "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert out == ""
    assert err.startswith("not applicable: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "command",
    [
        ("cf", "--surd", "a=-1,b=1,c=1,d=2", "--out", "{bad}"),
        ("decide", "{a}", "{b}", "--out", "{bad}"),
        ("verify", "{a}", "{b}", "--grid", "4", "--out", "{bad}"),
        ("orbit", "{a}", "--t0", "0.3", "--count", "5", "--out", "{bad}"),
        ("orbit", "{a}", "--t0", "0.3", "--count", "5", "--out", "{csv}", "--svg", "{bad}"),
    ],
    ids=["cf", "decide", "verify", "orbit-csv", "orbit-svg"],
)
def test_an_output_path_that_cannot_be_written_exits2_on_one_line(capsys, tmp_path, command):
    paths = {
        "a": str(SAMPLES / "root2_k2_a.json"),
        "b": str(SAMPLES / "root2_k2_b.json"),
        "bad": str(tmp_path / "missing" / "out"),  # in a directory that does not exist
        "csv": str(tmp_path / "x.csv"),
    }
    code, out, err = run(capsys, *(arg.format(**paths) for arg in command))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "missing" in err


def test_descriptor_missing_field_exit2(capsys, tmp_path):
    bad = write_descriptor(tmp_path, "nog.json", {"alpha": ROOT2, "n": 2, "k": 2})
    for command in ("decide", "verify"):
        code, _, err = run(capsys, command, bad, bad)
        assert code == 2
        assert err == "error: missing field 'g'\n"


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ({"alpha": ROOT2, "n": 2, "k": True, "g": [1, 0]}, "k must be an integer"),
        ({"alpha": ROOT2, "n": 2, "k": 2, "g": [1.7, 0]}, "g entry must be an integer"),
        ({"alpha": {**ROOT2, "a": -1.5}, "n": 2, "k": 2, "g": [1, 0]}, "a must be an integer"),
        ({"alpha": ROOT2, "n": 2.0, "k": 2, "g": [1, 0]}, "n must be an integer"),
        ("abc", "descriptor must be a JSON object"),
        (5, "descriptor must be a JSON object"),
        (None, "descriptor must be a JSON object"),
        ({"alpha": ROOT2, "n": 2, "k": 2, "g": 5}, "g must be a JSON list of integers"),
        ({"alpha": ROOT2, "n": 2, "k": 2, "g": "10"}, "g must be a JSON list of integers"),
        (
            {"alpha": {"nonquadratic_cf": 5}, "n": 2, "k": 2, "g": [1, 0]},
            "nonquadratic_cf must be a JSON list of integers",
        ),
        ({"alpha": {**ROOT2, "c": 0}, "n": 2, "k": 2, "g": [1, 0]}, "surd denominator is zero"),
        ({"alpha": {**ROOT2, "d": 10**47 + 7}, "n": 2, "k": 2, "g": [1, 0]}, "radicand d = 10"),
    ],
    ids=[
        "bool-k", "float-g", "float-alpha", "float-n", "string", "number", "null", "number-g",
        "string-g", "number-nonquadratic-cf", "zero-c", "huge-radicand",
    ],
)
def test_descriptor_non_integer_exit2(capsys, tmp_path, descriptor, message):
    bad = write_descriptor(tmp_path, "bad.json", descriptor)
    code, out, err = run(capsys, "decide", bad, str(SAMPLES / "root2_k2_a.json"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_failed_self_check_exit4(capsys, monkeypatch):
    monkeypatch.setattr(conjugacy, "check_witness", lambda *args: (False, "rejected"))
    code, out, err = run(
        capsys, "decide", str(SAMPLES / "root2_k2_a.json"), str(SAMPLES / "root2_k2_b.json")
    )
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_unexpected_fault_exit4(capsys, tmp_path):
    # the stabilizer walk gives up on this huge cycle length; that is a fault
    # of the program, so it must not print a traceback or exit 1
    paths = [
        write_descriptor(tmp_path, f"{name}.json", {"alpha": ROOT2, "n": 2, "k": 10000019, "g": g})
        for name, g in (("a", [1, 0]), ("b", [1, 1]))
    ]
    code, out, err = run(capsys, "decide", *paths)
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: stabilizer cycle did not close\n"


def test_cf_prints_a_generator_longer_than_the_int_string_limit(capsys):
    # sqrt(10238251) has period 8466, and T has entries of 4343 digits
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "cf", "--surd", "a=0,b=1,c=1,d=10238251")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        blob = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    T = UnimodularMatrix2.from_json(blob["stabilizer_generator"])
    assert max(abs(v) for v in T.to_json()) >= 10**4300  # more than 4300 digits
    surd = Surd.from_json(blob["surd"])
    assert mobius_apply(T, surd) == surd


def test_gauss_map_cap_exit4(capsys):
    # the continued fraction of sqrt(10**10 + 19) runs past the Gauss map's
    # cap; the walk on integer states builds no Surd, so it gets there fast
    start = time.perf_counter()
    code, out, err = run(capsys, "cf", "--surd", "a=0,b=1,c=1,d=10000000019")
    assert time.perf_counter() - start < 5
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: Gauss map did not cycle within its cap of 100000 steps\n"


# -- orbit exit codes over generated flags --------------------------------------------

BITS = (64, 128, 256)
NONQUADRATIC = {"alpha": {"nonquadratic_cf": [0, 1, 2, 3, 4, 5]}, "n": 2, "k": 2, "g": [1, 0]}


@pytest.fixture(scope="module")
def orbit_files(tmp_path_factory):
    """(descriptor path, its k) for k = 2, 3 and a non-quadratic base point, and a CSV path."""
    tmp = tmp_path_factory.mktemp("orbit-exit-codes")
    nq = tmp / "nq.json"
    nq.write_text(json.dumps(NONQUADRATIC))
    paths = ((str(SAMPLES / "root2_k2_a.json"), 2), (str(SAMPLES / "golden_k3.json"), 3), (str(nq), 2))
    return paths, tmp / "x.csv"


def t0_texts(k: int):
    """Decimals, p/q, marked points, points outside [0, 1), nan, 1/0 and garbage."""
    decimals = st.decimals(min_value=-3, max_value=3, places=6).map(str)
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=1000).map(str)
    marked = st.integers(-2 * k, 2 * k).map(lambda j: f"{j}/{k}")
    return st.one_of(
        decimals, fractions, marked,
        st.sampled_from(("nan", "inf", "-inf", "1/0", "0", "1", "1e-400", "1.5", "-0.25", "7/3", "")),
        st.text(max_size=8),
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_orbit_exit_codes_over_generated_flags(orbit_files, data):
    descriptors, csv = orbit_files
    path, k = data.draw(st.sampled_from(descriptors))
    # --flag=value, so that argparse takes a value like -1e+16 as the value
    argv = [
        "orbit", path, f"--t0={data.draw(t0_texts(k))}", f"--out={csv}",
        f"--count={data.draw(st.integers(-3, 20))}",
        f"--precision-bits={data.draw(st.one_of(st.sampled_from(BITS), st.integers(-8, 320)))}",
        f"--delta={data.draw(st.one_of(st.floats(1e-9, 0.05), st.floats()))!r}",
        f"--seed={data.draw(st.integers(0, 9))}",
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["csv"] == str(csv)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv


# -- cf exit codes over generated fields ----------------------------------------------


@st.composite
def surd_texts(draw):
    """--surd text whose fields may be missing, duplicated or unknown, whose
    values may be no integers, with c = 0, radicands up to 10**6 that are not
    square-free or not positive, and rational surds (b = 0 or d = 1)."""
    values = {
        "a": st.integers(-1000, 1000),
        "b": st.one_of(st.integers(1, 60), st.integers(-60, 60)),
        "c": st.one_of(st.integers(1, 30), st.integers(-30, 30)),
        "d": st.one_of(st.integers(2, 10**6), st.sampled_from((-2, 0, 1, 4, 12, 94, 10**6))),
    }
    junk = st.sampled_from(("1.5", "x", "", "1e3", "--1", "0x1f"))
    rare = st.sampled_from((False,) * 9 + (True,))  # one time in ten
    keys = [key for key in "abcd" if not draw(rare)]  # a missing field
    if draw(rare):
        keys.append(draw(st.sampled_from("abcdq")))  # a duplicate or unknown field
    parts = []
    for key in keys:
        value = draw(junk) if draw(rare) else draw(values.get(key, st.integers(0, 9)))
        parts.append(f"{key}={value}")
    return ",".join(parts)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(surd=surd_texts(), bits=st.one_of(st.sampled_from(BITS), st.integers(-8, 320)))
def test_cf_exit_codes_over_generated_fields(surd, bits):
    argv = ["cf", f"--surd={surd}", f"--precision-bits={bits}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["cf"]["period"]
    else:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv


# -- verify exit codes over generated flags -------------------------------------------


def mostly(usual, rare):
    """usual, and rare one time in five."""
    return st.sampled_from((False,) * 4 + (True,)).flatmap(lambda odd: rare if odd else usual)


def delta_texts(k: int):
    """--delta: margins below 1/(4k), some just below it, and rarely 0,
    negative, nan, inf, 1/(4k) itself, just above it, or any float."""
    edge = 1 / (4 * k)
    below = st.one_of(
        st.floats(1e-9, edge, exclude_max=True), st.sampled_from((edge * (1 - 1e-9), math.nextafter(edge, 0)))
    )
    odd = (0.0, -0.0, -1e-4, -1e16, math.nan, math.inf, -math.inf, edge, math.nextafter(edge, 1), edge * (1 + 1e-9))
    return mostly(below, st.one_of(st.sampled_from(odd), st.floats())).map(repr)


@pytest.fixture(scope="module")
def verify_files(tmp_path_factory):
    """(d1, d2, k of d1) for a conjugate pair at k = 2, a group against itself at
    k = 3, a rank-3 pair against itself at k = 6, and a pair of unequal k."""
    rank3 = tmp_path_factory.mktemp("verify-exit-codes") / "rank3.json"
    rank3.write_text(json.dumps({"alpha": ROOT2, "n": 3, "k": 6, "g": [1, 0, 2]}))
    a, b, golden = (str(SAMPLES / name) for name in ("root2_k2_a.json", "root2_k2_b.json", "golden_k3.json"))
    return ((a, b, 2), (golden, golden, 3), (str(rank3), str(rank3), 6), (a, golden, 2))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_verify_exit_codes_over_generated_flags(verify_files, data):
    d1, d2, k = data.draw(st.sampled_from(verify_files))
    # --flag=value, so that argparse takes a value like -1e+16 as the value
    argv = [
        "verify", d1, d2,
        f"--grid={data.draw(st.integers(1, 6))}",
        f"--delta={data.draw(delta_texts(k))}",
        f"--tol={data.draw(mostly(st.floats(1e-80, 1), st.floats()))!r}",
        f"--precision-bits={data.draw(st.integers(60, 300))}",
        f"--seed={data.draw(st.integers(0, 2**32))}",
    ] + (["--corrupt-witness"] if data.draw(st.booleans()) else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), time_limit(60):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
    else:
        blob = json.loads(out.getvalue())
        assert (blob["report"] is None) == (code == 3), argv
        if blob["report"] is not None:
            assert blob["report"]["ok"] == (code == 0), argv


# -- decide exit codes over generated descriptors -------------------------------------

BASES = (ROOT2, {"a": -1, "b": 1, "c": 2, "d": 5}, {"a": -9, "b": 1, "c": 1, "d": 94})
JUNK = (None, True, 1.5, "2", [], {}, -1, 0, 10**40)


@st.composite
def descriptor_objects(draw):
    """A descriptor that is mostly valid, of rank 2 to 4 with k up to 6, g of
    content 1 and a quadratic or a declared non-quadratic base point, and
    otherwise malformed, one field in ten: a base point that is no irrational
    quadratic in (0, 1) or a prefix with a bad quotient, a value of the
    wrong type or range, g of the wrong length or content, a field missing or
    unknown, or no object at all."""
    rare = st.sampled_from((False,) * 9 + (True,))

    def usually(usual, odd):
        return rare.flatmap(lambda is_odd: odd if is_odd else usual)

    surds = st.fixed_dictionaries({
        "a": st.integers(-20, 20), "b": st.integers(-3, 3), "c": st.integers(-12, 12),
        "d": st.sampled_from((2, 3, 5, 7, 94, 0, 1, 4, 12, -2, 10**13)),
    })
    prefixes = st.lists(st.integers(1, 9), min_size=1, max_size=6).map(lambda cf: {"nonquadratic_cf": [0, *cf]})
    odd_prefixes = st.fixed_dictionaries({"nonquadratic_cf": st.lists(st.integers(-2, 9), max_size=6)})
    alpha = draw(usually(st.one_of(st.sampled_from(BASES), prefixes),
                         st.one_of(surds, odd_prefixes, st.sampled_from(JUNK))))
    n = draw(usually(st.integers(2, 4), st.one_of(st.integers(-1, 5), st.sampled_from(JUNK))))
    k = draw(usually(st.integers(1, 6), st.one_of(st.integers(-2, 12), st.sampled_from(JUNK))))
    size = n if type(n) is int and 1 <= n <= 5 and not draw(rare) else draw(st.integers(1, 5))
    rest = st.lists(st.integers(-3, 3), min_size=size - 1, max_size=size - 1)
    g = draw(usually(st.tuples(st.sampled_from((1, -1)), rest).map(lambda p: [p[0], *p[1]]),
                     st.one_of(st.lists(st.integers(-4, 4), max_size=5), st.sampled_from(JUNK))))
    obj = {"alpha": alpha, "n": n, "k": k, "g": g}
    if draw(rare):
        del obj[draw(st.sampled_from(sorted(obj)))]
    if draw(rare):
        obj[draw(st.sampled_from(("q", "alpha", "fspec")))] = 1
    return draw(usually(st.just(obj), st.sampled_from(JUNK)))


def descriptor_texts():
    """JSON text of a generated descriptor, or rarely text that is no JSON or
    nests deeper than the parser's stack."""
    broken = st.sampled_from(("", "{", "[1, 2", "nan", "{'n': 2}", "[" * 100000 + "]" * 100000))
    return mostly(descriptor_objects().map(json.dumps), broken)


@pytest.fixture(scope="module")
def descriptor_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("decide-exit-codes")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_decide_exit_codes_over_generated_descriptors(descriptor_dir, data):
    first = data.draw(descriptor_texts())
    # the second file is often the first, so that valid pairs are often conjugate
    second = data.draw(st.one_of(st.just(first), descriptor_texts()))
    paths = []
    for name, text in (("d1.json", first), ("d2.json", second)):
        path = descriptor_dir / name
        path.write_text(text)
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), time_limit(60):
        code = main(["decide", *paths])
    event(f"exit {code}")
    assert code in (0, 1, 2, 3, 4), (first, second, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (first, second)
    elif code != 4:
        verdict = json.loads(out.getvalue())["verdict"]
        assert (verdict == "conjugate") == (code == 0) and (verdict == "not_conjugate") == (code == 1), verdict
