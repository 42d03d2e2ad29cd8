import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import biphoton
from biphoton import cli, montecarlo
from biphoton.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_workloads():
    """The benchmark's workload module, for its sampler configs and argv."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


IDEAL = ["0", "1.5707963267948966", "2.356194490192345", "3.9269908169872414"]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_probs_envelope_and_example_value(capsys):
    code, env = run_json(capsys, ["probs", str(math.pi / 8), "0"])
    assert code == 0
    assert list(env) == ["command", "parameters", "results", "schema_version"]
    assert env["command"] == "probs"
    assert env["schema_version"] == 2
    rec = {(r["i"], r["j"]): r for r in env["results"]["records"]}
    expected = (1.0 + math.cos(math.pi / 4.0)) / 8.0
    assert abs(rec[(2, 1)]["p"] - expected) < 1e-9
    assert abs(rec[(2, 1)]["p_formula"] - expected) < 1e-9
    assert env["results"]["max_formula_deviation"] < 1e-12
    assert abs(env["results"]["total"] - 1.0) < 1e-9


def test_probs_envelope_round_trips(capsys):
    _, env = run_json(capsys, ["probs", "0.3", "1.1", "--eta", "0.8", "--alpha", "0.4"])
    text = json.dumps(env)
    assert json.loads(text) == env


def test_probs_csv(capsys):
    code = main(["probs", "0.3", "1.1", "--eta", "0.9", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "i,j,theta1,theta2,eta,alpha,p"
    assert len(lines) == 37
    total = sum(float(line.split(",")[-1]) for line in lines[1:])
    assert abs(total - 1.0) < 1e-8


def test_correlation_routes_in_envelope(capsys):
    code, env = run_json(
        capsys,
        ["correlation", str(math.pi / 2), str(math.pi / 2), "--alpha", "0"],
    )
    assert code == 0
    assert abs(env["results"]["correlation"] - 0.5) < 1e-9
    assert env["results"]["difference"] < 1e-9


def test_chsh_margin(capsys):
    code, env = run_json(capsys, ["chsh", *IDEAL])
    assert code == 0
    s = env["results"]["s"]
    assert abs(s - (1.0 + math.sqrt(2.0))) < 1e-8
    # s and margin round to 9 significant figures independently, so the
    # identity margin = s - 2 only holds to the coarser rounding step
    assert abs(env["results"]["margin"] - (s - 2.0)) < 1e-8
    assert env["results"]["difference"] < 1e-9


#: argv per command that reads angles; each float is an angle in degrees
DEGREES_ARGV = {
    "probs": ["probs", 17.0, 63.0, "--alpha", "0.4"],
    "correlation": ["correlation", 90.0, -33.5, "--eta", "0.8"],
    "chsh": ["chsh", 0.0, 90.0, 45.0, 135.0, "--alpha", "0.2"],
    "hom-scan": ["hom-scan", "--points", "7", "--start", -30.0, "--stop", 120.0,
                 "--theta2", 20.0],
    "sample": ["sample", 10.0, 100.0, 55.0, -35.0, "--n", "300", "--alpha", "0.6"],
}


@pytest.mark.parametrize("command", sorted(DEGREES_ARGV))
def test_degrees_flag(command, tmp_path, capsys):
    # X --degrees prints what X prints given each angle in radians
    argv = DEGREES_ARGV[command]
    out = tmp_path / "events.csv"
    extra = ["--out", str(out)] if command == "sample" else []
    printed = []
    for angles in ([str(a) for a in argv] + ["--degrees"],
                   [repr(math.radians(a)) if isinstance(a, float) else a for a in argv]):
        assert main(angles + extra) == 0
        printed.append((capsys.readouterr().out, out.read_bytes() if extra else None))
    assert printed[0] == printed[1]


#: one argv per JSON command
JSON_ARGV = {
    "probs": ["probs", "0.3", "1.1"],
    "correlation": ["correlation", "0.3", "1.1"],
    "chsh": ["chsh", *IDEAL],
    "optimize": ["optimize"],
    "critical-eta": ["critical-eta", "--alpha", "1"],
    "hom-scan": ["hom-scan", "--points", "3"],
    "sample": ["sample", *IDEAL, "--n", "10", "--out", os.devnull],
}


def test_parameters_echo_every_argument_but_degrees(capsys):
    parser = build_parser()
    (subparsers,) = [a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(JSON_ARGV) == set(subparsers) - {"validate"}
    for command, argv in JSON_ARGV.items():
        dests = [a.dest for a in subparsers[command]._actions
                 if a.dest not in ("help", "degrees")]
        _, env = run_json(capsys, argv)
        assert list(env["parameters"]) == dests, command


def test_optimize_envelope(capsys):
    code, env = run_json(capsys, ["optimize", "--starts", "16"])
    assert code == 0
    assert abs(env["results"]["best_value"] - (1.0 + math.sqrt(2.0))) < 1e-6
    assert env["results"]["converged"] is True
    assert set(env["results"]["settings"]) == {
        "psi1", "psi1_prime", "psi2", "psi2_prime",
    }


def test_critical_eta_reports_reference(capsys):
    code, env = run_json(
        capsys, ["critical-eta", "--alpha", "1.0", "--starts", "16"]
    )
    assert code == 0
    assert env["results"]["reference"] == 0.91
    assert abs(env["results"]["eta_critical"] - 0.906) < 2e-3
    assert env["results"]["bracket_width"] <= 1e-4
    code, env = run_json(
        capsys,
        ["critical-eta", "--alpha", "0.33", "--starts", "8", "--tol", "0.01"],
    )
    assert env["results"]["reference"] is None


def test_hom_scan_vanishes_at_quarter(capsys):
    code, env = run_json(capsys, ["hom-scan", "--points", "5"])
    assert code == 0
    grid = env["results"]["grid"]
    assert len(grid) == 5
    mid = grid[2]
    assert abs(mid["theta1"] - math.pi / 4.0) < 1e-9
    assert mid["p_4_3"] < 1e-30
    assert abs(mid["p_5_3"] - 0.125) < 1e-9


def test_hom_scan_csv(capsys):
    code = main(["hom-scan", "--points", "3", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta1,theta2,p_4_3,p_5_3,p_6_3,p_3_4,p_3_5,p_3_6"
    assert len(lines) == 4


#: sha256 of stdout per argv; each is printed in JSON and in CSV
OUTPUT_PINS = (
    (["probs", "0.3", "1.1"],
     "5289ef38acf8dca8d3a27eb8b9909cfeacd67056f5ad6da9e2e943a335539029",
     "2d35470f21d42c38ef08971819169faa838bd58694bdc9be63956383a731bfaa"),
    (["probs", "0.3", "1.1", "--eta", "0.8"],
     "ad045939769295d6be4d5202f4da2ecc8f5b6348c98748a8e9df7e65b8f845dc",
     "32f5fa4af0e86f3682d3bd2df9ec0fed42bc0759c518d9e9b62197fac6878429"),
    (["probs", "0.3", "1.1", "--eta", "0.8", "--alpha", "0"],
     "99732d4d4e27da2e7993d9e96f3fc5520c79205ffabd1cb6c90515241276a575",
     "6e0ebde918a1f90c731a963337d0ee282f9c38c46686cb8e79be0a0bee72cb79"),
    (["probs", "0.7853981633974483", "0.6"],
     "fbd85bb21eeed6bc19ec6341ad851490bfcf546632e6d35cfc29ff29e051e7f3",
     "eaa062cc5a3b01595fda2f2cf1398cd7dca69cdb4439f48200ca65e615892b34"),
    (["probs", "9.5", "-13", "--eta", "0.9", "--alpha", "0.4"],
     "aa93a05b72c21851ea74d59a6b18aa9f3a708d3ecf123dedd0e8162df0adc7c3",
     "2eaaa995fbb6f5dbcd19116d480b51bf85b7c81bcced747a4b59be28199fa2e3"),
    (["hom-scan"],
     "9382bf91a785009c9e8eac554c9e5f7af52589ec1284742457880aa5481734ae",
     "b905e6bf00604eac2bc97b28bee7d0c5e7d9d883daf44f6803963489b5259d22"),
    (["hom-scan", "--points", "9", "--theta2", "0.3", "--start=-1", "--stop", "7"],
     "0fe8e83fc201b1685b4e4c2c25331aabf260540f505e609673a9d86a9e572ee0",
     "dfeb830abdc738a087012bf8ec283dd4df34a94b0a087140e60e890eb3b703bc"),
    (["probs", "17", "63", "--eta", "0.9", "--alpha", "0.4", "--degrees"],
     "c272b73f9b900dda253a9aed3a0cd1759748f2159f48b7d7c1ab73b01cf5c6f2",
     "a15147d84c98726474f8cade15182612e4d7c7b481507fc605ae6dc80c7c6b9d"),
    (["hom-scan", "--points", "7", "--theta2", "20", "--start=-30", "--stop", "120",
      "--degrees"],
     "dd39021eb3e32dab4042272e17c394704b919f020ab4aa2a087c47126c69c407",
     "21919e37e8593b7ad9af403e9a1736ed2414e57ca99d972a14249547dbfa217a"),
)


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("argv, json_sha, csv_sha", OUTPUT_PINS)
def test_table_outputs_are_pinned(argv, json_sha, csv_sha, fmt, capsys):
    assert main(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (json_sha if fmt == "json" else csv_sha)


#: sha256 of stdout per argv, for the commands that print only JSON
JSON_PINS = (
    (["correlation", "0.3", "1.1"],
     "d1558c5114730db97ea4b39d385c1d18a49383ff5cdd2d447a43fca123c4f764"),
    (["correlation", "0.3", "1.1", "--eta", "0.8", "--alpha", "0.4"],
     "aa86ac2e5f05d3add45fc73f0b20f3140a0ed7bdfb0237ac621536d7deb24263"),
    (["chsh", *IDEAL],
     "c5085c1f8932952369110b486c6a6923ac9439c8754d1d5b61fe71f334c3b219"),
    (["chsh", "0.1", "0.9", "-0.4", "2.2", "--eta", "0.85", "--alpha", "0.5"],
     "cfa9fb1b303630268f62d4f0f436d8d3bf92acc8e2705da0ddb2a5775f5ef8de"),
    (["chsh", "0", "90", "45", "135", "--degrees", "--eta", "0.9", "--alpha", "0.2"],
     "f890bace5bd102d908603e227892406371260ea08202df58b0ce53d47dacca9b"),
    (["optimize"],
     "9164cd9f915c121d4b354448fcda6af5a9a9e18ccfc96420c9e524aa02b043d7"),
    (["optimize", "--eta", "0.9", "--alpha", "0.3", "--starts", "4"],
     "d7acd97b803cafb195ae2f3180d16d711ec55595ca9b05731c54ec95b3be7d6b"),
    (["critical-eta", "--alpha", "1"],
     "91db2bf77f0fcc6cd8df62165d5b0938e9e3f9dcf7942d1bc4bcbba353d856ca"),
    # 0.33 has no reference threshold, so "reference" prints null
    (["critical-eta", "--alpha", "0.33", "--tol", "0.01", "--starts", "8"],
     "c8a23a96c92c09a99acb0a1ee758766641313bf336d1bcc848542cd61734e80a"),
    (["critical-eta", "--alpha", "0.75", "--tol", "1e-6"],
     "fb754a61a4260ccd905a9b75025e32f8f753b0192e061e17c420af11c01b5357"),
    (["sample", "10", "100", "55", "-35", "--degrees", "--eta", "0.9", "--alpha", "0.6",
      "--seed", "7", "--n", "500", "--out", os.devnull],
     "cfd4aa00b0cb60a9d0564b32f624b60783943b2593d0833a5bbc3c2a58d1f83b"),
)


@pytest.mark.parametrize("argv, sha", JSON_PINS)
def test_json_outputs_are_pinned(argv, sha, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == sha


def test_sample_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sample", *IDEAL, "--seed", "42", "--n", "400", "--alpha", "0.8"]
    code, env1 = run_json(capsys, argv + ["--out", str(out1)])
    assert code == 0
    code, env2 = run_json(capsys, argv + ["--out", str(out2)])
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert env1["results"]["n_events"] == 1600
    assert set(env1["results"]["per_setting"]) == {"AB", "A'B", "AB'", "A'B'"}
    assert env1["results"]["s_estimate"] == env2["results"]["s_estimate"]
    assert env1["results"]["s_stderr"] > 0.0


#: sha256 of each golden config's `sample` results at n = 1000 without
#: `out`: per-setting e, stderr and n, n_events, s_estimate and s_stderr,
#: as the envelope prints them (9 significant digits)
SAMPLE_RESULT_PINS = (
    "9b2429dc27cdd9dad9a00c4107b5d7db74fdd74373117a679712f6c5a2c6101d",
    "cc671cc0ed672f223d042e36d8d8d92ae18d1763cd1eb23a35251124c389974a",
    "028b3ec4a1a0a65df43990d89284affaf9c6f6105ec5270df4efa14a616b0785",
    "edffa796c153b27338da0ae0b9048d80478176990ddc7c2a0ae50baa3e94899e",
    "4483ef8506f1ccb400188c403f6df51a4688a3033a54b41aa1614f0b7b90c50d",
    "f7c16fe4e88b174de9ea62487354ac088377369e56f66c0ca2a1d74f1573c8d0",
)


@pytest.mark.parametrize("config", range(6))
def test_sample_matches_benchmark_golden(config, tmp_path, capsys):
    # the benchmark counts any other bytes or S as a failed export
    workloads = _perfbench_workloads()
    pin = workloads.load_pins(1000)[config]
    out = tmp_path / "events.csv"
    code, env = run_json(capsys, workloads.export_argv(pin, 1000, out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pin["sha256"]
    assert env["results"]["s_estimate"] == float(f"{pin['s_estimate']:.9g}")
    results = {k: v for k, v in env["results"].items() if k != "out"}
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == SAMPLE_RESULT_PINS[config]


def test_sample_builds_one_histogram(monkeypatch, capsys):
    # the four settings' estimates are slices of one histogram of the batch
    sizes = []
    real = montecarlo.EventBatch.counts

    def counts(batch):
        sizes.append(len(batch))
        return real(batch)

    monkeypatch.setattr(montecarlo.EventBatch, "counts", counts)
    assert main(["sample", *IDEAL, "--n", "100", "--out", os.devnull]) == 0
    assert sizes == [400]


def test_sample_run_does_not_import_numpy_ma(tmp_path):
    # np.unique pulls numpy.ma in lazily, about 0.5 MB of RSS per run
    src = str(Path(biphoton.__file__).resolve().parents[1])
    argv = ["sample", *IDEAL, "--n", "1000", "--out", str(tmp_path / "e.csv")]
    code = (
        f"import contextlib, io, sys; sys.path.insert(0, {src!r})\n"
        "from biphoton.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_sample_io_error_exits_1(tmp_path, monkeypatch, capsys):
    # the unwritable path fails before a single event is drawn
    draws = []
    real = cli.sample_events
    monkeypatch.setattr(cli, "sample_events", lambda cfg: draws.append(cfg) or real(cfg))
    code = main(
        ["sample", *IDEAL, "--n", "10", "--out", str(tmp_path / "no" / "dir.csv")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert draws == []
    assert main(["sample", *IDEAL, "--n", "10", "--out", os.devnull]) == 0
    assert len(draws) == 1


@pytest.mark.parametrize("message, shown", (
    ("Unable to allocate 7.45 GiB for an array", "Unable to allocate 7.45 GiB for an array"),
    ("", "MemoryError"),
))
def test_sample_memory_error_exits_1(message, shown, tmp_path, monkeypatch, capsys):
    # a draw too large for memory ends as an error line, not a traceback
    def exhausted(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "sample_events", exhausted)
    out = tmp_path / "events.csv"
    assert main(["sample", *IDEAL, "--n", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("n", (2**63, 2**61))
def test_sample_n_past_the_array_index_exits_2(n, tmp_path, capsys):
    # 4 n events overflow np.intp: the config rejects n before --out is
    # touched and before anything is allocated
    out = tmp_path / "events.csv"
    assert main(["sample", *IDEAL, "--n", str(n), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: n_per_setting = {n} is too large: its 4 x n events overflow an array index\n"
    )
    assert not out.exists()


def test_sample_leaves_no_file_before_the_draw(tmp_path, monkeypatch, capsys):
    # the --out check removes a file it made, so that to_csv creates the file
    # rather than truncating it: ext4 writes a truncated file to disk at close
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    old.write_text("old\n")
    seen = []
    real = cli.sample_events
    monkeypatch.setattr(
        cli, "sample_events",
        lambda cfg: seen.append((fresh.exists(), old.read_text())) or real(cfg),
    )
    for out in (fresh, old):
        assert main(["sample", *IDEAL, "--n", "10", "--out", str(out)]) == 0
    assert seen == [(False, "old\n"), (True, "old\n")]
    assert fresh.read_text() == old.read_text() != "old\n"


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_closed_stdout_ends_quietly(fmt):
    # far more than a pipe buffer holds, so the write after the close fails
    src = str(Path(biphoton.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from biphoton.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "hom-scan", "--points", "5000", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_leaks_no_descriptor(tmp_path):
    # five in-process runs, each printing more than stdout's buffer holds to
    # a pipe whose reader has closed, so a write fails in mid-print
    src = str(Path(biphoton.__file__).resolve().parents[1])
    report = tmp_path / "report.json"
    code = (
        f"import json, os, sys; sys.path.insert(0, {src!r})\n"
        "from biphoton.cli import main\n"
        "codes, fds = [], []\n"
        "for _ in range(5):\n"
        "    r, w = os.pipe()\n"
        "    os.close(r)\n"
        "    os.dup2(w, sys.stdout.fileno())\n"
        "    os.close(w)\n"
        "    codes.append(main(['hom-scan', '--points', '500']))\n"
        "    fds.append(len(os.listdir('/proc/self/fd')))\n"
        f"open({str(report)!r}, 'w').write(json.dumps([codes, fds]))\n"
        "sys.exit(codes[-1])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr == b""
    codes, fds = json.loads(report.read_text())
    assert codes == [1] * 5
    assert len(set(fds)) == 1, fds


def test_out_of_range_parameters_exit_2(capsys):
    assert main(["probs", "0.1", "0.2", "--eta", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["correlation", "0.1", "0.2", "--alpha", "2"]) == 2
    assert main(["critical-eta", "--alpha", "-0.5"]) == 2
    assert main(["hom-scan", "--points", "1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["hom-scan", "--start", "nan", "--points", "2"],
        ["probs", "inf", "0"],
        ["chsh", "nan", "1", "2", "3"],
        ["correlation", "nan", "0"],
        ["sample", "nan", "1", "2", "3", "--n", "10", "--out", os.devnull],
        ["critical-eta", "--alpha", "1", "--tol", "nan"],
        ["probs", "0", "0", "--eta=-inf"],
    ],
)
def test_non_finite_input_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite number" in captured.err


def test_hom_scan_overflowing_range_exits_2(capsys):
    assert main(["hom-scan", "--start=-1e308", "--stop", "1e308", "--points", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "range from -1e+308 to 1e+308" in captured.err


@pytest.mark.parametrize(
    "argv, angle",
    [
        (["probs", "1e308", "0.1"], "theta1"),
        (["correlation", "1e308", "1e308"], "psi1"),
        (["chsh", "1e308", "0", "1e308", "1"], "psi1"),
        (["hom-scan", "--theta2", "1e308"], "theta2"),
        (["hom-scan", "--stop", "1e308", "--points", "3"], "theta1"),
    ],
)
def test_angle_too_large_to_double_exits_2(argv, angle, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {angle} = 1e+308 is too large: twice it overflows\n"


#: subcommand -> (float positionals, float options, fixed arguments), for
#: every subcommand that takes floats (all but validate)
FLOAT_ARGUMENTS = {
    "probs": (2, ("eta", "alpha"), ()),
    "correlation": (2, ("eta", "alpha"), ()),
    "chsh": (4, ("eta", "alpha"), ()),
    "optimize": (0, ("eta", "alpha"), ()),
    "critical-eta": (0, ("alpha", "tol"), ()),
    "hom-scan": (0, ("start", "stop", "theta2"), ("--points=3",)),
    "sample": (4, ("eta", "alpha"), ("--n=2", f"--out={os.devnull}")),
}

#: any float, NaN and infinities included; often one in [0, 1], so that
#: most commands also reach their results, or one too large to double
any_float = st.one_of(
    st.floats(),
    st.floats(0.0, 1.0),
    st.floats(min_value=8e307),
    st.floats(max_value=-8e307),
)


@st.composite
def float_argv(draw):
    command = draw(st.sampled_from(sorted(FLOAT_ARGUMENTS)))
    positionals, options, fixed = FLOAT_ARGUMENTS[command]
    argv = [command, *fixed]
    for name in options:
        value = draw(st.none() | any_float)  # None keeps the default
        if value is not None:
            argv += draw(st.sampled_from(
                ([f"--{name}={value!r}"], [f"--{name}", repr(value)])
            ))
    if command not in ("optimize", "critical-eta") and draw(st.booleans()):
        argv.append("--degrees")
    argv += [repr(draw(any_float)) for _ in range(positionals)]
    return argv


@given(
    value=st.floats(max_value=-0.0, allow_infinity=False),
    form=st.sampled_from(("{!r}", "{:e}", "{:E}", "{:_f}", "{:.0e}")),
)
@settings(max_examples=100, deadline=None)
def test_negative_numbers_are_values_in_every_float_position(value, form):
    # argparse's own pattern reads -1 and -.5 as numbers, but not -1e-3
    text = form.format(value)
    assume(math.isfinite(float(text)))  # "{:.0e}" rounds -1.8e308 up to -2e+308
    parser = build_parser()
    for command, (positionals, options, fixed) in FLOAT_ARGUMENTS.items():
        argv = [command, *fixed, *positionals * [text]]
        for name in options:
            argv += [f"--{name}", text]
        floats = [v for v in vars(parser.parse_args(argv)).values()
                  if isinstance(v, float)]
        assert floats == (positionals + len(options)) * [float(text)], argv


@pytest.mark.parametrize("argv, name", [
    (["correlation", "-1e-3", "0"], "psi1"),
    (["hom-scan", "--start", "-1e-3", "--points", "2"], "start"),
])
def test_negative_exponent_form_is_a_number(argv, name, capsys):
    code, env = run_json(capsys, argv)
    assert code == 0
    assert env["parameters"][name] == -1e-3


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(argv=float_argv())
@settings(max_examples=300, deadline=None)
def test_any_float_exits_0_or_2_with_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "math domain error" not in out.getvalue() + err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_no_constant)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["probs", "0.1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["critical-eta", "--alpha", "1"]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_reused_parser_prints_the_same_bytes(capsys):
    # a usage error after a success, and a success after a usage error,
    # print what a parser of their own prints
    argv, sha = JSON_PINS[7]
    bad = ["probs", "0.1"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(bad)
    usage = capsys.readouterr().err
    assert "error:" in usage
    for _ in range(2):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err == usage


def test_validate_passes_and_reports(capsys):
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_settings_dict_is_asdict_in_field_order():
    settings = biphoton.ChshSettings(0.1, -2.0, 3e-9, 1e300)
    out = cli._settings_dict(settings)
    assert list(out.items()) == list(dataclasses.asdict(settings).items())
