"""Command-line surface: argument handling, output contracts, exit codes.

Reference values used below are frozen from independent computations in
the library test modules: the N=4 vertical ratio 1.2155625241 and the
N=3 planar quadruple real part sqrt(2)/2 (test_spectrum), the closed
forms H+ = 4 pi w1/(w1+w2) and 2 pi w1/w2 for the five-body bounds
(test_minimize), and gamma(P12) = 16.589... (test_torsion).
"""

import dataclasses
import functools
import json
import subprocess
import sys

import numpy as np
import pytest

from unchained import cli, spectrum
from unchained.cli import PROBE_OFFSET, main
from unchained.minimize import lambda_G_bruteforce
from unchained.symmetry import GroupSpec
from unchained.spectrum import vertical_spectrum

TWO_PI = 2.0 * np.pi


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def csv_rows(text):
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("varpi"):
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return rows


def parsed_fields(text):
    fields = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            fields[key.strip()] = val.strip()
    return fields


# ---------------------------------------------------------------- spectrum

def test_spectrum_vertical_ratio_line(capsys):
    rc, out, _ = run(capsys, "spectrum", "4")
    assert rc == 0
    assert "1.2155625241" in out
    assert "vertical spectrum (units: omega1):" in out


def test_spectrum_horizontal_quadruple_n3(capsys):
    rc, out, _ = run(capsys, "spectrum", "3")
    assert rc == 0
    # 4N - 6 = 6 eigenvalues; the non-Kepler quadruple is +-sqrt(2)/2 +- i
    assert "6 eigenvalues" in out
    assert "0.7071067811865" in out


def test_spectrum_raw_units(capsys):
    rc, out, _ = run(capsys, "spectrum", "4", "--units", "raw")
    assert rc == 0
    assert "0.97831834347851" in out   # omega_1 = sqrt(2 sqrt 2 + 1)/2
    assert "1.1892071150027" in out    # omega_2 = 2**(1/4)


def test_spectrum_counts_grow_with_n(capsys):
    for n in (5, 6, 7):
        rc, out, _ = run(capsys, "spectrum", str(n))
        assert rc == 0
        assert f"{4 * n - 6} eigenvalues" in out


def test_spectrum_rejects_two_bodies(capsys):
    rc, _, err = run(capsys, "spectrum", "2")
    assert rc == 2
    assert "error" in err


def test_spectrum_out_file(capsys, tmp_path):
    path = tmp_path / "spec4.txt"
    rc, out, _ = run(capsys, "spectrum", "4", "--out", str(path))
    assert rc == 0
    assert out == ""
    assert "1.2155625241" in path.read_text()


def test_spectrum_out_in_missing_directory(capsys, tmp_path):
    # an output that cannot be written is a usage error, not a traceback
    rc, out, err = run(capsys, "spectrum", "4",
                       "--out", str(tmp_path / "missing" / "spec4.txt"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


# ------------------------------------------------------------------- group

def test_group_order_sixteen(capsys):
    rc, out, _ = run(capsys, "group", "4", "2", "1", "1", "1")
    assert rc == 0
    assert "order = 16" in out
    assert "orientation-preserving elements = 8" in out
    assert "dihedral x Z/2 presentation = yes" in out


def test_group_choreography_flag(capsys):
    rc, out, _ = run(capsys, "group", "5", "2", "-1", "2", "1",
                     "--check-choreo")
    assert rc == 0
    assert "simple choreography: yes" in out
    rc, out, _ = run(capsys, "group", "4", "2", "1", "1", "1",
                     "--check-choreo")
    assert rc == 0
    assert "simple choreography: no" in out


def test_group_find_isomorphism(capsys):
    rc, out, _ = run(capsys, "group", "5", "1", "-1", "4", "1",
                     "--find-iso", "5,2,-1,2")
    assert rc == 0
    assert "S(j) = -2 j (mod 5)" in out
    assert "permutation = 0 3 1 4 2" in out


def test_group_find_isomorphism_none(capsys):
    # r - r' odd: no relabelling exists
    rc, out, _ = run(capsys, "group", "5", "1", "-1", "4", "1",
                     "--find-iso", "5,1,-1,3")
    assert rc == 0
    assert "none" in out


def test_group_find_iso_malformed(capsys):
    rc, _, err = run(capsys, "group", "5", "1", "-1", "4", "1",
                     "--find-iso", "5,2")
    assert rc == 2
    assert "find-iso" in err


def test_group_bad_spec_exit_two(capsys):
    rc, _, err = run(capsys, "group", "3", "7", "1", "1", "1")
    assert rc == 2
    assert "mode index" in err


# ------------------------------------------------------------------ bounds

def test_bounds_five_body_chain(capsys):
    rc, out, _ = run(capsys, "bounds", "5", "1", "-1", "4", "1")
    assert rc == 0
    assert "bruteforce: consistent" in out
    spm = vertical_spectrum(5)
    w1, w2 = spm.omegas[0], spm.omegas[1]
    fields = parsed_fields(out)
    assert float(fields["H+"]) == pytest.approx(
        2.0 * TWO_PI * w1 / (w1 + w2), rel=1e-12)
    assert float(fields["H-"]) == pytest.approx(TWO_PI, rel=1e-12)


def test_bounds_five_body_eight_interval(capsys):
    rc, out, _ = run(capsys, "bounds", "5", "2", "-1", "2", "1")
    assert rc == 0
    assert "bruteforce: consistent" in out
    spm = vertical_spectrum(5)
    half = TWO_PI * spm.omegas[0] / spm.omegas[1]
    line = next(l for l in out.splitlines() if l.startswith("interval"))
    lo, hi = (float(tok) for tok in
              line.split("[")[1].split("]")[0].split(","))
    assert lo == pytest.approx(-half, rel=1e-12)
    assert hi == pytest.approx(half, rel=1e-12)


def test_bounds_battery_consistent(capsys):
    for spec in (("3", "1", "-1", "2", "1"), ("6", "2", "-1", "1", "1"),
                 ("7", "3", "1", "2", "3")):
        rc, out, _ = run(capsys, "bounds", *spec)
        assert rc == 0
        assert "bruteforce: consistent" in out


@pytest.mark.parametrize("argv", [("5", "1", "-1", "4", "1"),
                                  ("7", "2", "-1", "3", "2")])
@pytest.mark.parametrize("factor", [1.5, 0.5], ids=["widened", "shrunk"])
def test_bounds_wrong_interval_is_inconsistent(capsys, monkeypatch, argv,
                                               factor):
    # widened, lambda^G < 1 just inside the ends; shrunk, lambda^G = 1 just
    # outside them: either way the probes refuse the interval
    real = cli.absolute_interval

    def scaled(spec):
        rep = real(spec)
        lo, hi = rep.interval
        return dataclasses.replace(rep, interval=(factor * lo, factor * hi))

    monkeypatch.setattr(cli, "absolute_interval", scaled)
    rc, out, _ = run(capsys, "bounds", *argv)
    assert rc == 1
    assert out.splitlines()[-1] == "bruteforce: inconsistent"
    spec = GroupSpec(*map(int, argv))
    lo, hi = scaled(spec).interval
    shift = TWO_PI * spec.r / spec.s
    inside = [lambda_G_bruteforce(spec, x - shift)
              for x in (hi - PROBE_OFFSET, lo + PROBE_OFFSET)]
    outside = [lambda_G_bruteforce(spec, x - shift)
               for x in (hi + PROBE_OFFSET, lo - PROBE_OFFSET)]
    if factor > 1:
        assert max(inside) < 1.0 and max(outside) < 1.0
    else:
        assert min(inside) == 1.0 and min(outside) == 1.0


# ---------------------------------------------------------------- continue

def test_continue_csv_stdout(capsys):
    rc, out, _ = run(capsys, "continue", "3", "1", "-1", "2", "1",
                     "--steps", "2", "--step", "0.03")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# spec=3,1,-1,2,1"
    assert lines[1] == "varpi,amplitude,action,period,angular_momentum_z"
    assert lines[-1] == "# end=max-steps"
    rows = csv_rows(out)
    assert len(rows) == 3
    # onset row: relative equilibrium at the bifurcation frame frequency
    assert rows[0][0] == pytest.approx(-TWO_PI, abs=1e-8)
    assert rows[0][1] == 0.0
    amp = [row[1] for row in rows]
    assert amp == sorted(amp)


def test_continue_out_file_and_summary(capsys, tmp_path):
    path = tmp_path / "p12.csv"
    rc, out, _ = run(capsys, "continue", "3", "1", "-1", "2", "1",
                     "--steps", "1", "--out", str(path))
    assert rc == 0
    assert "end=max-steps" in out
    assert str(path) in out
    assert csv_rows(path.read_text())


def test_continue_json_format(capsys):
    rc, out, _ = run(capsys, "continue", "3", "1", "1", "2", "1",
                     "--steps", "1", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["spec"] == [3, 1, 1, 2, 1]
    assert data["end_reason"] == "max-steps"
    assert len(data["records"]) == 2
    assert data["records"][0]["amplitude"] == 0.0
    assert data["records"][0]["varpi"] == pytest.approx(-TWO_PI, abs=1e-8)


def _continue_side_by_side(tmp_path, families, *options):
    # one `unchained continue` per family, every one started before any is
    # waited on, as `cmd & ... wait` runs them in the shell
    paths = {name: tmp_path / f"{name}-alone.csv" for name in families}
    procs = {name: subprocess.Popen(
                 [sys.executable, "-m", "unchained.cli", "continue", *spec,
                  *options, "--out", str(paths[name])],
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for name, spec in families.items()}
    status = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert err == ""
        status[name] = out
    return paths, status


def test_continue_two_families_parallel(tmp_path):
    # families run side by side as one process each
    families = {"p12": ("3", "1", "-1", "2", "1"),
                "p12plus": ("3", "1", "1", "2", "1")}
    paths, status = _continue_side_by_side(tmp_path, families,
                                           "--steps", "1")
    assert paths["p12"].read_text().startswith("# spec=3,1,-1,2,1")
    assert paths["p12plus"].read_text().startswith("# spec=3,1,1,2,1")
    for name, path in paths.items():
        assert len(csv_rows(path.read_text())) == 2
        assert status[name].endswith(f"end=max-steps -> {path}\n")


def test_continue_parallel_output_matches_serial(capsys, tmp_path):
    # a family's table does not depend on the families run before it in the
    # same command, so one command per family, run side by side, writes
    # the same bytes as one command for all of them
    families = {"p12": ("3", "1", "-1", "2", "1"),
                "hh4": ("4", "2", "1", "1", "1")}
    joint = {name: tmp_path / f"{name}.csv" for name in families}
    rc, out, _ = run(capsys, "continue", *families["p12"], *families["hh4"],
                     "--steps", "2", "--out", str(joint["p12"]),
                     "--out", str(joint["hh4"]))
    assert rc == 0
    assert out.splitlines() == [
        f"G_{{2/1}}(3,1,-1): 3 records, end=max-steps -> {joint['p12']}",
        f"G_{{1/1}}(4,2,+1): 3 records, end=max-steps -> {joint['hh4']}"]
    alone, _ = _continue_side_by_side(tmp_path, families, "--steps", "2")
    for name in families:
        assert alone[name].read_bytes() == joint[name].read_bytes()


def test_continue_writes_each_family_before_the_next(capsys, monkeypatch,
                                                   tmp_path):
    # a family that raises ends the command with exit 1, and the tables of
    # the families finished before it are already written
    from unchained.errors import IntegrationFailure
    real = cli.continue_family

    def second_fails(spec, **kwargs):
        if spec.n_bodies == 4:
            raise IntegrationFailure("forced")
        return real(spec, **kwargs)

    monkeypatch.setattr(cli, "continue_family", second_fails)
    p12, hh4 = tmp_path / "p12.csv", tmp_path / "hh4.csv"
    rc, out, err = run(capsys, "continue",
                       "3", "1", "-1", "2", "1", "4", "2", "1", "1", "1",
                       "--steps", "1", "--out", str(p12), "--out", str(hh4))
    assert rc == 1
    assert err == "numerical failure: forced\n"
    assert out == f"G_{{2/1}}(3,1,-1): 2 records, end=max-steps -> {p12}\n"
    assert len(csv_rows(p12.read_text())) == 2
    assert not hh4.exists()


def test_continue_has_no_jobs_option(capsys):
    # families run one after another in one process; the shell runs
    # commands side by side
    with pytest.raises(SystemExit) as exc:
        main(["continue", "3", "1", "-1", "2", "1", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_continue_out_dash_is_stdout(capsys, tmp_path, monkeypatch):
    # "-" is stdout for every writer: no file named "-", no status line
    monkeypatch.chdir(tmp_path)
    argv = ("continue", "3", "1", "-1", "2", "1", "--steps", "1")
    rc, out, _ = run(capsys, *argv)
    rc_dash, out_dash, err = run(capsys, *argv, "--out", "-")
    assert rc == rc_dash == 0
    assert out_dash == out and err == ""
    assert list(tmp_path.iterdir()) == []


def test_continue_halved_tolerance_consistency(capsys):
    argv = ("continue", "3", "1", "-1", "2", "1", "--steps", "2",
            "--step", "0.03")
    rc, out_a, _ = run(capsys, *argv)
    rc_b, out_b, _ = run(capsys, *argv, "--tol", "5e-13")
    assert rc == rc_b == 0
    rows_a, rows_b = csv_rows(out_a), csv_rows(out_b)
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        assert ra[2] == pytest.approx(rb[2], abs=1e-6)


def test_continue_spec_arity_checked(capsys):
    rc, _, err = run(capsys, "continue", "3", "1", "-1", "2")
    assert rc == 2
    assert "multiple of 5" in err


def test_continue_out_count_mismatch(capsys, tmp_path):
    rc, _, err = run(capsys, "continue", "3", "1", "-1", "2", "1",
                     "--out", str(tmp_path / "a.csv"),
                     "--out", str(tmp_path / "b.csv"))
    assert rc == 2
    assert "--out" in err or "families" in err


@pytest.fixture
def no_family(monkeypatch):
    # a rejected option must stop the command before any family is started;
    # the CLI binds continue_family at import, so its own name is patched
    def never(*args, **kwargs):
        raise AssertionError("continue_family called with bad options")

    monkeypatch.setattr(cli, "continue_family", never)


@pytest.mark.parametrize("bad", [
    ("--max-step", "0"), ("--step", "-0.04"), ("--steps", "0"),
    ("--tol", "2"), ("--tol", "0"), ("--varpi-range", "1", "0"),
    ("--varpi-range", "nan", "1"),
])
def test_continue_rejects_bad_options_before_any_work(capsys, no_family,
                                                      bad):
    # each of these used to run (or, for --tol 0, not finish), and a
    # family computed from them is garbage
    rc, out, err = run(capsys, "continue", "3", "1", "-1", "2", "1",
                       "--steps", "4", *bad)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("bad", [("--step", "inf"), ("--step", "nan"),
                                 ("--max-step", "inf"),
                                 ("--max-step", "nan")])
def test_continue_rejects_non_finite_steps_before_any_solve(capsys,
                                                            monkeypatch,
                                                            bad):
    # --step inf ran two solves, then failed inside scipy on a non-finite
    # start with a RuntimeWarning on the way
    import warnings
    import unchained.continuation as continuation

    def never(*args, **kwargs):
        raise AssertionError("solved before the steps were checked")

    monkeypatch.setattr(continuation, "solve_ivp", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "continue", "3", "1", "-1", "2", "1",
                           "--steps", "2", *bad)
    assert rc == 2
    assert out == ""
    name = bad[0][2:].replace("-", "_")
    assert err.startswith(f"error: {name} must be positive and finite")


@pytest.mark.parametrize("flag", ["0.02", "0.5"])
def test_continue_rejects_newton_tolerance_out_of_range(capsys, no_family,
                                                       flag):
    # the Newton tolerance is 100 times the integrator's, so an integrator
    # tolerance of 0.01 or more makes it one or more: any orbit would pass
    # as closed
    rc, out, err = run(capsys, "continue", "3", "1", "-1", "2", "1",
                       "--steps", "4", "--tol", flag)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: Newton tolerance 100 * --tol")


def test_continue_json_for_two_families_needs_two_outs(capsys, no_family,
                                                        tmp_path):
    # two JSON documents back to back on stdout are not one JSON document
    families = ("3", "1", "-1", "2", "1", "4", "2", "1", "1", "1")
    for outs in ((), ("--out", "-", "--out", "-")):
        rc, out, err = run(capsys, "continue", *families, "--steps", "1",
                           "--format", "json", *outs)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "--out" in err


@pytest.mark.parametrize("which", [0, 1])
def test_continue_out_in_missing_directory_before_any_work(capsys, no_family,
                                                           tmp_path, which):
    # every --out is checked before the first family, not after the last
    outs = [tmp_path / "p12.csv", tmp_path / "hh4.csv"]
    outs[which] = tmp_path / "missing" / outs[which].name
    rc, out, err = run(capsys, "continue",
                       "3", "1", "-1", "2", "1", "4", "2", "1", "1", "1",
                       "--steps", "1", "--out", str(outs[0]),
                       "--out", str(outs[1]))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and str(outs[which]) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("which", [0, 1])
def test_continue_out_naming_a_directory_before_any_work(capsys, no_family,
                                                         tmp_path, which):
    # a directory passed the check of its parent; the run then wrote the
    # other family's table, computed both, and stopped on IsADirectoryError
    folder = tmp_path / "d"
    folder.mkdir()
    outs = [folder / "p12.csv", folder / "hh4.csv"]
    outs[which] = folder
    rc, out, err = run(capsys, "continue",
                       "3", "1", "-1", "2", "1", "4", "2", "1", "1", "1",
                       "--steps", "1", "--out", str(outs[0]),
                       "--out", str(outs[1]))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "directory" in err
    assert list(folder.iterdir()) == []


@pytest.mark.parametrize("second", ["a.csv", "./d/../a.csv"])
def test_continue_repeated_out_before_any_work(capsys, no_family, tmp_path,
                                               monkeypatch, second):
    # a file named twice, however spelt, held only the last family's table
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    rc, out, err = run(capsys, "continue",
                       "3", "1", "-1", "2", "1", "4", "2", "1", "1", "1",
                       "--steps", "1", "--out", "a.csv", "--out", second)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and second in err
    assert not (tmp_path / "a.csv").exists()


def test_continue_onset_failure_exits_one(capsys, monkeypatch):
    # the relative-equilibrium record is always there, so a family whose
    # first corrector solve fails still has one row; it must not exit 0
    import unchained.continuation as continuation
    from unchained.errors import NoConvergence

    def fail(*args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(continuation, "_corrector", fail)
    rc, _, err = run(capsys, "continue", "3", "1", "-1", "2", "1",
                     "--steps", "2")
    assert rc == 1
    assert "numerical failure" in err and "onset-failure" in err


def test_continue_onset_failure_writes_partial_family(capsys, monkeypatch,
                                                     tmp_path):
    # the family stops at onset with the relative-equilibrium record; that
    # record and the end footer are written, and the exit code stays 1
    import unchained.continuation as continuation
    from unchained.errors import NoConvergence

    def fail(*args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(continuation, "_corrector", fail)
    argv = ["continue", "3", "1", "-1", "2", "1", "--steps", "2"]
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert "stopped at onset" in err and "onset-failure" in err
    assert out.splitlines()[-1] == "# end=onset-failure: forced"
    rows = csv_rows(out)
    assert len(rows) == 1
    assert rows[0][0] == pytest.approx(-TWO_PI, abs=1e-12)
    assert rows[0][1] == 0.0
    path = tmp_path / "p12.csv"
    rc, out_file, err = run(capsys, *argv, "--out", str(path))
    assert rc == 1 and out_file == ""
    assert "numerical failure" in err
    assert path.read_text() == out


def test_continue_newton_failure_exits_one(capsys, monkeypatch, tmp_path):
    # every arclength step after the onset fails down to the halving
    # budget: the family ends "newton-failure" with its two records, which
    # are written, and the run must not exit 0
    import unchained.continuation as continuation
    from unchained.errors import NoConvergence
    onset = []

    def fail_after_onset(*args, real=continuation._corrector):
        if onset:
            raise NoConvergence("forced")
        onset.append(real(*args))
        return onset[0]

    monkeypatch.setattr(continuation, "_corrector", fail_after_onset)
    path = tmp_path / "p12.csv"
    rc, out, err = run(capsys, "continue", "3", "1", "-1", "2", "1",
                       "--steps", "4", "--out", str(path))
    assert rc == 1 and out == ""
    assert "numerical failure" in err and "newton-failure" in err
    text = path.read_text()
    assert text.splitlines()[-1] == "# end=newton-failure"
    assert len(csv_rows(text)) == 2


# ----------------------------------------------------------------- torsion

def test_torsion_json_p12(capsys):
    rc, out, _ = run(capsys, "torsion", "3", "1", "-1", "2", "1")
    assert rc == 0
    assert "16.589" in out
    data = json.loads(out)
    assert data["gamma"] == pytest.approx(16.589288688205574, rel=1e-9)
    assert data["spec"] == {"n_bodies": 3, "k": 1, "eta": -1, "r": 2, "s": 1}
    assert data["A2"] is None          # harmonic excluded by symmetry


def test_torsion_json_hiphop(capsys):
    rc, out, _ = run(capsys, "torsion", "4", "2", "1", "1", "1")
    assert rc == 0
    assert json.loads(out)["gamma"] > 19.0


@pytest.mark.parametrize("argv", [
    ("bounds", "5", "1", "-1", "4", "1"),
    ("bounds", "3", "1", "-1", "2", "1"),
    ("torsion", "3", "1", "-1", "2", "1"),
    ("torsion", "4", "2", "1", "1", "1"),
])
def test_bounds_and_torsion_build_the_vertical_spectrum_once(capsys,
                                                             monkeypatch,
                                                             argv):
    # the report and its probes, or the matching system and the result,
    # share one spectrum: behind an emptied per-N cache, the spectrum of N
    # is computed once per command, however often it is looked up
    computed = []

    def counted(n, real=spectrum._vertical_spectrum.__wrapped__):
        computed.append(n)
        return real(n)

    monkeypatch.setattr(spectrum, "_vertical_spectrum",
                        functools.cache(counted))
    rc, _, _ = run(capsys, *argv)
    assert rc == 0
    assert computed == [int(argv[1])]


def test_torsion_malformed_spec(capsys):
    # k out of range passes argument parsing, fails spec validation
    rc, _, err = run(capsys, "torsion", "3", "2", "1", "1", "1")
    assert rc == 2
    # eta outside {-1, 1} is rejected by the parser itself
    with pytest.raises(SystemExit) as excinfo:
        main(["torsion", "3", "1", "0", "1", "1"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------ global shape

def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["eigenvalues"])
    assert excinfo.value.code == 2


def test_reports_are_deterministic(capsys):
    for argv in (("spectrum", "5"), ("bounds", "4", "1", "1", "1", "1"),
                 ("torsion", "5", "2", "-1", "2", "1")):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_parser_is_built_once_and_keeps_calls_apart(capsys, tmp_path,
                                                   monkeypatch):
    # one parser serves every call in a process: calls with different
    # subcommands and --out lists each write only their own files, and
    # write what a parser built afresh for each call writes
    import unchained.cli as cli
    calls = [
        (["continue", "3", "1", "-1", "2", "1", "--steps", "1",
          "--out", "{}/p12.csv"], ["p12.csv"]),
        (["torsion", "4", "2", "1", "1", "1", "--out", "{}/hh4.json"],
         ["hh4.json"]),
        (["continue", "4", "2", "1", "1", "1", "3", "1", "-1", "2", "1",
          "--steps", "1", "--out", "{}/a.csv", "--out", "{}/b.csv"],
         ["a.csv", "b.csv"]),
    ]

    def run_all(folder):
        folder.mkdir()
        files = {}
        for argv, names in calls:
            assert main([arg.format(folder) for arg in argv]) == 0
            now = {p.name: p.read_text() for p in folder.iterdir()}
            assert sorted(set(now) - set(files)) == names
            assert all(now[name] == text for name, text in files.items())
            files = now
        capsys.readouterr()
        return files

    cached = run_all(tmp_path / "cached")
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert run_all(tmp_path / "fresh") == cached


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "unchained.cli", "spectrum", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "omega_1 = 0.75983568565159" in proc.stdout
    assert "6 eigenvalues" in proc.stdout


def test_exact_subcommands_load_no_scipy():
    # the package runs on numpy alone: the CLI and the exact subcommands
    # load no scipy module, and neither does importing continuation's names;
    # the CLI runs families in one process and loads no process pool
    code = (
        "import os, sys\n"
        "from unchained.cli import main\n"
        "print(any(m.split('.')[0] in ('concurrent', 'multiprocessing')\n"
        "          for m in sys.modules))\n"
        "spec = ['5', '1', '-1', '4', '1', '--out', os.devnull]\n"
        "for argv in (['spectrum', '5', '--out', os.devnull],\n"
        "             ['group'] + spec, ['bounds'] + spec,\n"
        "             ['torsion'] + spec):\n"
        "    assert main(argv) == 0, argv\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        "import unchained\n"
        "from unchained import *\n"
        "print(unchained.continue_family is continue_family,\n"
        "      any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True", "False"]
