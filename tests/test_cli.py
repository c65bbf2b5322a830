"""End-to-end runs of the command line against the shipped fixtures.

Commands run in-process through hyperrank.cli.main so coverage and
monkeypatching work; one test goes through the installed entry point
indirectly via python -m to keep the packaging honest.
"""

import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from hyperrank import cli, ergodicity, solenoid, spectra
from hyperrank.cli import main
from hyperrank.exact import padic
from hyperrank.errors import PrecisionExhausted, RootFindingFailure

from helpers import in_sector, least_sup_norm_in_sector

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(FIXTURES / name)


def run_module(*argv):
    """python -m hyperrank.cli in a child process that imports the package
    from this checkout's src, installed or not."""
    src = str(FIXTURES.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, "-m", "hyperrank.cli", *argv],
                          env=env, capture_output=True, text=True)


def count_refines(monkeypatch):
    """The argument tuples of every spectra._real_refine call from now on."""
    calls = []
    refine = spectra._real_refine

    def counted(*args, **kwargs):
        calls.append(args)
        return refine(*args, **kwargs)
    monkeypatch.setattr(spectra, "_real_refine", counted)
    return calls


def companion(e):
    """Companion of x^3 + x^2 - 10^e x - 1: roots near +-10^(e/2) and
    -10^-e, so at e >= 12 the smallest float eigenvalue underflows to 0."""
    return [[0, 0, 1], [1, 0, 10 ** e], [0, 1, -1]]


# rank1_4 of hyperbench's spectra workload at seed 5: a block of (M5, I5)
# and of (M5, M5^2) fails its real refinement, the whole action's does not
M5 = [[0, -2511, 0, 0, -2510], [1, 1871, 1, 0, 1872], [1, 3757, 1, 0, 3757],
      [0, 630, 1, 0, 631], [-1, -1871, -1, 1, -1872]]
M5_SQUARED = [[sum(a * b for a, b in zip(row, col)) for col in zip(*M5)]
              for row in M5]
I5 = [[int(i == j) for j in range(5)] for i in range(5)]


def run_quietly(capfd, *argv):
    """run() with every warning an error; stderr read at the descriptor."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    captured = capfd.readouterr()
    return code, captured.out, captured.err


# 1000000000000000003 * 1000000000000000009, beyond Pollard rho's budget
SEMIPRIME = 1000000000000000012000000000000000027


def _no_rho(n):
    raise AssertionError(f"Pollard rho called on {n}")


def strict_json(text):
    """json.loads refusing NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def no_work(*args):
    raise AssertionError("work before the refusal")


def refused_without_output(capsys, tmp_path, command, cfg, *argv):
    """The stderr of a run of command on the config object cfg that must
    exit 1, printing nothing and writing neither output file."""
    path, out_csv, summary = (tmp_path / name
                              for name in ("c.json", "c.csv", "s.json"))
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, str(path), "--out", str(out_csv),
                         "--summary", str(summary), *argv)
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert not out_csv.exists() and not summary.exists()
    return err


# --- analyze ----------------------------------------------------------------


RANK_TWO_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json")
    if len(json.loads(p.read_text()).get("generators", [])) == 2)


class TestAnalyze:
    def test_cat_exit_zero_with_spectrum(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", fixture("cat_analyze.json"),
                         "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        values = sorted(f["values"][0]
                        for f in report["lyapunov"]["functionals"])
        ref = math.log((3 + math.sqrt(5)) / 2)
        assert abs(values[0] + ref) < 1e-9
        assert abs(values[1] - ref) < 1e-9
        assert report["ergodicity"][0]["ergodic"] is True
        assert report["rank_one"] == {"applicable": False}
        assert report["z2_subgroup"]["status"] == "not_applicable"
        assert report["verdict"] == "ok"

    def test_cubic_units_certified_pair(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", fixture("cubic_units_z2.json"),
                         "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        z2 = report["z2_subgroup"]
        assert z2["status"] == "certified"
        assert z2["pair"] == [[0, 1], [1, -1]]
        assert z2["value_rank"] == 2
        assert report["rank_one"]["found"] is False
        assert len(report["weyl_chambers"]) == 6
        assert report["min_expansion_rate"] > 0

    def test_repeated_generator_rejects_pairs_first(self, capsys, tmp_path,
                                                    monkeypatch):
        # with V twice, every candidate pair before the certified one has a
        # combination that is the identity
        directions = []
        rounded = ergodicity._rounded_direction

        def recorded(v):
            directions.append(rounded(v))
            return directions[-1]
        monkeypatch.setattr(ergodicity, "_rounded_direction", recorded)
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", fixture("repeated_generator.json"),
                         "--out", str(out))
        assert code == 0
        z2 = json.loads(out.read_text())["z2_subgroup"]
        assert z2["status"] == "certified"
        assert z2["pair"] == [[0, 0, 1], [1, -1, -1]]
        assert directions == [(0, 1), (1, -1), (2, -1)]

    def test_product_action_rank_one_exit_two(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", fixture("rank_one_product.json"),
                         "--out", str(out))
        assert code == 2
        report = json.loads(out.read_text())
        assert report["rank_one"]["found"] is True
        assert report["rank_one"]["culprit_dim"] == 2
        assert report["verdict"] == "rank_one_factor"
        assert report["z2_subgroup"]["status"] == "skipped"
        # block generators restrict to the identity on one side
        assert [c["ergodic"] for c in report["ergodicity"]] == [False, False]

    def test_exhausted_budget_exit_three(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", fixture("z2_budget.json"),
                         "--out", str(out))
        assert code == 3
        report = json.loads(out.read_text())
        assert report["verdict"] == "inconclusive"
        assert report["z2_subgroup"]["status"] == "inconclusive"
        assert report["z2_subgroup"]["budget"] == [0, 8]

    def test_bound_flag_rescues_budget_fixture(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", fixture("z2_budget.json"),
                         "--bound", "1", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["z2_subgroup"]["status"] \
            == "certified"

    def test_malformed_config_exit_one(self, capsys):
        code, _, err = run(capsys, "analyze", fixture("malformed.json"))
        assert code == 1
        assert "format" in err

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
        assert code == 1

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "generators": [[[2, 1], [1, 1]]], "spare": 0}))
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 1
        assert "spare" in err

    def test_noncommuting_generators_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1,
             "generators": [[[2, 1], [1, 1]], [[1, 1], [0, 1]]]}))
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 1

    def test_singular_generator_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "generators": [[[1, 1], [1, 1]]]}))
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 1

    def test_report_to_stdout_by_default(self, capsys):
        code, out, _ = run(capsys, "analyze", fixture("cat_analyze.json"))
        assert code == 0
        assert json.loads(out)["verdict"] == "ok"

    def test_padic_precision_doubles_past_the_old_retry_cap(self, capsys,
                                                            tmp_path):
        # v_2(det) = 40 needs more than the 4 -> 32 of four doublings; the
        # pair is a product of two rank-one factors, so the verdict is 2
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "padic_precision": 4,
             "generators": [[[2 ** 40, 0], [0, 1]], [[1, 0], [0, 3]]]}))
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", str(cfg), "--out", str(out))
        assert code == 2
        report = json.loads(out.read_text())
        assert report["verdict"] == "rank_one_factor"
        exact = [f["exact"] for f in report["lyapunov"]["functionals"]
                 if f["place"] == 2]
        assert ["40", "0"] in exact

    def test_padic_precision_rank_one_action_exit_zero(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "padic_precision": 4,
             "generators": [[[2 ** 40, 0], [0, 3]]]}))
        code, out, _ = run(capsys, "analyze", str(cfg))
        assert code == 0
        assert json.loads(out)["verdict"] == "ok"

    @pytest.mark.parametrize("target, exc", [
        ("_padic_refine", PrecisionExhausted("no digits left")),
        ("_real_refine", RootFindingFailure("clusters not separated")),
    ])
    def test_numerical_failure_exit_three_with_partial_report(
            self, capsys, tmp_path, monkeypatch, target, exc):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(spectra, target, fail)
        cfg = tmp_path / "c.json"      # det 5: one p-adic place
        cfg.write_text(json.dumps(
            {"format": 1, "generators": [[[3, 1], [1, 2]]]}))
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", str(cfg), "--out", str(out))
        assert code == 3
        report = json.loads(out.read_text())
        assert report["verdict"] == "inconclusive"
        assert str(exc) in report["error"]
        assert report["ergodicity"][0]["ergodic"] is True

    @pytest.mark.parametrize("tol", ["NaN", "Infinity"])
    def test_non_finite_tol_exit_one(self, capsys, tmp_path, tol):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"format": 1, "generators": [[[2, 1], [1, 1]]], '
                       f'"tol": {tol}}}')
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 1
        assert "tol" in err

    def test_tol_above_the_bound_exit_one(self, capsys, tmp_path):
        # at tol 1 every value matrix has float rank <= 1, which used to
        # report a rank-one factor for the cubic units
        config = json.loads(Path(fixture("cubic_units_z2.json")).read_text())
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**config, "tol": 1}))
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(cfg))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "tol must be <= 0.001" in err
        assert out == ""

    def test_tol_at_the_bound_keeps_the_default_report(self, capsys,
                                                       tmp_path):
        config = json.loads(Path(fixture("cubic_units_z2.json")).read_text())
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**config, "tol": 1e-3}))
        code, at_bound, _ = run(capsys, "analyze", str(cfg))
        assert code == 0
        code, default, _ = run(capsys, "analyze",
                               fixture("cubic_units_z2.json"))
        assert code == 0
        assert at_bound == default

    def test_unsaturated_split_rank_one_exit_two(self, capsys, tmp_path):
        # generators M and M^2; M has the eigenvalue 1, so a rank-one factor.
        # Splitting M's charpoly gives a kernel-of-kernel lattice of index 2
        # in its rational span, which used to end in exit 1.
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "analyze",
                           fixture("unsaturated_split.json"),
                           "--out", str(out))
        assert code == 2, err
        report = json.loads(out.read_text())
        assert report["verdict"] == "rank_one_factor"
        assert report["rank_one"]["blocks"] == [[1, 0], [2, 1]]
        assert report["rank_one"]["culprit_dim"] == 1

    def test_entry_beyond_float_range_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"format": 1, "generators": '
                       f'[[[{10 ** 320 + 1}, 1], [1, 1]]]}}')
        code, out, err = run(capsys, "analyze", str(cfg))
        assert code == 1
        assert "generators[0]" in err and "finite" in err
        assert out == ""

    def test_later_generator_resplits_a_block_exit_two(self, capsys,
                                                      tmp_path):
        # diag(2, 1, 1) splits off e_0; diag(1, 1, 3) then splits the
        # remaining plane, which used to end in a shape-mismatch traceback
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "analyze", fixture("double_split.json"),
                           "--out", str(out))
        assert code == 2, err
        report = json.loads(out.read_text())
        assert report["verdict"] == "rank_one_factor"
        assert report["rank_one"]["blocks"] == [[1, 1], [1, 0], [1, 1]]

    def test_sqrt2_tensor_splits_into_two_rank_one_blocks(self, capsys,
                                                          tmp_path):
        # no generator splits Q(sqrt 2) (x) Q(sqrt 2); their sum does, and
        # rho(1, -1) is the identity on one of the two 2-dimensional blocks
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "analyze", fixture("sqrt2_tensor.json"),
                           "--out", str(out))
        assert code == 2, err
        report = json.loads(out.read_text())
        assert report["verdict"] == "rank_one_factor"
        assert report["rank_one"]["blocks"] == [[2, 1], [2, 1]]
        assert report["rank_one"]["culprit_dim"] == 2

    def test_certificate_covers_the_span(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", fixture("cubic_units_z2.json"),
                         "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["z2_subgroup"] == {
            "status": "certified", "pair": [[0, 1], [1, -1]],
            "covers": "span", "value_rank": 2}

    def test_bound_flag_obeys_the_pair_bound_limits(self, capsys):
        code, out, err = run(capsys, "analyze", fixture("z2_budget.json"),
                             "--bound", "-1")
        assert code == 1
        assert "--bound must be >= 0" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["1.0", "true"])
    def test_format_must_be_the_integer_one(self, capsys, tmp_path, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"format": {value}, '
                       '"generators": [[[2, 1], [1, 1]]]}')
        code, out, err = run(capsys, "analyze", str(cfg))
        assert code == 1
        assert "format" in err
        assert out == ""

    def test_non_square_generator_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "generators": [[[2, 1, 0], [1, 1, 0]]]}))
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 1
        assert "generators[0][0] must be a list of length 2" in err

    @pytest.mark.parametrize("det", [10 ** 16 + 61, 10 ** 24 + 7])
    def test_large_prime_determinant_exit_zero(self, capsys, tmp_path, det):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "generators": [[[det, 0], [0, 1]]]}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "analyze", str(cfg))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        places = [f["place"] for f in json.loads(out)["lyapunov"]
                  ["functionals"]]
        assert det in places

    @pytest.mark.parametrize("prec", [4097, 10 ** 6])
    def test_padic_precision_capped(self, capsys, tmp_path, prec):
        # 10^6 digits took 3 s on this matrix before the cap
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"format": 1, "padic_precision": prec,
                                   "generators": [[[3, 1], [1, 1]]]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(cfg))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "padic_precision must be <= 4096" in err
        assert out == ""

    @pytest.mark.parametrize("e", [12, 300])
    def test_underflowing_eigenvalue_exit_three_without_noise(
            self, capfd, tmp_path, e):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"format": 1,
                                   "generators": [companion(e)]}))
        out = tmp_path / "report.json"
        code, stdout, err = run_quietly(capfd, "analyze", str(cfg),
                                        "--out", str(out))
        assert code == 3
        assert (stdout, err) == ("", "")
        report = json.loads(out.read_text())
        assert report["verdict"] == "inconclusive"
        assert "underflows to modulus 0" in report["error"]

    def test_unsplittable_determinant_exit_three(self, capsys, tmp_path):
        # two 21-digit prime factors: beyond Pollard rho's step budget
        det = (10 ** 20 + 39) * (3 * 10 ** 20 + 53)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "generators": [[[det, 0], [0, 1]]]}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "analyze", str(cfg))
        assert time.perf_counter() - start < 5.0
        assert code == 3
        report = json.loads(out)
        assert report["verdict"] == "inconclusive"
        assert str(det) in report["error"]

    def test_narrow_chamber_exit_zero(self, capsys, tmp_path):
        # the chamber between the angles 3.1283 and pi holds no integer
        # vector of sup norm <= 75; its least-sup-norm one is (-76, 1)
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "analyze", fixture("narrow_chamber.json"),
                           "--out", str(out))
        assert code == 0, err
        report = json.loads(out.read_text())
        reps = [c["representative"] for c in report["weyl_chambers"]]
        assert [-76, 1] in reps and [76, -1] in reps
        assert report["z2_subgroup"]["status"] == "certified"

    @pytest.mark.parametrize("name", RANK_TWO_FIXTURES)
    def test_chamber_representatives_against_brute_force(self, capsys, name):
        # each representative lies strictly inside its sector, no integer
        # vector of smaller sup norm does, and it gives the reported signs
        tol = json.loads((FIXTURES / name).read_text()).get("tol", 1e-9)
        code, out, err = run(capsys, "analyze", fixture(name))
        assert code in (0, 2, 3), err
        report = json.loads(out)
        values = [f["values"] for f in report["lyapunov"]["functionals"]
                  if math.hypot(*f["values"]) > max(tol, 1e-12)]
        for chamber in report["weyl_chambers"]:
            a0, a1 = chamber["sector"]
            x, y = chamber["representative"]
            assert in_sector(x, y, a0, a1), chamber
            norm = max(abs(x), abs(y))
            assert least_sup_norm_in_sector(a0, a1, norm) == norm, chamber
            assert chamber["signs"] == [1 if a * x + b * y > 0 else -1
                                        for a, b in values]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "analyze", fixture("cubic_units_z2.json"),
            "--out", str(a))
        run(capsys, "analyze", fixture("cubic_units_z2.json"),
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name, shared", [
        ("cubic_units_z2.json", True),
        ("narrow_chamber.json", True),
        ("rank_one_product.json", False),
        ("double_split.json", False),
    ])
    def test_one_block_shares_the_report_spectrum(self, capsys, monkeypatch,
                                                  name, shared):
        # one refinement for the report, plus one per block unless the
        # action is a single block, whose spectrum is the report's
        calls = count_refines(monkeypatch)
        _, out, _ = run(capsys, "analyze", fixture(name))
        blocks = json.loads(out)["rank_one"]["blocks"]
        assert (len(blocks) == 1) == shared
        assert len(calls) == (1 if shared else 1 + len(blocks))

    def test_other_precision_refines_again(self, capsys, tmp_path,
                                           monkeypatch):
        # the rank-one and Z^2 checks run at the configured precision, so
        # the report's spectrum at precision 16 serves them too
        config = json.loads(Path(fixture("cubic_units_z2.json")).read_text())
        config["padic_precision"] = 16
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        calls = count_refines(monkeypatch)
        code, out, _ = run(capsys, "analyze", str(cfg))
        assert code == 0 and len(calls) == 1
        _, default, _ = run(capsys, "analyze", fixture("cubic_units_z2.json"))
        assert (json.loads(out)["z2_subgroup"]
                == json.loads(default)["z2_subgroup"])

    def test_blocks_refine_at_the_configured_precision(self, capsys, tmp_path,
                                                        monkeypatch):
        # diag(2, 1, 1) and diag(1, 1, 3): the blocks of e_1 and e_3 refine
        # at 2 and 3 from base precision 16, and the report's p-adic
        # functionals are theirs, so the whole action refines no place
        config = json.loads(Path(fixture("double_split.json")).read_text())
        config["padic_precision"] = 16
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        calls = []
        padic = spectra._padic_functionals

        def recorded(action, p, base_prec):
            calls.append((action.dim, p, base_prec))
            return padic(action, p, base_prec)
        monkeypatch.setattr(spectra, "_padic_functionals", recorded)
        code, _, _ = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert sorted(calls) == [(1, 2, 16), (1, 3, 16)]

    @pytest.mark.parametrize("second", [I5, M5_SQUARED], ids=["I", "M^2"])
    def test_failing_block_keeps_the_whole_action_spectrum(
            self, capsys, tmp_path, monkeypatch, second):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"format": 1,
                                   "generators": [M5, second]}))
        reports = []
        for merge in (True, False):
            if not merge:   # the whole action refines its own places
                monkeypatch.setattr(spectra, "_merged_padic",
                                    lambda *args: None)
            out = tmp_path / f"{merge}.json"
            code, _, _ = run(capsys, "analyze", str(cfg), "--out", str(out))
            assert code == 3
            reports.append(out.read_bytes())
        report = json.loads(reports[0])
        assert "null space dimension 2" in report["error"]
        for key in ("lyapunov", "coarse_classes", "weyl_chambers",
                    "min_expansion_rate"):
            assert key in report
        assert reports[0] == reports[1]

    def test_failing_block_is_refined_once(self, capsys, tmp_path,
                                           monkeypatch):
        # the whole action, then the blocks of dims 2 and 3 in the merge;
        # the rank-one check gets the dim-3 block's failure from its cache
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"format": 1, "generators": [M5, I5]}))
        dims = []
        real_refine = spectra._real_refine

        def recorded(action, tol):
            dims.append(action.dim)
            return real_refine(action, tol)
        monkeypatch.setattr(spectra, "_real_refine", recorded)
        code, _, _ = run(capsys, "analyze", str(cfg))
        assert code == 3
        assert dims == [5, 2, 3]


# --- mixing -----------------------------------------------------------------


class TestMixing:
    def test_lacunary_decay_near_log_two(self, capsys, tmp_path):
        csv_path = tmp_path / "curve.csv"
        summary = tmp_path / "summary.json"
        code, _, _ = run(capsys, "mixing", fixture("doubling_mixing.json"),
                         "--out", str(csv_path), "--summary", str(summary))
        assert code == 0
        s = json.loads(summary.read_text())
        assert abs(s["decay_rate"] - math.log(2)) < 0.05
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,re(C),im(C),method,samples,stderr"
        assert len(lines) == 1 + 8          # header + lags 0..7
        # C(0) = sum r^{2j}/2 (two symmetric modes per j, coefficient r^j/2)
        c0 = float(lines[1].split(",")[1])
        ref = sum(2 * (0.5 ** j / 2) ** 2 for j in range(8))
        assert abs(c0 - ref) < 1e-12

    def test_cat_single_character_certified_zero(self, capsys, tmp_path):
        summary = tmp_path / "summary.json"
        code, _, _ = run(capsys, "mixing", fixture("cat_mixing.json"),
                         "--out", str(tmp_path / "c.csv"),
                         "--summary", str(summary))
        assert code == 0
        s = json.loads(summary.read_text())
        assert s["zero_from"] == 1
        assert s["certified_zero_from"] == 1
        assert s["decay_rate"] is None

    def test_dual_lattice_violation_exit_four(self, capsys):
        code, _, err = run(capsys, "mixing", fixture("bad_modes.json"))
        assert code == 4
        assert "3" in err and "outside" in err

    def test_monte_carlo_rows_appended(self, capsys, tmp_path):
        csv_path = tmp_path / "curve.csv"
        summary = tmp_path / "summary.json"
        code, _, _ = run(capsys, "mixing", fixture("doubling_mixing.json"),
                         "--mc", "500", "--out", str(csv_path),
                         "--summary", str(summary))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        mc = [ln for ln in lines[1:] if ln.split(",")[3] == "mc"]
        assert len(mc) == 8
        s = json.loads(summary.read_text())
        assert len(s["mc"]) == 8
        for row, exact in zip(s["mc"], lines[1:9]):
            ev = float(exact.split(",")[1])
            assert abs(row["re"] - ev) <= 5 * row["stderr"] + 1e-12

    @pytest.mark.parametrize("name", ["cat_mixing.json",
                                      "doubling_mixing.json"])
    def test_monte_carlo_builds_no_points(self, capsys, tmp_path,
                                          monkeypatch, name):
        # the Haar draws go straight into integer columns, the fibred
        # doubling map's too; the rows are those the points gave
        def outputs(tag):
            out_csv, summary = (tmp_path / f"{tag}.{ext}"
                                for ext in ("csv", "json"))
            code, _, _ = run(capsys, "mixing", fixture(name), "--mc", "200",
                             "--out", str(out_csv), "--summary", str(summary))
            assert code == 0
            return out_csv.read_bytes(), summary.read_bytes()

        def no_points(*args, **kwargs):
            raise AssertionError("a SolenoidPoint was built")

        plain = outputs("plain")
        monkeypatch.setattr(solenoid, "SolenoidPoint", no_points)
        assert outputs("patched") == plain

    def test_mc_deterministic_and_seed_sensitive(self, capsys, tmp_path,
                                                 monkeypatch):
        def curve(tag):
            path = tmp_path / f"{tag}.csv"
            code, _, _ = run(capsys, "mixing",
                             fixture("doubling_mixing.json"),
                             "--mc", "400", "--out", str(path),
                             "--summary", str(tmp_path / f"{tag}.json"))
            assert code == 0
            return path.read_bytes()

        first = curve("a")
        assert curve("b") == first
        monkeypatch.setenv("HYPERRANK_SEED", "99")
        assert curve("c") != first

    def test_seed_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERRANK_SEED", "pi")
        code, _, err = run(capsys, "mixing", fixture("doubling_mixing.json"),
                           "--mc", "10")
        assert code == 1
        assert "HYPERRANK_SEED" in err

    @pytest.mark.parametrize("coeff", ["[NaN, 0]", "[0.5, Infinity]",
                                       "[-Infinity, 0]", "[1e999, 0]"])
    def test_non_finite_coefficient_exit_one(self, capsys, tmp_path, coeff):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"format": 1, "primes": [2], "matrix": [[2]], '
                       f'"f": [{{"mode": [1], "coeff": {coeff}}}]}}')
        code, out, err = run(capsys, "mixing", str(cfg), "--mc", "10")
        assert code == 1
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize("primes, mode", [([], [0, 1]),
                                              ([2], ["1/2", 1])])
    def test_singular_matrix_exit_one(self, capsys, tmp_path, monkeypatch,
                                      primes, mode):
        # [[2, 0], [0, 0]] is not onto, so no Haar measure is invariant;
        # before the refusal this exited 0 with a "decay rate" of a curve
        # that is 3 at every lag n >= 1
        def no_curve_work(*args):
            raise AssertionError("curve work before the refusal")
        monkeypatch.setattr(cli, "_most_lags", no_curve_work)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "primes": primes, "matrix": [[2, 0], [0, 0]],
             "f": [{"mode": mode, "coeff": [1, 0]}],
             "g": [{"mode": [0, 0], "coeff": [3, 0]}]}))
        out_csv, summary = tmp_path / "c.csv", tmp_path / "s.json"
        code, out, err = run(capsys, "mixing", str(cfg), "--out",
                             str(out_csv), "--summary", str(summary))
        assert code == 1
        assert "determinant 0" in err
        assert out == ""
        assert not out_csv.exists() and not summary.exists()

    def test_matrix_entry_beyond_float_range_exit_one(self, capsys,
                                                      tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"format": 1, "primes": [2], '
                       f'"matrix": [[{2 * 10 ** 320}]], '
                       '"f": [{"mode": [1], "coeff": [1, 0]}]}')
        code, out, err = run(capsys, "mixing", str(cfg), "--mc", "10")
        assert code == 1
        assert "matrix" in err and "finite" in err
        assert out == ""

    @pytest.mark.parametrize("flag, value, message", [
        ("--mc", "0", "--mc must be >= 2"),
        ("--mc", "-5", "--mc must be >= 2"),
        # one sample has no sample variance: its stderr read 0.0
        ("--mc", "1", "--mc must be >= 2"),
        ("mc.samples", 1, "mc: samples must be >= 2"),
        ("--nmax", "0", "--nmax must be >= 1"),
        ("--nmax", "-1", "--nmax must be >= 1"),
    ])
    def test_flags_obey_the_limits_of_their_keys(self, capsys, tmp_path,
                                                 monkeypatch, flag, value,
                                                 message):
        monkeypatch.setattr(cli, "mixing_curve", no_work)
        cfg = json.loads((FIXTURES / "doubling_mixing.json").read_text())
        argv = [flag, value]
        if flag == "mc.samples":        # the key itself
            cfg["mc"], argv = {"samples": value}, []
        err = refused_without_output(capsys, tmp_path, "mixing", cfg, *argv)
        assert message in err

    @pytest.mark.parametrize("source", ["flag", "key"])
    def test_monte_carlo_samples_capped(self, capsys, tmp_path, source):
        cfg = json.loads((FIXTURES / "doubling_mixing.json").read_text())
        argv = []
        if source == "flag":
            argv = ["--mc", "1000001"]
        else:
            cfg["mc"] = {"samples": 1000001}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code, out, err = run(capsys, "mixing", str(path), *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "must be <= 1000000" in err
        assert out == ""

    @pytest.mark.parametrize("matrix, keys, argv, message", [
        # (A^T)^200000 (1, 0) has about 111000 digits; writing a mode that
        # long raised ValueError in TrigFunction.build
        ([[3, 1], [1, 2]], {"mc": {"lags": [200000], "samples": 10}}, [],
         "mc: lags[0] must be <= 7697"),
        ([[3, 1], [1, 2]], {"n_max": 7698}, [], "n_max must be <= 7697"),
        ([[3, 1], [1, 2]], {}, ["--nmax", "8000"], "--nmax must be <= 7697"),
        ([[0, 1], [1, 0]], {}, ["--nmax", str(10 ** 9)],
         "--nmax must be <= 10000"),
        ([[0, 1], [1, 0]], {"mc": {"lags": [10001]}}, ["--mc", "10"],
         "mc: lags[0] must be <= 10000"),
        ([[2, 0], [0, 2]], {"f": [{"mode": [10 ** 4299, 0],
                                   "coeff": [1, 0]}]}, [],
         "f: modes pushed forward once may exceed 4300 digits"),
    ])
    def test_lags_capped(self, capsys, tmp_path, matrix, keys, argv,
                         message):
        cfg = {"format": 1, "primes": [], "matrix": matrix,
               "f": [{"mode": [1, 0], "coeff": [0.5, 0]}], **keys}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code, out, err = run(capsys, "mixing", str(path), *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert message in err
        assert out == ""

    def test_largest_lag_runs(self, capsys, tmp_path):
        cfg = {"format": 1, "primes": [], "matrix": [[3, 1], [1, 2]],
               "f": [{"mode": [1, 0], "coeff": [0.5, 0]}], "n_max": 2,
               "mc": {"lags": [7697], "samples": 10}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        summary = tmp_path / "s.json"
        code, _, err = run(capsys, "mixing", str(path), "--out",
                           str(tmp_path / "o.csv"), "--summary", str(summary))
        assert (code, err) == (0, "")
        assert [r["n"] for r in json.loads(summary.read_text())["mc"]] == [
            7697]

    def test_negative_seed_env_exit_one(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERRANK_SEED", "-1")
        code, out, err = run(capsys, "mixing", fixture("doubling_mixing.json"),
                             "--mc", "10")
        assert code == 1
        assert "HYPERRANK_SEED must be >= 0" in err
        assert out == ""

    def test_primes_must_be_prime(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "primes": [4], "matrix": [[2]],
             "f": [{"mode": ["1/4"], "coeff": [1, 0]}]}))
        code, out, err = run(capsys, "mixing", str(cfg))
        assert code == 1
        assert "primes[0]: 4 is not a prime" in err
        assert out == ""

    def test_composite_prime_is_refused_without_factoring(self, capsys,
                                                          tmp_path,
                                                          monkeypatch):
        # Pollard rho would spend its whole budget on this semiprime and
        # report it inconclusive; Miller-Rabin proves it composite
        monkeypatch.setattr(padic, "_pollard_brent", _no_rho)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "primes": [SEMIPRIME], "matrix": [[2]],
             "f": [{"mode": ["1/4"], "coeff": [1, 0]}]}))
        code, out, err = run(capsys, "mixing", str(cfg))
        assert code == 1
        assert f"primes[0]: {SEMIPRIME} is not a prime" in err
        assert out == ""

    def _with(self, tmp_path, **changes):
        config = json.loads((FIXTURES / "doubling_mixing.json").read_text())
        config.update(changes)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        return str(cfg)

    @pytest.mark.parametrize("mode,cert", [
        (str(10 ** 400), None),              # the entry is past float range
        ("1/" + str(2 ** 1100), 1),          # the lcm is past float range
        ("1/2", 1)], ids=["huge_entry", "huge_denominator", "half"])
    def test_certificate_with_huge_modes(self, capsys, tmp_path, mode, cert):
        summary = tmp_path / "s.json"
        cfg = self._with(tmp_path, f=[{"mode": [mode], "coeff": [1, 0]}],
                         n_max=3)
        code, _, err = run(capsys, "mixing", cfg, "--out",
                           str(tmp_path / "c.csv"), "--summary", str(summary))
        assert (code, err) == (0, "")
        assert json.loads(summary.read_text())["certified_zero_from"] == cert

    def test_repeated_prime_changes_nothing(self, capsys, tmp_path):
        # a prime listed twice once drew a second fibre for every sample
        outputs = []
        for primes in ([2, 2], [2]):
            out, summary = tmp_path / "c.csv", tmp_path / "s.json"
            code, _, err = run(capsys, "mixing",
                               self._with(tmp_path, primes=primes),
                               "--mc", "200", "--out", str(out),
                               "--summary", str(summary))
            assert (code, err) == (0, "")
            outputs.append((out.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_fit_range_is_inclusive(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        code, _, _ = run(capsys, "mixing",
                         self._with(tmp_path, fit_range=[1, 6]),
                         "--out", str(tmp_path / "c.csv"),
                         "--summary", str(summary))
        assert code == 0
        assert json.loads(summary.read_text())["fit_points"] == 6

    @pytest.mark.parametrize("fit_range", [[1, 40], [3, 1], [-1, 2]])
    def test_fit_range_outside_the_lags_exit_one(self, capsys, tmp_path,
                                                 fit_range):
        code, out, err = run(capsys, "mixing",
                             self._with(tmp_path, fit_range=fit_range))
        assert code == 1
        assert "fit_range" in err
        assert out == ""

    @pytest.mark.parametrize("mode", [[1], [1, 0, 0]])
    def test_mode_length_must_match_the_matrix(self, capsys, tmp_path,
                                               mode):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "primes": [], "matrix": [[2, 1], [1, 1]],
             "f": [{"mode": [1, 0], "coeff": [1, 0]}],
             "g": [{"mode": mode, "coeff": [1, 0]}]}))
        code, out, err = run(capsys, "mixing", str(cfg))
        assert code == 1
        assert "g[0].mode must be a list of length 2" in err
        assert out == ""

    def test_deep_mode_monte_carlo_exit_zero(self, capsys, tmp_path):
        # the mode 2^-40 needs 40 fiber digits at p = 2, more than the 32 a
        # sampled point carries at least
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "primes": [2], "matrix": [[2]], "n_max": 3,
             "f": [{"mode": [f"1/{2 ** 40}"], "coeff": [0.5, 0]},
                   {"mode": [f"-1/{2 ** 40}"], "coeff": [0.5, 0]}]}))
        summary = tmp_path / "s.json"
        code, _, err = run(capsys, "mixing", str(cfg), "--mc", "10",
                           "--out", str(tmp_path / "c.csv"),
                           "--summary", str(summary))
        assert code == 0, err
        lines = (tmp_path / "c.csv").read_text().splitlines()
        mc = json.loads(summary.read_text())["mc"]
        assert len(mc) == 4
        for row, exact in zip(mc, lines[1:5]):
            ev = float(exact.split(",")[1])
            assert abs(row["re"] - ev) <= 5 * row["stderr"] + 1e-12

    @pytest.mark.parametrize("spelling", ["1e10000000", "1e1000000", "0.5",
                                          "1/2 ", "+1", "1_0"])
    def test_rational_spellings_beyond_p_over_q_exit_one(self, capsys,
                                                         tmp_path, spelling):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "primes": [2], "matrix": [[2]],
             "f": [{"mode": [spelling], "coeff": [1, 0]}]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "mixing", str(cfg))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert f"f[0].mode[0]: cannot parse rational {spelling!r}" in err
        assert out == ""

    def test_unsplittable_mode_denominator_exit_three(self, capsys,
                                                      tmp_path):
        den = (10 ** 20 + 39) * (3 * 10 ** 20 + 53)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "primes": [2], "matrix": [[2]],
             "f": [{"mode": [f"1/{den}"], "coeff": [1, 0]}]}))
        code, out, err = run(capsys, "mixing", str(cfg))
        assert code == 3
        assert err.startswith("inconclusive:")
        assert out == ""

    def test_non_square_matrix_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "primes": [], "matrix": [[2, 1]],
             "f": [{"mode": [1, 0], "coeff": [1, 0]}]}))
        code, out, err = run(capsys, "mixing", str(cfg))
        assert code == 1
        assert "matrix[0] must be a list of length 1" in err
        assert out == ""

    def test_nmax_flag_overrides_config(self, capsys, tmp_path):
        csv_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "mixing", fixture("doubling_mixing.json"),
                         "--nmax", "3", "--out", str(csv_path),
                         "--summary", str(tmp_path / "s.json"))
        assert code == 0
        assert len(csv_path.read_text().splitlines()) == 1 + 4

    @pytest.mark.parametrize("f, g, key", [
        # before the cap this exited 0 with a CSV row 0 of inf,inf and
        # every Monte Carlo number of the summary NaN
        ([([1], [1e308, 1e308])], [([-1], [1e308, 0])], "f"),
        ([([1], [0.5, 0])], [([-1], [1e308, 0])], "g"),
        # no coefficient passes the cap, their l1 norm does
        ([([1], [6e74, 0]), ([-1], [0, 6e74])], [([-1], [1, 0])], "f"),
    ], ids=["f_and_g_overflow", "g_overflows", "sum_above_the_cap"])
    def test_coefficient_norm_above_the_cap_exit_one(
            self, capsys, tmp_path, monkeypatch, f, g, key):
        monkeypatch.setattr(cli, "_most_lags", no_work)
        cfg = {"format": 1, "primes": [2], "matrix": [[2]]}
        for name, terms in (("f", f), ("g", g)):
            cfg[name] = [{"mode": m, "coeff": c} for m, c in terms]
        err = refused_without_output(capsys, tmp_path, "mixing", cfg,
                                     "--mc", "10")
        assert f": {key}: the coefficients' l1 norm is above 1e+75" in err

    def test_coefficient_norm_at_the_cap_stays_finite(self, capsys,
                                                      tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "primes": [2], "matrix": [[2]],
             "f": [{"mode": [1], "coeff": [5e74, 0]},
                   {"mode": [-1], "coeff": [0, 5e74]}],
             "g": [{"mode": [-1], "coeff": [1e75, 0]}]}))
        out_csv, summary = tmp_path / "c.csv", tmp_path / "s.json"
        code, _, _ = run(capsys, "mixing", str(cfg), "--mc", "100",
                         "--out", str(out_csv), "--summary", str(summary))
        assert code == 0
        s = strict_json(summary.read_text())
        numbers = [v for row in s["mc"] for v in row.values()]
        assert len(numbers) == 5 * 13
        assert all(math.isfinite(v) for v in numbers)
        for line in out_csv.read_text().splitlines()[1:]:
            n, re_, im_, _, _, stderr = line.split(",")
            assert all(map(math.isfinite, map(float, (re_, im_, stderr))))


# --- conjugate --------------------------------------------------------------


class TestConjugate:
    def test_doubling_field_and_summary(self, capsys, tmp_path):
        csv_path = tmp_path / "field.csv"
        summary = tmp_path / "summary.json"
        code, _, _ = run(capsys, "conjugate",
                         fixture("doubling_conjugate.json"),
                         "--out", str(csv_path), "--summary", str(summary))
        assert code == 0
        s = json.loads(summary.read_text())
        assert s["residual"] < 1e-8
        assert s["rate_bound"] == 0.5
        assert s["sweeps"] <= 40
        # off-grid residual sits at the interpolation level, not at tol
        assert s["verify"]["sup"] < 1e-3
        assert 0.5 < s["holder"]["exponent"] <= 1.2
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "index,x0,h0"
        assert len(lines) == 1 + 4096

    @pytest.mark.parametrize("e", [12, 300])
    def test_underflowing_eigenvalue_exit_five_without_noise(
            self, capfd, tmp_path, e):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"format": 1, "matrix": companion(e),
                                   "perturbation": [], "grid": 8}))
        code, stdout, err = run_quietly(
            capfd, "conjugate", str(cfg), "--out", str(tmp_path / "f.csv"))
        assert code == 5
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "underflows to modulus 0" in err

    def test_grid_flag_overrides_config(self, capsys, tmp_path):
        csv_path = tmp_path / "field.csv"
        code, _, _ = run(capsys, "conjugate",
                         fixture("doubling_conjugate.json"),
                         "--grid", "256", "--out", str(csv_path),
                         "--summary", str(tmp_path / "s.json"))
        assert code == 0
        assert len(csv_path.read_text().splitlines()) == 1 + 256

    def test_grid_flag_obeys_the_grid_limits(self, capsys):
        code, out, err = run(capsys, "conjugate",
                             fixture("doubling_conjugate.json"),
                             "--grid", "1")
        assert code == 1
        assert "--grid must be >= 2" in err
        assert out == ""

    @pytest.mark.parametrize("dim, keys, argv, message", [
        (1, {}, ["--grid", str(2 ** 20 + 1)], "--grid must be <= 1048576"),
        (2, {}, ["--grid", "1025"], "--grid must be <= 1024"),
        (3, {"grid": 81}, [], "grid must be <= 80"),
        (12, {}, [], "more than 4194304 interpolation corners"),
        (1, {"verify_samples": 10 ** 6 + 1}, [],
         "verify_samples must be <= 1000000"),
        (2, {"holder_pairs": 10 ** 6 + 1}, [],
         "holder_pairs must be <= 1000000"),
        (3, {"verify_samples": 2 ** 19 + 1}, [],
         "verify_samples must be <= 524288"),
        (3, {"holder_pairs": 2 ** 19 + 1}, [],
         "holder_pairs must be <= 524288"),
    ])
    def test_engine_sizes_capped(self, capsys, tmp_path, dim, keys, argv,
                                 message):
        cfg = {"format": 1,
               "matrix": [[2 if i == j else 0 for j in range(dim)]
                          for i in range(dim)],
               "perturbation": [{"mode": [0] * dim,
                                 "coeff": [[0.01, 0]] * dim}],
               **keys}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code, out, err = run(capsys, "conjugate", str(path), *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert message in err
        assert out == ""

    def test_non_square_matrix_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "matrix": [[2, 0], [0, 2], [1, 1]],
             "perturbation": []}))
        code, out, err = run(capsys, "conjugate", str(cfg))
        assert code == 1
        assert "matrix[0] must be a list of length 3" in err
        assert out == ""

    def test_cat_linear_part_exit_five(self, capsys):
        code, _, err = run(capsys, "conjugate", fixture("not_expanding.json"))
        assert code == 5
        assert "not > 1" in err

    def test_zero_perturbation_constant_field(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "matrix": [[3]], "perturbation": [],
             "grid": 32}))
        summary = tmp_path / "s.json"
        code, _, _ = run(capsys, "conjugate", str(cfg),
                         "--out", str(tmp_path / "f.csv"),
                         "--summary", str(summary))
        assert code == 0
        s = json.loads(summary.read_text())
        assert s["residual"] == 0.0
        assert s["holder"] is None
        assert s["verify"]["sup"] < 1e-12

    def test_constant_field_with_distinct_components(self, capsys, tmp_path):
        # q = delta constant: h = (A - I)^-1 delta, flat in each component
        # but with two different levels
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "matrix": [[3, 1], [1, 2]], "grid": 16,
             "perturbation": [{"mode": [0, 0],
                               "coeff": [[-0.122, 0], [0.143, 0]]}]}))
        summary = tmp_path / "s.json"
        code, _, _ = run(capsys, "conjugate", str(cfg),
                         "--out", str(tmp_path / "f.csv"),
                         "--summary", str(summary))
        assert code == 0
        assert json.loads(summary.read_text())["holder"] is None

    @pytest.mark.parametrize("where", ["re", "im", "tol"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_number_exit_one(self, capsys, tmp_path,
                                               where, value):
        re_, im_, tol = ("-0.1", "0", "1e-8")
        if where == "re":
            re_ = value
        elif where == "im":
            im_ = value
        else:
            tol = value
        cfg = tmp_path / "c.json"
        cfg.write_text('{"format": 1, "matrix": [[2]], "tol": ' + tol
                       + ', "perturbation": [{"mode": [1], "coeff": [['
                       + re_ + ', ' + im_ + ']]}]}')
        code, out, err = run(capsys, "conjugate", str(cfg))
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-8"])
    def test_bad_tol_flag_exit_one(self, capsys, tol):
        code, out, err = run(capsys, "conjugate",
                             fixture("doubling_conjugate.json"),
                             f"--tol={tol}")
        assert code == 1
        assert out == ""

    def test_budget_exhaustion_exit_three(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "matrix": [[2]],
             "perturbation": [{"mode": [1], "coeff": [[0, -0.1]]}],
             "grid": 64, "tol": 1e-12, "budget": 2}))
        code, _, err = run(capsys, "conjugate", str(cfg))
        assert code == 3
        assert "inconclusive" in err

    def test_wrong_arity_term_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "matrix": [[2]],
             "perturbation": [{"mode": [1, 0], "coeff": [[0, -0.1]]}]}))
        code, _, err = run(capsys, "conjugate", str(cfg))
        assert code == 1

    @pytest.mark.parametrize("mode, coeff, message", [
        # an OverflowError traceback from the derivative bound
        ([10 ** 400], [0, -0.1], "mode[0] must be <= 9007199254740992"),
        # exit 0 with a NaN verify sup and mean
        ([10 ** 308], [0, 0], "mode[0] must be <= 9007199254740992"),
        ([-2 ** 53 - 1], [0, 0], "mode[0] must be >= -9007199254740992"),
        # exit 0 with the same NaNs, after numpy overflow warnings
        ([0], [1e308, 1e308], "perturbation component 0: the coefficients' "
                              "l1 norm is above 1e+75"),
    ], ids=["mode_1e400", "mode_1e308", "mode_below_-2^53", "coeff_1e308"])
    def test_perturbation_beyond_the_float_engine_exit_one(
            self, capsys, tmp_path, monkeypatch, mode, coeff, message):
        monkeypatch.setattr(cli, "perturbed_map", no_work)
        err = refused_without_output(
            capsys, tmp_path, "conjugate",
            {"format": 1, "matrix": [[2]], "grid": 8,
             "perturbation": [{"mode": mode, "coeff": [coeff]}]})
        assert message in err

    def test_perturbation_at_the_caps_runs(self, capsys, tmp_path):
        # 2^53 is still a double, and the coefficients' l1 norm is 1e75;
        # 10^93 expands past the derivative bound 2 pi 2^53 1e75
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"format": 1, "matrix": [[10 ** 93]], "grid": 8,
             "perturbation": [{"mode": [2 ** 53], "coeff": [[5e74, 0]]},
                              {"mode": [-2 ** 53], "coeff": [[0, 5e74]]}]}))
        summary = tmp_path / "s.json"
        code, _, err = run(capsys, "conjugate", str(cfg), "--out",
                           str(tmp_path / "c.csv"), "--summary", str(summary))
        assert (code, err) == (0, "")
        s = strict_json(summary.read_text())
        assert math.isfinite(s["verify"]["sup"])


# --- crt --------------------------------------------------------------------


class TestCrt:
    def test_heisenberg_transcript(self, capsys):
        code, out, _ = run(capsys, "crt", fixture("heisenberg_structure.json"),
                           fixture("heisenberg_targets.json"))
        assert code == 0
        assert "n = (9, 9, 7)" in out
        assert out.count(": ok") == 2
        # independent check of both congruences: x^-1 y for the lattice with
        # [e0, e1] = 2 e2 has coordinates (y0-x0, y1-x1, y2-x2-(x0 y1-x1 y0))
        n = (9, 9, 7)
        for p, level, xi in ((2, 2, (1, 5, 3)), (3, 1, (0, 0, 1))):
            diff = (xi[0] - n[0], xi[1] - n[1],
                    xi[2] - n[2] - (n[0] * xi[1] - n[1] * xi[0]))
            assert all(v % p ** level == 0 for v in diff)

    def test_stage_split_shown(self, capsys):
        code, out, _ = run(capsys, "crt", fixture("heisenberg_structure.json"),
                           fixture("heisenberg_targets.json"))
        assert "n1 = (9, 9, 0)" in out
        assert "n2 = (0, 0, 7)" in out

    def test_abelian_line(self, capsys, tmp_path):
        st = tmp_path / "st.json"
        st.write_text(json.dumps({"format": 1, "dim": 1, "brackets": []}))
        tg = tmp_path / "tg.json"
        tg.write_text(json.dumps(
            {"format": 1,
             "targets": {"3": {"coords": [1], "level": 2, "precision": 4},
                         "5": {"coords": [4], "level": 1, "precision": 3}}}))
        code, out, _ = run(capsys, "crt", str(st), str(tg))
        assert code == 0
        assert "n = (19,)" in out

    def test_bad_structure_exit_one(self, capsys, tmp_path):
        st = tmp_path / "st.json"
        st.write_text(json.dumps(
            {"format": 1, "dim": 3, "brackets": [[0, 1, 2, 1, 1]]}))
        code, _, err = run(capsys, "crt", str(st),
                           fixture("heisenberg_targets.json"))
        assert code == 1
        assert "even" in err

    def test_wrong_coordinate_count_exit_one(self, capsys, tmp_path):
        tg = tmp_path / "tg.json"
        tg.write_text(json.dumps(
            {"format": 1,
             "targets": {"2": {"coords": [1, 5], "level": 1}}}))
        code, _, err = run(capsys, "crt", fixture("heisenberg_structure.json"),
                           str(tg))
        assert code == 1

    @pytest.mark.parametrize("keys, message", [
        (["4"], "4 is not a prime"),
        (["3", "03"], "a second target for p = 3"),
    ])
    def test_target_keys_name_distinct_primes(self, capsys, tmp_path, keys,
                                              message):
        tg = tmp_path / "tg.json"
        tg.write_text(json.dumps(
            {"format": 1,
             "targets": {k: {"coords": [1, 5, 3], "level": 1}
                         for k in keys}}))
        code, out, err = run(capsys, "crt",
                             fixture("heisenberg_structure.json"), str(tg))
        assert code == 1
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("key, code", [
        ("1_1", 1), (" 7", 1), ("+7", 1), ("7", 0)])
    def test_target_keys_are_ascii_digits(self, capsys, tmp_path, key, code):
        # int() would read "1_1" as 11 and " 7" and "+7" as 7
        tg = tmp_path / "tg.json"
        tg.write_text(json.dumps(
            {"format": 1, "targets": {key: {"coords": [1, 5, 3],
                                            "level": 1}}}))
        got, out, err = run(capsys, "crt",
                            fixture("heisenberg_structure.json"), str(tg))
        assert got == code
        if code:
            assert "key must be a prime written in decimal" in err
            assert out == ""
        else:
            assert "target p=7" in out

    def test_composite_key_is_refused_without_factoring(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(padic, "_pollard_brent", _no_rho)
        tg = tmp_path / "tg.json"
        tg.write_text(json.dumps(
            {"format": 1, "targets": {str(SEMIPRIME): {"coords": [1, 5, 3],
                                                       "level": 1}}}))
        code, out, err = run(capsys, "crt",
                             fixture("heisenberg_structure.json"), str(tg))
        assert code == 1
        assert f"{SEMIPRIME} is not a prime" in err
        assert out == ""

    @pytest.mark.parametrize("structure, message", [
        ({"format": 1, "dim": 3, "brackets": 0}, "brackets must be a list"),
        ({"format": 1, "dim": 3, "lattice_scaling": 5},
         "lattice_scaling must be a list"),
        ({"format": 1, "dim": True}, "dim must be an integer"),
        ({"format": 1, "dim": 3, "brackets": [[0, True, 2, 2, 1]]},
         "bracket row 0[1] must be an integer"),
    ])
    def test_malformed_structure_exit_one(self, capsys, tmp_path, structure,
                                          message):
        st = tmp_path / "st.json"
        st.write_text(json.dumps(structure))
        code, out, err = run(capsys, "crt", str(st),
                             fixture("heisenberg_targets.json"))
        assert code == 1
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("targets", [
        {"2": {"coords": [1, 5, 3], "level": 14500}},
        {"2": {"coords": [1, 5, 3], "level": 8000},
         "3": {"coords": [0, 0, 1], "level": 6000}},
        {"2": {"coords": [1, 5, 3], "level": 10 ** 12}},
    ])
    def test_targets_beyond_the_print_limit_exit_one(self, capsys, tmp_path,
                                                     targets):
        # the solution could not be printed in 4300 digits, CPython's
        # int-to-str limit; that was a ValueError traceback
        tg = tmp_path / "tg.json"
        tg.write_text(json.dumps({"format": 1, "targets": targets}))
        start = time.perf_counter()
        code, out, err = run(capsys, "crt",
                             fixture("heisenberg_structure.json"), str(tg))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "would pass 4300 digits" in err
        assert out == ""

    def test_largest_targets_print(self, capsys, tmp_path):
        # 2 * 2^14283 < 10^4300 < 2 * 2^14284
        tg = tmp_path / "tg.json"
        digits = []
        for prec in (14283, 14284):
            tg.write_text(json.dumps({"format": 1, "targets": {
                "2": {"coords": [1, 5, 3], "level": prec,
                      "precision": prec}}}))
            code, out, _ = run(capsys, "crt",
                               fixture("heisenberg_structure.json"), str(tg))
            digits.append((code, max(map(len, re.findall(r"\d+", out)),
                                     default=0)))
        assert digits == [(0, 4300), (1, 0)]

    def test_transcript_deterministic(self, capsys):
        _, first, _ = run(capsys, "crt", fixture("heisenberg_structure.json"),
                          fixture("heisenberg_targets.json"))
        _, second, _ = run(capsys, "crt", fixture("heisenberg_structure.json"),
                           fixture("heisenberg_targets.json"))
        assert first == second


# --- every report ----------------------------------------------------------


@pytest.mark.parametrize("command, argv", [
    ("analyze", []), ("mixing", ["--mc", "200"]), ("conjugate", [])])
def test_every_report_is_strict_json(capsys, tmp_path, command, argv):
    # each command on every fixture; the runs whose config the command
    # cannot take exit 1 and write nothing
    out, summary = tmp_path / "out", tmp_path / "s.json"
    report = out if command == "analyze" else summary
    if command != "analyze":
        argv = [*argv, "--summary", str(summary)]
    reports = 0
    for path in sorted(FIXTURES.glob("*.json")):
        report.unlink(missing_ok=True)
        run(capsys, command, str(path), "--out", str(out), *argv)
        if report.exists():
            strict_json(report.read_text())
            reports += 1
    assert reports


# --- process-level behaviour ------------------------------------------------


class TestProcess:
    def test_module_entry_point(self):
        result = run_module("analyze", fixture("cat_analyze.json"))
        assert result.returncode == 0
        assert json.loads(result.stdout)["verdict"] == "ok"

    def test_usage_error_exits_one(self):
        result = run_module("frobnicate")
        assert result.returncode == 1
        assert "usage: hyperrank" in result.stderr

    def test_flags_do_not_outlive_their_call(self, capsys):
        # one parser serves every call in a process; a flag of one call
        # must not reach the next, and usage errors still exit 1
        code, out, _ = run(capsys, "analyze", fixture("z2_budget.json"),
                           "--bound", "1")
        assert code == 0
        assert json.loads(out)["z2_subgroup"]["status"] == "certified"
        code, out, _ = run(capsys, "analyze", fixture("z2_budget.json"))
        assert code == 3
        assert json.loads(out)["z2_subgroup"]["budget"] == [0, 8]
        with pytest.raises(SystemExit) as exc:
            main(["analyze", fixture("z2_budget.json"), "--bound", "one"])
        assert exc.value.code == 1
        assert "invalid int value" in capsys.readouterr().err
        code, out, _ = run(capsys, "analyze", fixture("z2_budget.json"))
        assert code == 3

    def test_no_arguments_exits_one(self):
        result = run_module()
        assert result.returncode == 1
        assert "usage: hyperrank" in result.stderr
