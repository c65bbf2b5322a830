"""Tests of the benchmark itself: the oracles reject corrupted outputs, the
tracer reaches every binding without changing any output, and every metric
named in BENCHMARK.json is printed with its unit."""

import copy
import hashlib
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import generate  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
from layers import CALL_SITES, LAYERS, Tracer, _resolve  # noqa: E402

# a small slice of each workload: every layer runs, in a few seconds
SUBSET = {"z2_search": ["z2_0"],
          "spectra": None,
          "float_engines": ["torus_0", "sadic_0", "lacunary_0", "clt_0",
                            "doubling", "map2d", "constant2d"]}


def _digest(path):
    with open(path, "rb") as fobj:
        return hashlib.sha256(fobj.read()).hexdigest()


@pytest.fixture(scope="module")
def program():
    return run.import_program()


@pytest.fixture(scope="module")
def passes(program, tmp_path_factory):
    """One untraced and one traced pass over the subset of every workload:
    (calls, untraced digests, traced digests, tracer)."""
    cli, solenoid = program
    calls = []
    for workload, ids in SUBSET.items():
        manifest = generate.generate(
            workload, 0, str(tmp_path_factory.mktemp(workload)))
        manifest["calls"] = [c for c in manifest["calls"]
                             if ids is None or c["id"] in ids]
        calls.append((manifest, run.Operations(manifest, cli, solenoid)))
    digests = []
    tracer = Tracer()
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            for manifest, ops in calls:
                for call in ops.calls:
                    _, _, code = ops.run(call)
                    assert code == call["expect_exit"], call["id"]
        finally:
            tracer.uninstall()
        digests.append({c["id"] + k: _digest(p)
                        for m, _ in calls for c in m["calls"]
                        for k, p in c["outputs"].items()})
    return calls, digests[0], digests[1], tracer


def test_traced_outputs_byte_identical(passes):
    _, untraced, traced, _ = passes
    assert untraced == traced


def test_every_call_site_reached(passes):
    tracer = passes[3]
    missing = sorted(b for sites in CALL_SITES.values() for b in sites
                     if b not in tracer.reached)
    assert not missing


def test_install_leaves_no_unwrapped_binding(program):
    originals = [_resolve(m, q)[2] for targets in LAYERS.values()
                 for m, q in targets]
    tracer = Tracer().install()
    try:
        for name, mod in list(sys.modules.items()):
            if name == "hyperrank" or name.startswith("hyperrank."):
                for key, val in vars(mod).items():
                    assert not any(val is o for o in originals), (name, key)
    finally:
        tracer.uninstall()
    assert all(_resolve(m, q)[2] is o for (m, q), o in zip(
        [t for targets in LAYERS.values() for t in targets], originals))


def test_outputs_pass_the_oracles(passes):
    calls = passes[0]
    for manifest, _ in calls:
        for call in manifest["calls"]:
            assert check.check_call(call, manifest["seed"]) == [], call["id"]


def _call(passes, cid):
    for manifest, _ in passes[0]:
        for call in manifest["calls"]:
            if call["id"] == cid:
                return manifest, call
    raise KeyError(cid)


def _corrupt_json(tmp_path, call, key, mutate):
    bad = copy.deepcopy(call)
    with open(call["outputs"][key], encoding="ascii") as fobj:
        obj = json.load(fobj)
    mutate(obj)
    path = tmp_path / os.path.basename(call["outputs"][key])
    path.write_text(json.dumps(obj), encoding="ascii")
    bad["outputs"][key] = str(path)
    return bad


def _corrupt_text(tmp_path, call, key, old, new):
    bad = copy.deepcopy(call)
    with open(call["outputs"][key], encoding="ascii") as fobj:
        text = fobj.read()
    assert old in text
    path = tmp_path / os.path.basename(call["outputs"][key])
    path.write_text(text.replace(old, new, 1), encoding="ascii")
    bad["outputs"][key] = str(path)
    return bad


def _flip_first_ergodic(rep):
    rep["ergodicity"][0]["ergodic"] = not rep["ergodicity"][0]["ergodic"]


def _shift_real_value(rep):
    f = next(f for f in rep["lyapunov"]["functionals"]
             if f["place"] == "real")
    f["values"][0] += 1e-3


def _shift_valuation(rep):
    f = next(f for f in rep["lyapunov"]["functionals"]
             if f["place"] != "real" and f["exact"][0] != "0")
    f["exact"][0] = str(orc.Fraction(f["exact"][0]) + 1)
    f["values"][0] -= np.log(f["place"])


def _degenerate_pair(rep):
    rep["z2_subgroup"]["pair"] = [[0, 1], [0, 2]]


CORRUPTIONS = [
    ("z2_0", "out", _flip_first_ergodic),
    ("z2_0", "out", _degenerate_pair),
    ("prod_0", "out", lambda r: r["rank_one"].update(found=False)),
    ("rank1_0", "out", _shift_real_value),
    ("rank1_0", "out", _shift_valuation),
    ("lacunary_0", "summary", lambda r: r.update(decay_rate=0.8)),
    ("clt_0", "out", lambda r: r.update(variance=r["variance"] * 3)),
    ("clt_0", "out", lambda r: r.update(sigma2_ref=r["sigma2_ref"] + 0.01)),
    ("doubling", "summary", lambda r: r.update(sweeps=r["sweeps"] + 40)),
    ("map2d", "summary", lambda r: r.update(rate_bound=0.123)),
]


@pytest.mark.parametrize("cid,key,mutate", CORRUPTIONS,
                         ids=[f"{c}-{m.__name__}" for c, _, m in CORRUPTIONS])
def test_oracle_rejects_corrupted_json(passes, tmp_path, cid, key, mutate):
    manifest, call = _call(passes, cid)
    assert check.check_call(
        _corrupt_json(tmp_path, call, key, mutate), manifest["seed"])


def test_oracle_rejects_corrupted_crt(passes, tmp_path):
    manifest, call = _call(passes, "crt_0")
    with open(call["outputs"]["out"], encoding="ascii") as fobj:
        line = next(l for l in fobj if l.startswith("n = ("))
    n = orc.parse_crt_solution(line)
    n[0] += 1
    bad = _corrupt_text(tmp_path, call, "out", line.strip(),
                        f"n = ({', '.join(map(str, n))})")
    assert check.check_call(bad, manifest["seed"])


@pytest.mark.parametrize("cid,method", [("torus_0", "exact"),
                                        ("torus_0", "mc")])
def test_oracle_rejects_corrupted_mixing_row(passes, tmp_path, cid, method):
    manifest, call = _call(passes, cid)
    with open(call["outputs"]["out"], encoding="ascii") as fobj:
        lines = fobj.read().splitlines()
    idx = next(i for i, l in enumerate(lines) if f",{method}," in l)
    fields = lines[idx].split(",")
    fields[1] = repr(float(fields[1]) + 0.5 + 20 * float(fields[5]))
    bad = _corrupt_text(tmp_path, call, "out", lines[idx], ",".join(fields))
    assert check.check_call(bad, manifest["seed"])


@pytest.mark.parametrize("cid", ["doubling", "constant2d"])
def test_oracle_rejects_corrupted_field(passes, tmp_path, cid):
    manifest, call = _call(passes, cid)
    with open(call["outputs"]["out"], encoding="ascii") as fobj:
        row = fobj.read().splitlines()[1]
    fields = row.split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-3)
    bad = _corrupt_text(tmp_path, call, "out", row, ",".join(fields))
    assert check.check_call(bad, manifest["seed"])


def test_oracle_rejects_non_ergodic_combination():
    # (C, C^2) for the golden-mean matrix: rho(2, -1) is the identity
    c = [[0, 1], [1, 1]]
    c2 = orc.mat_mul(c, c)
    report = {"verdict": "ok", "z2_subgroup": {"status": "certified",
                                               "pair": [[1, 0], [0, 1]]}}
    probs = orc.check_z2_report(report, [c, [[int(v) for v in r] for r in c2]],
                                [-1, -1], [0, 0, 1], [(2, -1)])
    assert any("period" in p for p in probs)


def test_oracle_rejects_decreasing_phi():
    cfg = {"matrix": [[2]], "grid": 4, "tol": 1e-8, "perturbation": [
        {"mode": [1], "coeff": [[0, -0.01]]}]}
    xs = np.arange(4) / 4
    field = np.column_stack([xs, [0.0, 0.3, -0.3, 0.0]])
    summary = {"rate_bound": 0.5, "residual": 1e-9, "sweeps": 20}
    probs = orc.check_conjugate(cfg, field, summary, random.Random(0))
    assert any("increasing" in p for p in probs)


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "spectra", "--seed", "3", "--seconds", "0.1", "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"]
                       for m in _bench_json()[section]}


def test_oracle_side_never_imports_hyperrank():
    code = ("import sys, check, generate, oracles; "
            "sys.exit(any(m.split('.')[0] == 'hyperrank' "
            "for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "hyperbench").mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (tmp_path / "hyperbench" / name).write_bytes(
                open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "hyperbench/run.py", "--workload", "spectra",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip()
