"""Check one benchmark run's outputs against the independent oracles.

    python3 hyperbench/check.py --dir DIR

reads DIR/manifest.json (the inputs and what their construction implies),
DIR/results.json (exit codes per pass) and the output files, and prints one
JSON line {"checked": N, "problems": [...]}.  Outputs of calls that exited
with an unexpected code are not judged: run.py counts those as failed
operations.  Like the oracles, this never imports hyperrank.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random

import numpy as np

import oracles as orc


def _load(path):
    with open(path, encoding="ascii") as fobj:
        return json.load(fobj)


def _combos(rng, bound, count, inside):
    """Primitive (i, j) with sup norm <= bound (inside) or in
    (bound, bound + 5] (outside)."""
    out = []
    while len(out) < count:
        lo, hi = (1, bound) if inside else (bound + 1, bound + 5)
        n = rng.randint(lo, hi)
        i, j = rng.randint(-n, n), rng.choice((-n, n))
        if rng.random() < 0.5:
            i, j = j, i
        if math.gcd(i, j) == 1:
            out.append((i, j))
    return out


def check_analyze(call, rng):
    data = call["check"]
    gens = data["generators"]
    report = _load(call["outputs"]["out"])
    probs = []
    for g, entry in zip(gens, report["ergodicity"]):
        probs += orc.check_ergodicity_entry(g, entry)
    probs += orc.check_spectrum(gens, report["lyapunov"])
    if call["expect_exit"] == 2:
        r1 = report["rank_one"]
        if report["verdict"] != "rank_one_factor" or not r1["found"] \
                or r1["culprit_dim"] not in data["blocks"]:
            probs.append(f"rank-one product not certified: {r1}")
    elif len(gens) == 1:
        if report["verdict"] != "ok" or \
                report["z2_subgroup"]["status"] != "not_applicable":
            probs.append("rank-1 action: unexpected verdict")
    else:
        bound = data["combo_bound"]
        combos = (_combos(rng, bound, 3, True)
                  + _combos(rng, bound, 2, False))
        probs += orc.check_z2_report(report, gens, data["f"], data["g"],
                                     combos)
    return probs


def check_mixing(call):
    with open(call["outputs"]["out"], encoding="ascii") as fobj:
        rows = [{"n": int(r["n"]), "re": float(r["re(C)"]),
                 "im": float(r["im(C)"]), "method": r["method"],
                 "samples": int(r["samples"]), "stderr": float(r["stderr"])}
                for r in csv.DictReader(fobj)]
    data = call["check"]
    return orc.check_mixing(data["config"], rows,
                            _load(call["outputs"]["summary"]),
                            data["samples"], lacunary=data["lacunary"])


def check_conjugate(call, rng):
    field = np.loadtxt(call["outputs"]["out"], delimiter=",", skiprows=1,
                       ndmin=2)[:, 1:]
    return orc.check_conjugate(call["check"]["config"], field,
                               _load(call["outputs"]["summary"]), rng)


def check_call(call, seed):
    rng = random.Random(f"{seed}:{call['id']}")
    kind = call["kind"]
    if kind == "analyze":
        return check_analyze(call, rng)
    if kind == "crt":
        with open(call["outputs"]["out"], encoding="ascii") as fobj:
            text = fobj.read()
        return orc.check_crt(call["check"]["structure"],
                             call["check"]["targets"], text)
    if kind == "mixing":
        return check_mixing(call)
    if kind == "clt":
        return orc.check_clt(call["params"], _load(call["outputs"]["out"]))
    return check_conjugate(call, rng)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    manifest = _load(os.path.join(args.dir, "manifest.json"))
    codes = _load(os.path.join(args.dir, "results.json"))["exit_codes"]
    problems, checked = [], 0
    for call in manifest["calls"]:
        if any(c != call["expect_exit"] for c in codes[call["id"]]):
            continue
        problems += [f"{call['id']}: {p}"
                     for p in check_call(call, manifest["seed"])]
        checked += 1
    print(json.dumps({"checked": checked, "problems": problems}))


if __name__ == "__main__":
    main()
