"""Seeded mutations of every fixture config, run through the command line.

Each mutation replaces one JSON value at a random path with a hostile value,
or drops one key.  Whatever the mutation, a command must return an exit code
in 0-5 and raise nothing: malformed input is exit 1, never a traceback.
Mutations never raise a size (grid, samples, search bounds, precision) above
the fixture's own value, so the runs stay cheap.
"""

import copy
import json
import os
import random
from pathlib import Path

from hyperrank.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEED = 5
MUTATIONS_PER_CONFIG = 30
HOSTILE = (True, None, "x", 1.5, [], {}, -1, 0)
# dropping one of these keys would fall back to a default at least as large
SIZE_KEYS = {"grid", "n_max", "z2", "pair_bound", "combo_bound", "mc",
             "samples", "budget", "verify_samples", "holder_pairs",
             "padic_precision", "precision"}

ANALYZE = ["cat_analyze", "cubic_units_z2", "double_split", "malformed",
           "rank_one_product", "repeated_generator", "unsaturated_split",
           "z2_budget"]
MIXING = ["bad_modes", "cat_mixing", "doubling_mixing"]
CONJUGATE = ["doubling_conjugate", "not_expanding"]


def paths(node, prefix=()):
    """Every (container, key) below node, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutate(config, rng):
    out = copy.deepcopy(config)
    path = rng.choice(list(paths(out)))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if (isinstance(parent, dict) and key not in SIZE_KEYS
            and rng.random() < 0.2):
        del parent[key]
    else:
        parent[key] = rng.choice(HOSTILE)
    return out


def cases():
    """(fixture name, argv with a {config} slot) for every command."""
    sink = os.devnull
    for name in ANALYZE:
        yield name, ["analyze", "{config}", "--out", sink]
    for name in MIXING:
        yield name, ["mixing", "{config}", "--out", sink, "--summary", sink]
    for name in CONJUGATE:
        yield name, ["conjugate", "{config}", "--out", sink,
                     "--summary", sink]
    targets = str(FIXTURES / "heisenberg_targets.json")
    structure = str(FIXTURES / "heisenberg_structure.json")
    yield "heisenberg_structure", ["crt", "{config}", targets, "--out", sink]
    yield "heisenberg_targets", ["crt", structure, "{config}", "--out", sink]


def test_mutated_configs_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    failures = []
    for name, argv in cases():
        with open(FIXTURES / f"{name}.json", encoding="ascii") as fobj:
            config = json.load(fobj)
        for i in range(MUTATIONS_PER_CONFIG):
            mutated = mutate(config, rng)
            path = tmp_path / f"{name}_{i}.json"
            path.write_text(json.dumps(mutated))
            args = [str(path) if a == "{config}" else a for a in argv]
            try:
                code = main(args)
            except Exception as exc:       # a traceback for the user
                failures.append(f"{name} {json.dumps(mutated)}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            if not (isinstance(code, int) and 0 <= code <= 5):
                failures.append(f"{name} {json.dumps(mutated)}: "
                                f"returned {code!r}")
    capsys.readouterr()
    assert not failures, "\n".join(failures)
