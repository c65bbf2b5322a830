"""Command-line front end for the analysis toolkit.

Four subcommands:

  analyze    -- spectrum, ergodicity certificates, chambers, rank-one
                verdict, and the ergodic Z^2 search for a commuting family
  mixing     -- exact (and optional Monte Carlo) correlation curves for
                trigonometric observables on a solenoid
  conjugate  -- numerical conjugacy field for a perturbed expanding map
  crt        -- simultaneous congruences in a step-2 nilpotent lattice

Exit codes:

  0  success
  1  malformed input (config syntax, schema, or content)
  2  certified obstruction (rank-one factor of a higher-rank action)
  3  inconclusive (a bounded search ran out of budget without a verdict)
  4  an observable mode leaves the dual lattice of the chosen solenoid
  5  the linear part of a perturbed map is not expanding

All output is deterministic for a fixed config; the environment variable
HYPERRANK_SEED overrides the config seed where sampling is involved.
"""

import argparse
import io
import json
import os
import sys
from fractions import Fraction

from .errors import (
    DegenerateField,
    FactorSearchInconclusive,
    HyperrankError,
    LeavesDualLattice,
    NoConvergence,
    NoErgodicSubgroupFound,
    NotExpanding,
    ParseError,
    PrecisionExhausted,
    RootFindingFailure,
)
from .exact import QMat
from .spectra import (
    ActionSpec,
    coarse_classes,
    joint_spectrum,
    min_expansion_rate,
    weyl_chambers,
)
from .ergodicity import has_rank_one_factor, is_ergodic, ergodic_z2_subgroup
from .solenoid import (
    CorrelationRow,
    TrigFunction,
    correlation_csv,
    mixing_curve,
    monte_carlo_correlation,
)
from .conjugacy import (
    field_to_csv,
    holder_estimate,
    perturbed_map,
    solve_conjugacy,
    trig_perturbation,
    verify_conjugacy,
)
from .nilpotent import nil_crt, nil_element_padic, nil_structure_from_json

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_OBSTRUCTION = 2
EXIT_INCONCLUSIVE = 3
EXIT_DUAL_LATTICE = 4
EXIT_NOT_EXPANDING = 5


# --- config plumbing --------------------------------------------------------


def _load_config(path):
    try:
        with open(path, "r", encoding="ascii") as fobj:
            obj = json.load(fobj)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except (ValueError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    return obj


def _check_keys(obj, allowed, required, where):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParseError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ParseError(f"{where}: missing keys {missing}")


def _check_format(obj, where):
    _check_keys(obj, set(obj) | {"format"}, ["format"], where)
    if obj["format"] != 1:
        raise ParseError(f"{where}: unsupported format {obj['format']!r} "
                         "(this tool reads format 1)")


def _get_int(obj, key, where, default=None, low=None, high=None):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{where}: {key} must be an integer")
    if low is not None and v < low:
        raise ParseError(f"{where}: {key} must be >= {low}")
    if high is not None and v > high:
        raise ParseError(f"{where}: {key} must be <= {high}")
    return v


def _get_number(obj, key, where, default=None, positive=False):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where}: {key} must be a number")
    v = _finite(v, f"{where}: {key}")
    if positive and not v > 0:
        raise ParseError(f"{where}: {key} must be positive")
    return v


def _finite(v, where):
    """float(v), refusing NaN, infinities and integers beyond float range."""
    if not abs(v) <= sys.float_info.max:
        raise ParseError(f"{where}: {v!r} is not a finite number")
    return float(v)


def _int_matrix(obj, where):
    if (not isinstance(obj, list) or not obj
            or not all(isinstance(row, list) for row in obj)):
        raise ParseError(f"{where}: expected a list of integer rows")
    width = len(obj[0])
    for row in obj:
        if len(row) != width:
            raise ParseError(f"{where}: ragged rows")
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ParseError(f"{where}: entries must be integers")
            # the float engines and the real spectrum convert entries
            _finite(v, where)
    return tuple(tuple(row) for row in obj)


def _fraction(v, where):
    # accepted spellings: 3, "3/2", [3, 2]
    if isinstance(v, bool):
        raise ParseError(f"{where}: not a rational")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{where}: cannot parse rational {v!r}")
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(t, int) and not isinstance(t, bool)
                    for t in v)):
        if v[1] == 0:
            raise ParseError(f"{where}: zero denominator")
        return Fraction(v[0], v[1])
    raise ParseError(f"{where}: cannot parse rational {v!r}")


def _complex_pair(v, where):
    if (not isinstance(v, list) or len(v) != 2
            or any(isinstance(t, bool) or not isinstance(t, (int, float))
                   for t in v)):
        raise ParseError(f"{where}: expected [re, im]")
    return complex(_finite(v[0], where), _finite(v[1], where))


def _observable_terms(obj, where):
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a nonempty list of terms")
    terms = []
    for i, term in enumerate(obj):
        here = f"{where}[{i}]"
        if not isinstance(term, dict):
            raise ParseError(f"{here}: expected an object")
        _check_keys(term, ["mode", "coeff"], ["mode", "coeff"], here)
        if not isinstance(term["mode"], list) or not term["mode"]:
            raise ParseError(f"{here}: mode must be a nonempty list")
        mode = tuple(_fraction(v, f"{here}.mode") for v in term["mode"])
        terms.append((mode, _complex_pair(term["coeff"], f"{here}.coeff")))
    return terms


def _perturbation_terms(obj, dim, where):
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of terms")
    terms = []
    for i, term in enumerate(obj):
        here = f"{where}[{i}]"
        if not isinstance(term, dict):
            raise ParseError(f"{here}: expected an object")
        _check_keys(term, ["mode", "coeff"], ["mode", "coeff"], here)
        mode = term["mode"]
        if (not isinstance(mode, list) or len(mode) != dim
                or any(isinstance(v, bool) or not isinstance(v, int)
                       for v in mode)):
            raise ParseError(f"{here}: mode must be {dim} integers")
        coeff = term["coeff"]
        if not isinstance(coeff, list) or len(coeff) != dim:
            raise ParseError(f"{here}: coeff must list {dim} [re, im] pairs")
        coeffs = tuple(_complex_pair(c, f"{here}.coeff") for c in coeff)
        terms.append((tuple(mode), coeffs))
    return terms


def _resolve_seed(config, where):
    seed = _get_int(config, "seed", where, default=0, low=0)
    env = os.environ.get("HYPERRANK_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ParseError(f"HYPERRANK_SEED must be an integer, "
                             f"got {env!r}")
    return seed


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fobj:
            fobj.write(text)


def _dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- analyze ----------------------------------------------------------------


_Z2_DEFAULT_PAIR = 2
_Z2_DEFAULT_COMBO = 20


def _serialize_spectrum(spectrum):
    funcs = []
    for f in spectrum.functionals:
        funcs.append({
            "place": f.place,
            "values": list(f.values),
            "multiplicity": f.multiplicity,
            "exact": None if f.exact is None else [str(v) for v in f.exact],
        })
    return {"functionals": funcs,
            "product_residual": spectrum.product_residual}


def _serialize_chambers(chambers):
    out = []
    for ch in chambers:
        out.append({
            "signs": list(ch.signs),
            "representative": list(ch.representative),
            "sector": list(ch.boundary_angles),
            "rays": [None if r is None else [int(v) for v in r]
                     for r in ch.boundary_rays],
        })
    return out


def _serialize_obstructions(obstructions):
    out = []
    for pair, reason, bad in obstructions:
        out.append({
            "pair": [list(pair[0]), list(pair[1])],
            "reason": reason,
            "element": None if bad is None else list(bad),
        })
    return out


def cmd_analyze(args):
    config = _load_config(args.config)
    where = args.config
    _check_format(config, where)
    _check_keys(config,
                ["format", "generators", "padic_precision", "tol", "z2"],
                ["format", "generators"], where)
    if not isinstance(config["generators"], list) or not config["generators"]:
        raise ParseError(f"{where}: generators must be a nonempty list")
    gens = tuple(_int_matrix(g, f"{where}: generators[{i}]")
                 for i, g in enumerate(config["generators"]))
    prec = _get_int(config, "padic_precision", where, default=32, low=4)
    tol = _get_number(config, "tol", where, default=1e-9, positive=True)

    z2_pair = _Z2_DEFAULT_PAIR
    z2_combo = _Z2_DEFAULT_COMBO
    if "z2" in config:
        z2cfg = config["z2"]
        if not isinstance(z2cfg, dict):
            raise ParseError(f"{where}: z2 must be an object")
        _check_keys(z2cfg, ["pair_bound", "combo_bound"], [], f"{where}: z2")
        z2_pair = _get_int(z2cfg, "pair_bound", f"{where}: z2",
                           default=z2_pair, low=0)
        z2_combo = _get_int(z2cfg, "combo_bound", f"{where}: z2",
                            default=z2_combo, low=1)
    if args.bound is not None:
        z2_pair = args.bound

    try:
        action = ActionSpec(gens)
    except (ValueError, HyperrankError) as exc:
        raise ParseError(f"{where}: {exc}")

    report = {"format": 1,
              "generators": [[list(row) for row in g] for g in gens],
              "rank": action.rank,
              "dim": action.dim}
    exit_code = EXIT_OK
    try:
        report["ergodicity"] = [
            {"ergodic": cert.ergodic,
             "period": cert.period,
             "witness": None if cert.witness is None else list(cert.witness)}
            for cert in (is_ergodic(g) for g in gens)]
        spectrum = joint_spectrum(action, tol=tol, padic_prec=prec)
        report["lyapunov"] = _serialize_spectrum(spectrum)
        report["coarse_classes"] = [list(c) for c in
                                    coarse_classes(spectrum, tol=tol)]
        report["weyl_chambers"] = (
            _serialize_chambers(weyl_chambers(spectrum, tol=tol))
            if spectrum.rank == 2 else None)
        report["min_expansion_rate"] = min_expansion_rate(spectrum)

        if action.rank < 2:
            report["rank_one"] = {"applicable": False}
            report["z2_subgroup"] = {"status": "not_applicable",
                                     "reason": "the action has rank 1"}
            report["verdict"] = "ok"
        else:
            rank_one = has_rank_one_factor(action, tol=tol)
            report["rank_one"] = {
                "applicable": True,
                "found": rank_one.found,
                "blocks": [list(b) for b in rank_one.blocks],
                "culprit_dim": (None if rank_one.culprit is None
                                else rank_one.culprit.dim),
            }
            if rank_one.found:
                report["z2_subgroup"] = {
                    "status": "skipped",
                    "reason": "a rank-one factor is already certified"}
                report["verdict"] = "rank_one_factor"
                exit_code = EXIT_OBSTRUCTION
            else:
                try:
                    cert = ergodic_z2_subgroup(action, pair_bound=z2_pair,
                                               combo_bound=z2_combo, tol=tol)
                    report["z2_subgroup"] = {
                        "status": "certified",
                        "pair": [list(cert.pair[0]), list(cert.pair[1])],
                        "combo_bound": cert.combo_bound,
                        "checked": cert.checked,
                        "value_rank": cert.value_rank,
                    }
                    report["verdict"] = "ok"
                except NoErgodicSubgroupFound as exc:
                    report["z2_subgroup"] = {
                        "status": "inconclusive",
                        "budget": list(exc.budget),
                        "obstructions":
                            _serialize_obstructions(exc.obstructions),
                    }
                    report["verdict"] = "inconclusive"
                    exit_code = EXIT_INCONCLUSIVE
    except (FactorSearchInconclusive, PrecisionExhausted,
            RootFindingFailure) as exc:
        # a factorization budget or the working precision ran out
        # mid-pipeline on valid input; ship what exists
        report["verdict"] = "inconclusive"
        report["error"] = str(exc)
        exit_code = EXIT_INCONCLUSIVE

    _write_text(args.out, _dump_json(report))
    return exit_code


# --- mixing -----------------------------------------------------------------


def cmd_mixing(args):
    config = _load_config(args.config)
    where = args.config
    _check_format(config, where)
    _check_keys(config,
                ["format", "primes", "matrix", "f", "g", "n_max",
                 "fit_range", "mc", "seed"],
                ["format", "primes", "matrix", "f"], where)
    primes = config["primes"]
    if (not isinstance(primes, list)
            or any(isinstance(p, bool) or not isinstance(p, int) or p < 2
                   for p in primes)):
        raise ParseError(f"{where}: primes must be a list of primes")
    matrix = _int_matrix(config["matrix"], f"{where}: matrix")
    f = TrigFunction.build(_observable_terms(config["f"], f"{where}: f"),
                           primes)
    if "g" in config:
        g = TrigFunction.build(_observable_terms(config["g"], f"{where}: g"),
                               primes)
    else:
        g = f
    n_max = args.n_max
    if n_max is None:
        n_max = _get_int(config, "n_max", where, default=12, low=1)
    fit_range = None
    if "fit_range" in config:
        fr = config["fit_range"]
        if (not isinstance(fr, list) or len(fr) != 2
                or any(isinstance(v, bool) or not isinstance(v, int)
                       for v in fr)):
            raise ParseError(f"{where}: fit_range must be [first, last]")
        fit_range = (fr[0], fr[1])
    seed = _resolve_seed(config, where)

    mc_samples = args.mc
    mc_lags = None
    if "mc" in config:
        mccfg = config["mc"]
        if not isinstance(mccfg, dict):
            raise ParseError(f"{where}: mc must be an object")
        _check_keys(mccfg, ["lags", "samples"], [], f"{where}: mc")
        if "lags" in mccfg:
            lags = mccfg["lags"]
            if (not isinstance(lags, list)
                    or any(isinstance(v, bool) or not isinstance(v, int)
                           or v < 0 for v in lags)):
                raise ParseError(f"{where}: mc lags must be lags >= 0")
            mc_lags = list(lags)
        if mc_samples is None:
            mc_samples = _get_int(mccfg, "samples", f"{where}: mc",
                                  default=10000, low=1)

    try:
        amat = QMat(matrix)
        curve = mixing_curve(f, g, amat, n_max, fit_range=fit_range)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}")

    rows = [CorrelationRow(n=n, value=v, method="exact")
            for n, v in enumerate(curve.values)]
    mc_report = []
    if mc_samples is not None:
        if mc_lags is None:
            mc_lags = list(range(n_max + 1))
        for lag in mc_lags:
            est = monte_carlo_correlation(f, g, amat, lag,
                                          samples=mc_samples, seed=seed)
            rows.append(CorrelationRow(n=est.n, value=est.value, method="mc",
                                       samples=est.samples,
                                       stderr=est.stderr))
            mc_report.append({"n": est.n,
                              "re": est.value.real,
                              "im": est.value.imag,
                              "stderr": est.stderr,
                              "samples": est.samples})

    buf = io.StringIO()
    correlation_csv(rows, buf)
    _write_text(args.out, buf.getvalue())

    summary = {"format": 1,
               "n_max": n_max,
               "decay_rate": curve.decay_rate,
               "intercept": curve.intercept,
               "fit_points": curve.fit_points,
               "zero_from": curve.zero_from,
               "certified_zero_from": curve.certified_zero_from,
               "mc": mc_report}
    _write_text(args.summary, _dump_json(summary))
    return EXIT_OK


# --- conjugate --------------------------------------------------------------


def cmd_conjugate(args):
    config = _load_config(args.config)
    where = args.config
    _check_format(config, where)
    _check_keys(config,
                ["format", "matrix", "perturbation", "grid", "tol", "budget",
                 "verify_samples", "holder_pairs", "seed"],
                ["format", "matrix", "perturbation"], where)
    matrix = _int_matrix(config["matrix"], f"{where}: matrix")
    dim = len(matrix)
    terms = _perturbation_terms(config["perturbation"], dim,
                                f"{where}: perturbation")
    grid = args.grid
    if grid is None:
        grid = _get_int(config, "grid", where, default=1024, low=2)
    tol = args.tol
    if tol is None:
        tol = _get_number(config, "tol", where, default=1e-8, positive=True)
    elif not _finite(tol, "--tol") > 0:
        raise ParseError("--tol must be positive")
    budget = _get_int(config, "budget", where, default=200, low=1)
    verify_samples = _get_int(config, "verify_samples", where,
                              default=400, low=1)
    holder_pairs = _get_int(config, "holder_pairs", where,
                            default=2000, low=1)
    seed = _resolve_seed(config, where)

    try:
        q = trig_perturbation(dim, terms)
        pmap = perturbed_map(matrix, q)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}")

    try:
        field = solve_conjugacy(pmap, grid, tol=tol, budget=budget)
    except NoConvergence as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE

    _write_text(args.out, field_to_csv(field))

    check = verify_conjugacy(pmap, field, samples=verify_samples, seed=seed)
    try:
        hold = holder_estimate(field, pairs=holder_pairs, seed=seed)
        holder = {"exponent": hold.exponent,
                  "ci_low": hold.ci_low,
                  "ci_high": hold.ci_high}
    except DegenerateField:
        holder = None

    summary = {"format": 1,
               "grid": grid,
               "tol": tol,
               "sweeps": len(field.residuals),
               "residual": field.residuals[-1] if field.residuals else 0.0,
               "rate_bound": field.rate_bound,
               "verify": {"sup": check.sup,
                          "mean": check.mean,
                          "samples": check.count},
               "holder": holder}
    _write_text(args.summary, _dump_json(summary))
    return EXIT_OK


# --- crt --------------------------------------------------------------------


def _load_crt_targets(path, structure):
    config = _load_config(path)
    _check_format(config, path)
    _check_keys(config, ["format", "targets"], ["format", "targets"], path)
    if not isinstance(config["targets"], dict) or not config["targets"]:
        raise ParseError(f"{path}: targets must map primes to targets")
    targets, levels = {}, {}
    for key in sorted(config["targets"]):
        here = f"{path}: targets[{key!r}]"
        try:
            p = int(key)
        except ValueError:
            raise ParseError(f"{here}: key must be a prime written in "
                             "decimal")
        if p < 2:
            raise ParseError(f"{here}: {p} is not a prime")
        entry = config["targets"][key]
        if not isinstance(entry, dict):
            raise ParseError(f"{here}: expected an object")
        _check_keys(entry, ["coords", "precision", "level"],
                    ["coords", "level"], here)
        coords = entry["coords"]
        if (not isinstance(coords, list) or len(coords) != structure.dim
                or any(isinstance(v, bool) or not isinstance(v, int)
                       for v in coords)):
            raise ParseError(f"{here}: coords must be {structure.dim} "
                             "integers")
        level = _get_int(entry, "level", here, low=1)
        prec = _get_int(entry, "precision", here, default=max(level + 2, 8),
                        low=1)
        if prec < level:
            raise ParseError(f"{here}: precision below the level")
        try:
            targets[p] = nil_element_padic(structure, coords, p, prec)
        except (ValueError, HyperrankError) as exc:
            raise ParseError(f"{here}: {exc}")
        levels[p] = level
    return targets, levels


def cmd_crt(args):
    structure = nil_structure_from_json(_load_config(args.structure))
    targets, levels = _load_crt_targets(args.targets, structure)
    try:
        sol = nil_crt(structure, targets, levels)
    except (ValueError, HyperrankError) as exc:
        raise ParseError(f"{args.targets}: {exc}")

    out = []
    out.append(f"structure: dim {structure.dim}, derived coordinates "
               f"{list(structure.derived)}")
    for p in sorted(targets):
        coords = tuple(c.residue for c in targets[p].coords)
        out.append(f"target p={p}: {coords} to precision "
                   f"{targets[p].ring[2]}, level {levels[p]}")
    out.append(f"stage 1 (free coordinates):    n1 = "
               f"{tuple(int(v) for v in sol.abelian_stage)}")
    out.append(f"stage 2 (central correction):  n2 = "
               f"{tuple(int(v) for v in sol.central_stage)}")
    out.append(f"n = {tuple(int(v) for v in sol.element.coords)}")
    for p, level, digits in sol.checks:
        out.append(f"check p={p}: coordinates of n^-1 xi are {digits}, "
                   f"all divisible by {p}^{level} = {p ** level}: ok")
    _write_text(args.out, "\n".join(out) + "\n")
    return EXIT_OK


# --- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the taxonomy reserves 2 for
    certified obstructions, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="hyperrank",
                     description="exact analysis of commuting toral and "
                                 "solenoidal actions")
    sub = parser.add_subparsers(dest="command", metavar="command",
                               parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("analyze",
                       help="spectrum, certificates, and Z^2 search")
    p.add_argument("config", help="action config (JSON)")
    p.add_argument("--bound", type=int, default=None, metavar="B",
                   help="override the pair bound of the Z^2 search")
    p.add_argument("--out", default="-", metavar="PATH",
                   help="report destination (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("mixing",
                       help="correlation curve on a solenoid")
    p.add_argument("config", help="observable config (JSON)")
    p.add_argument("--nmax", dest="n_max", type=int, default=None,
                   metavar="N", help="largest lag")
    p.add_argument("--mc", type=int, default=None, metavar="SAMPLES",
                   help="add Monte Carlo rows with this sample count")
    p.add_argument("--out", default="-", metavar="PATH",
                   help="CSV destination (default stdout)")
    p.add_argument("--summary", default="-", metavar="PATH",
                   help="summary JSON destination (default stdout)")
    p.set_defaults(func=cmd_mixing)

    p = sub.add_parser("conjugate",
                       help="conjugacy field for a perturbed expanding map")
    p.add_argument("config", help="map config (JSON)")
    p.add_argument("--grid", type=int, default=None, metavar="N",
                   help="grid resolution per axis")
    p.add_argument("--tol", type=float, default=None, metavar="T",
                   help="sup-norm stopping tolerance")
    p.add_argument("--out", default="-", metavar="PATH",
                   help="field CSV destination (default stdout)")
    p.add_argument("--summary", default="-", metavar="PATH",
                   help="summary JSON destination (default stdout)")
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("crt",
                       help="nilpotent Chinese remainder solve")
    p.add_argument("structure", help="bracket table (JSON)")
    p.add_argument("targets", help="congruence targets (JSON)")
    p.add_argument("--out", default="-", metavar="PATH",
                   help="transcript destination (default stdout)")
    p.set_defaults(func=cmd_crt)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except LeavesDualLattice as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DUAL_LATTICE
    except NotExpanding as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NOT_EXPANDING
    except FactorSearchInconclusive as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE
    except HyperrankError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
