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
import math
import os
import re
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
from .exact.intmat import mat_mul_mod
from .exact.padic import is_prime
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
from .nilpotent import nil_crt, nil_element_padic, nil_structure

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_OBSTRUCTION = 2
EXIT_INCONCLUSIVE = 3
EXIT_DUAL_LATTICE = 4
EXIT_NOT_EXPANDING = 5

# sizes the float engines allocate up front: the random points one call
# draws, the conjugacy grid, and the interpolation corners the conjugacy
# engine holds at once, 2^dim for each grid point or off-grid sample
_MAX_SAMPLES = 10 ** 6
_MAX_GRID_POINTS = 1 << 20
_MAX_CORNERS = 1 << 22
# lags of a mixing curve or a Monte Carlo row: at most _MAX_LAG, and few
# enough that the modes of f pushed forward that often keep their
# numerators within _MAX_MODE_DIGITS decimal digits (modes are ordered by
# their decimal strings, and 4300 digits is CPython's default int-to-str
# limit)
_MAX_LAG = 10 ** 4
_MAX_MODE_DIGITS = 4300
# coefficient l1 norms, of an observable and of each perturbation component:
# correlation values are then at most 2 ||f^||_1 ||g^||_1 <= 2e150 in
# modulus, the Monte Carlo variance sums at most _MAX_SAMPLES squares of
# 4e150, and conjugate's derivative bound stays finite.  Perturbation modes
# pair with points in doubles, and past 2^53 float(k) is not k.
_MAX_COEFF_L1 = 1e75
_MAX_MODE = 1 << 53
# the p-adic digits analyze starts its refinement with; it doubles them
# itself, as far as the determinants need
_MAX_PADIC_PRECISION = 1 << 12
# analyze's rank tests count singular values above tol * max(1, s[0]); at
# tol >= 1 every value matrix would have rank <= 1, a false rank-one factor
_MAX_ANALYZE_TOL = 1e-3


# --- input layer ------------------------------------------------------------
#
# Every value from a config file, a flag or HYPERRANK_SEED passes one of the
# validators below before any work starts.  A validator takes the raw value
# and the name its error message quotes, and returns the checked value.


def _load_json(path):
    try:
        with open(path, "r", encoding="ascii") as fobj:
            return json.load(fobj)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except (ValueError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")


def _object(v, name, allowed=None, required=()):
    """A JSON object with all required keys and, when allowed is given, no
    other keys than those."""
    if not isinstance(v, dict):
        raise ParseError(f"{name} must be an object")
    unknown = [] if allowed is None else sorted(set(v) - set(allowed))
    if unknown:
        raise ParseError(f"{name}: unknown keys {unknown}")
    missing = sorted(set(required) - set(v))
    if missing:
        raise ParseError(f"{name}: missing keys {missing}")
    return v


def _config(v, name, allowed, required):
    """A config object of format 1 with the given keys besides "format"."""
    if _int(_object(v, name, required=["format"])["format"],
            f"{name}: format") != 1:
        raise ParseError(f"{name}: unsupported format {v['format']!r} "
                         "(this tool reads format 1)")
    return _object(v, name, ["format", *allowed], required)


def _get(obj, key, where, validate, default=None, flag=(None, None),
         **bounds):
    """obj[key] through validate, or default when the key is absent.  A
    command-line flag, given as (name, value), overrides the key when its
    value is not None, and passes the same validator and bounds."""
    value = (validate(obj[key], f"{where}: {key}", **bounds) if key in obj
             else default)
    name, given = flag
    return value if given is None else validate(given, name, **bounds)


def _int(v, name, low=None, high=None):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{name} must be an integer")
    if low is not None and v < low:
        raise ParseError(f"{name} must be >= {low}")
    if high is not None and v > high:
        raise ParseError(f"{name} must be <= {high}")
    return v


def _number(v, name, positive=False, high=None):
    """float(v), refusing NaN, infinities and integers beyond float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{name} must be a number")
    if not abs(v) <= sys.float_info.max:
        raise ParseError(f"{name}: {v!r} is not a finite number")
    if positive and not v > 0:
        raise ParseError(f"{name} must be positive")
    if high is not None and v > high:
        raise ParseError(f"{name} must be <= {high}")
    return float(v)


def _prime(v, name):
    p = _int(v, name, low=2)
    if not is_prime(p):
        raise ParseError(f"{name}: {p} is not a prime")
    return p


def _list(v, name, length=None, each=None, nonempty=False, **bounds):
    """A JSON list as a tuple, of the given length when set, with each entry
    passed through the validator each (and its bounds) when given."""
    if (not isinstance(v, list) or (nonempty and not v)
            or length is not None and len(v) != length):
        want = ("a nonempty list" if nonempty else "a list" if length is None
                else f"a list of length {length}")
        raise ParseError(f"{name} must be {want}")
    if each is None:
        return tuple(v)
    return tuple(each(t, f"{name}[{i}]", **bounds) for i, t in enumerate(v))


def _int_list(v, name, length=None, **bounds):
    return _list(v, name, length, _int, **bounds)


def _int_matrix(v, name):
    """A square integer matrix as a tuple of rows."""
    rows = _list(v, name, nonempty=True)
    rows = tuple(_int_list(row, f"{name}[{i}]", len(rows))
                 for i, row in enumerate(rows))
    for row in rows:
        for t in row:
            # the float engines and the real spectrum convert entries
            _number(t, name)
    return rows


def _fraction(v, name):
    # accepted spellings: 3, "3", "3/2", [3, 2]; Fraction would also take
    # decimals and exponents, and expands "1e10000000" digit by digit
    if isinstance(v, str):
        try:
            if re.fullmatch(r"-?\d+(/\d+)?", v, re.ASCII):
                return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
        raise ParseError(f"{name}: cannot parse rational {v!r}")
    if isinstance(v, list):
        num, den = _int_list(v, name, 2)
        if den == 0:
            raise ParseError(f"{name}: zero denominator")
        return Fraction(num, den)
    return Fraction(_int(v, name))


def _complex_pair(v, name):
    return complex(*_list(v, name, 2, _number))


def _l1_capped(coeffs, name):
    if not sum(map(abs, coeffs)) <= _MAX_COEFF_L1:
        raise ParseError(f"{name}: the coefficients' l1 norm is above "
                         f"{_MAX_COEFF_L1:g}")


def _terms(v, name, mode, coeff, nonempty=False):
    """A list of {"mode": ..., "coeff": ...} objects as (mode, coeff) pairs,
    each part passed through its validator."""
    out = []
    for i, term in enumerate(_list(v, name, nonempty=nonempty)):
        here = f"{name}[{i}]"
        term = _object(term, here, ["mode", "coeff"], ["mode", "coeff"])
        out.append((mode(term["mode"], f"{here}.mode"),
                    coeff(term["coeff"], f"{here}.coeff")))
    return out


def _resolve_seed(config, where):
    env = os.environ.get("HYPERRANK_SEED")
    try:
        env = None if env is None else int(env)
    except ValueError:
        raise ParseError(f"HYPERRANK_SEED must be an integer, got {env!r}")
    return _get(config, "seed", where, _int, 0, low=0,
                flag=("HYPERRANK_SEED", env))


def nil_structure_from_json(obj, where="structure"):
    """The step-2 structure of a structure file: {"format": 1, "dim": d,
    "brackets": [[i, j, k, num, den], ...], "lattice_scaling": [s_1, ...,
    s_d]}, scaling entries spelled as rationals; unknown keys are rejected."""
    obj = _config(obj, where, ["dim", "brackets", "lattice_scaling"],
                  ["dim"])
    dim = _int(obj["dim"], f"{where}: dim", low=1)
    entries = []
    for n, row in enumerate(_get(obj, "brackets", where, _list, ())):
        here = f"{where}: bracket row {n}"
        i, j, k, num, den = _int_list(row, here, 5)
        entries.append((i, j, k, _fraction([num, den], here)))
    scaling = _get(obj, "lattice_scaling", where, _list, each=_fraction)
    try:
        return nil_structure(dim, entries, scaling)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


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
    where = args.config
    config = _config(_load_json(where), where,
                     ["generators", "padic_precision", "tol", "z2"],
                     ["generators"])
    gens = _list(config["generators"], f"{where}: generators",
                 each=_int_matrix, nonempty=True)
    prec = _get(config, "padic_precision", where, _int, 32, low=4,
                high=_MAX_PADIC_PRECISION)
    tol = _get(config, "tol", where, _number, 1e-9, positive=True,
               high=_MAX_ANALYZE_TOL)
    z2 = _get(config, "z2", where, _object, {},
              allowed=["pair_bound", "combo_bound"])
    z2_pair = _get(z2, "pair_bound", f"{where}: z2", _int, _Z2_DEFAULT_PAIR,
                   low=0, flag=("--bound", args.bound))
    z2_combo = _get(z2, "combo_bound", f"{where}: z2", _int,
                    _Z2_DEFAULT_COMBO, low=1)

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
            for cert in map(is_ergodic, action.generators)]
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
            rank_one = has_rank_one_factor(action, tol=tol, padic_prec=prec)
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
                                               combo_bound=z2_combo, tol=tol,
                                               padic_prec=prec)
                    report["z2_subgroup"] = {
                        "status": "certified",
                        "pair": [list(cert.pair[0]), list(cert.pair[1])],
                        "covers": "span",
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
                    if exc.reason is not None:
                        report["z2_subgroup"]["reason"] = exc.reason
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


def _most_lags(matrix, f, where):
    """The largest lag the caps allow.  A mode m with lcm l of its
    denominators has integer numerators l m of entries at most M.  Pushed
    forward n times by B = A^T, they are at most M times the product of
    ||B^(2^j)|| over the binary digits j of n, || || the largest absolute
    row sum; the lags run up to the first n where that bound could need
    more than _MAX_MODE_DIGITS digits."""
    top = 1
    for mode, _ in f.terms:
        l = math.lcm(*(c.denominator for c in mode))
        top = max(top, *(abs(c.numerator) * (l // c.denominator)
                         for c in mode))
    # log10 ||B^n|| at most room keeps M ||B^n|| within the digit cap
    room = _MAX_MODE_DIGITS - 1 - math.log10(top)
    power = [list(col) for col in zip(*matrix)]
    logs = []   # log10 ||B^(2^j)||, until one passes room
    while len(logs) < _MAX_LAG.bit_length():
        norm = max(sum(map(abs, row)) for row in power)
        logs.append(math.log10(norm) if norm else -math.inf)
        if logs[-1] > room:
            break
        power = mat_mul_mod(power, power)
    # the bound grows with the set of binary digits (each log is >= 0 or
    # -inf), so the first n past room is the smallest of highest digit h:
    # clear each lower digit while the digits below it could still pass
    most = _MAX_LAG
    for h, top_log in enumerate(logs):
        if top_log + sum(logs[:h]) > room:
            n, total = 1 << h, top_log
            for j in reversed(range(h)):
                if total + sum(logs[:j]) <= room:
                    n, total = n | 1 << j, total + logs[j]
            most = min(most, n - 1)
            break
    if most < 1:
        raise ParseError(f"{where}: f: modes pushed forward once may "
                         f"exceed {_MAX_MODE_DIGITS} digits")
    return most


def cmd_mixing(args):
    where = args.config
    config = _config(_load_json(where), where,
                     ["primes", "matrix", "f", "g", "n_max", "fit_range",
                      "mc", "seed"],
                     ["primes", "matrix", "f"])
    primes = _list(config["primes"], f"{where}: primes", each=_prime)
    matrix = _int_matrix(config["matrix"], f"{where}: matrix")
    amat = QMat(matrix)
    if amat.det() == 0:
        # a singular A is not onto, so it preserves no Haar measure
        raise ParseError(f"{where}: matrix has determinant 0; mixing "
                         "needs a nonsingular matrix")

    def observable(key):
        terms = _terms(config[key], f"{where}: {key}",
                       lambda v, name: _list(v, name, len(matrix), _fraction),
                       _complex_pair, nonempty=True)
        _l1_capped([c for _, c in terms], f"{where}: {key}")
        return TrigFunction.build(terms, primes)

    f = observable("f")
    g = observable("g") if "g" in config else f
    most = _most_lags(matrix, f, where)
    n_max = _get(config, "n_max", where, _int, min(12, most), low=1,
                 high=most, flag=("--nmax", args.n_max))
    fit_range = None
    if "fit_range" in config:
        # the inclusive lags first..last
        first, last = _int_list(config["fit_range"], f"{where}: fit_range",
                                2, low=0, high=n_max)
        if first > last:
            raise ParseError(f"{where}: fit_range must be [first, last] "
                             "with first <= last")
        fit_range = range(first, last + 1)
    seed = _resolve_seed(config, where)
    mc = _get(config, "mc", where, _object, {}, allowed=["lags", "samples"])
    mc_lags = _get(mc, "lags", f"{where}: mc", _int_list,
                   range(n_max + 1), low=0, high=most)
    # Monte Carlo rows only when the config has "mc" or the flag is given
    mc_samples = _get(mc, "samples", f"{where}: mc", _int,
                      10000 if "mc" in config else None, low=2,
                      high=_MAX_SAMPLES, flag=("--mc", args.mc))

    curve = mixing_curve(f, g, amat, n_max, fit_range=fit_range)

    rows = [CorrelationRow(n=n, value=v, method="exact")
            for n, v in enumerate(curve.values)]
    if mc_samples is not None:
        draws = {}   # the Haar points, drawn once per fibre precision
        for lag in mc_lags:
            est = monte_carlo_correlation(f, g, amat, lag,
                                          samples=mc_samples, seed=seed,
                                          draws=draws)
            rows.append(CorrelationRow(n=est.n, value=est.value, method="mc",
                                       samples=est.samples,
                                       stderr=est.stderr))

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
               "mc": [{"n": r.n, "re": r.value.real, "im": r.value.imag,
                       "stderr": r.stderr, "samples": r.samples}
                      for r in rows if r.method == "mc"]}
    _write_text(args.summary, _dump_json(summary))
    return EXIT_OK


# --- conjugate --------------------------------------------------------------


def cmd_conjugate(args):
    where = args.config
    config = _config(_load_json(where), where,
                     ["matrix", "perturbation", "grid", "tol", "budget",
                      "verify_samples", "holder_pairs", "seed"],
                     ["matrix", "perturbation"])
    matrix = _int_matrix(config["matrix"], f"{where}: matrix")
    dim = len(matrix)
    terms = _terms(config["perturbation"], f"{where}: perturbation",
                   lambda v, name: _int_list(v, name, dim, low=-_MAX_MODE,
                                             high=_MAX_MODE),
                   lambda v, name: _list(v, name, dim, _complex_pair))
    for j in range(dim):
        _l1_capped([c[j] for _, c in terms],
                   f"{where}: perturbation component {j}")
    # grid^dim points and (2 grid)^dim corners at most; the default grid
    # obeys the caps too
    top = int(_MAX_GRID_POINTS ** (1 / dim)) + 1
    while top ** dim > _MAX_GRID_POINTS or (2 * top) ** dim > _MAX_CORNERS:
        top -= 1
    if top < 2:
        raise ParseError(f"{where}: matrix: a {dim}-dimensional grid needs "
                         f"more than {_MAX_CORNERS} interpolation corners")
    grid = _get(config, "grid", where, _int, min(1024, top), low=2, high=top,
                flag=("--grid", args.grid))
    tol = _get(config, "tol", where, _number, 1e-8, positive=True,
               flag=("--tol", args.tol))
    budget = _get(config, "budget", where, _int, 200, low=1)
    most = min(_MAX_SAMPLES, _MAX_CORNERS >> dim)
    verify_samples = _get(config, "verify_samples", where, _int, 400, low=1,
                          high=most)
    holder_pairs = _get(config, "holder_pairs", where, _int, 2000, low=1,
                        high=most)
    seed = _resolve_seed(config, where)

    pmap = perturbed_map(matrix, trig_perturbation(dim, terms))
    field = solve_conjugacy(pmap, grid, tol=tol, budget=budget)
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
    """The targets and levels, refused when crt could not print its
    solution: every coordinate of n is below twice the product P of
    p^precision over the targets, so 2 P must stay below 10^4300."""
    config = _config(_load_json(path), path, ["targets"], ["targets"])
    table = _object(config["targets"], f"{path}: targets")
    if not table:
        raise ParseError(f"{path}: targets must map primes to targets")
    limit = 10 ** _MAX_MODE_DIGITS
    size = 2
    targets, levels = {}, {}
    for key in sorted(table):
        here = f"{path}: targets[{key!r}]"
        try:
            if not re.fullmatch(r"\d+", key, re.ASCII):
                raise ValueError(key)
            p = int(key)
        except ValueError:   # not ASCII digits, or past int's digit limit
            raise ParseError(f"{here}: key must be a prime written in "
                             "decimal")
        p = _prime(p, here)
        if p in targets:
            raise ParseError(f"{here}: a second target for p = {p}")
        entry = _object(table[key], here, ["coords", "precision", "level"],
                        ["coords", "level"])
        coords = _int_list(entry["coords"], f"{here}: coords", structure.dim)
        level = _get(entry, "level", here, _int, low=1)
        prec = _get(entry, "precision", here, _int, max(level + 2, 8),
                    low=level)
        # p^prec >= 2^(prec (bits(p) - 1)): a huge prec is refused before
        # p is raised to it
        if (prec * (p.bit_length() - 1) >= limit.bit_length()
                or (size := size * p ** prec) >= limit):
            raise ParseError(f"{here}: the solution would pass "
                             f"{_MAX_MODE_DIGITS} digits (twice the product "
                             "of p^precision over the targets must stay "
                             f"below 10^{_MAX_MODE_DIGITS})")
        targets[p] = nil_element_padic(structure, coords, p, prec)
        levels[p] = level
    return targets, levels


def cmd_crt(args):
    structure = nil_structure_from_json(_load_json(args.structure),
                                        args.structure)
    targets, levels = _load_crt_targets(args.targets, structure)
    sol = nil_crt(structure, targets, levels)

    out = []
    out.append(f"structure: dim {structure.dim}, derived coordinates "
               f"{list(structure.derived)}")
    for p in sorted(targets):
        out.append(f"target p={p}: {targets[p].coords} to precision "
                   f"{targets[p].padic[1]}, level {levels[p]}")
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


# exception class -> (exit code, stderr label); the first match wins
_EXITS = (
    (LeavesDualLattice, EXIT_DUAL_LATTICE, "error"),
    (NotExpanding, EXIT_NOT_EXPANDING, "error"),
    (FactorSearchInconclusive, EXIT_INCONCLUSIVE, "inconclusive"),
    (NoConvergence, EXIT_INCONCLUSIVE, "inconclusive"),
    ((HyperrankError, OSError), EXIT_PARSE, "error"),  # ParseError too
)


_parser = None   # built on the first call; it depends on no input


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (HyperrankError, OSError) as exc:
        code, label = next((code, label) for cls, code, label in _EXITS
                           if isinstance(exc, cls))
        sys.stderr.write(f"{label}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
