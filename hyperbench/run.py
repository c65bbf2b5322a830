"""hyperrank benchmark: one workload, one seed, one run.

    python3 hyperbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (generate.py, in a child
process that uses the sympy/numpy oracles and never imports hyperrank),
measures set-up in fresh child processes, then drives hyperrank in this
process through ``hyperrank.cli.main`` (and ``hyperrank.solenoid.clt_check``,
which has no command) in whole passes over the inputs until S seconds have
passed.  Only the calls are timed.  Every output is then checked by
check.py against the independent oracles, outside the timed region, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from layers.py) with ``--trace 1``.
Traced runs also leave their spans in .hyperbench_out/<run>/spans.jsonl.gz.
"""

import os

# one BLAS thread, set before numpy is imported here or in any child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".hyperbench_out")
WORKLOADS = ("z2_search", "spectra", "float_engines")
SETUP_ROUNDS = 5
CHILD_TIMEOUT = 150

_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import hyperrank.cli as cli
t1 = time.perf_counter()
code = cli.main(json.loads(sys.argv[1]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1, "exit": code}))
"""


# Seconds the calibration kernel takes at the reference speed.  Machine
# speed on a shared host drifts by up to 2x within seconds; every timing is
# rescaled by this over the kernel time measured around (and, every
# SAMPLE_EVERY seconds, inside) the timed call.
KERNEL_REF_S = 1.0e-3
SAMPLE_EVERY = 0.2


def calibration_kernel():
    """Fixed pure-Python work: Fraction and integer arithmetic, dict and
    list traffic, the same interpreter paths hyperrank's exact core uses."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 125):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        table[i % 17] = table.get(i % 17, 0) + i * i
    return acc, table


def kernel_seconds():
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class SpeedClock:
    """Times a call in raw seconds and in seconds at the reference speed.

    The kernel runs twice before and twice after the call, and from a
    SIGALRM handler every SAMPLE_EVERY seconds during it; each stretch of
    the call between two kernel runs is rescaled by the mean speed at its
    two ends, and kernel runs inside the call are not counted."""

    def __init__(self):
        self._inside = []

    def _alarm(self, signum, frame):
        start = time.perf_counter()
        calibration_kernel()
        self._inside.append((start, time.perf_counter() - start))

    def time(self, fn):
        """(raw seconds, reference seconds, fn's result)."""
        before = statistics.median(kernel_seconds() for _ in range(2))
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = statistics.median(kernel_seconds() for _ in range(2))
        marks = [(start, 0.0, before)] + [
            (t, dt, dt) for t, dt in self._inside] + [(end, 0.0, after)]
        raw = ref = 0.0
        for (ta, da, ka), (tb, _, kb) in zip(marks, marks[1:]):
            stretch = tb - (ta + da)
            raw += stretch
            ref += stretch * KERNEL_REF_S / ((ka + kb) / 2)
        return raw, ref, result


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, child failure)."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _child(args, what):
    proc = subprocess.run([sys.executable] + args, cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def import_program():
    if not os.path.isfile(os.path.join(SRC, "hyperrank", "cli.py")):
        raise BenchError(f"no hyperrank sources under {SRC}")
    sys.path.insert(0, SRC)
    import hyperrank.cli
    import hyperrank.solenoid
    if not os.path.abspath(hyperrank.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported {hyperrank.cli.__file__}, not {SRC}")
    return hyperrank.cli, hyperrank.solenoid


def measure_setup(warmup):
    """Median over fresh processes of import plus one warm-up call, in
    reference seconds (kernel timed just before and after each process)."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        before = statistics.median(kernel_seconds() for _ in range(3))
        out = json.loads(_child(["-c", _SETUP_CHILD,
                                 json.dumps(warmup["argv"])],
                                "set-up child").strip().splitlines()[-1])
        after = statistics.median(kernel_seconds() for _ in range(3))
        if out["exit"] != warmup["expect_exit"]:
            raise BenchError(f"warm-up call exited {out['exit']}")
        rounds.append((out["import_s"] + out["warmup_s"])
                      * KERNEL_REF_S / ((before + after) / 2))
    return statistics.median(rounds)


class Operations:
    """The calls of one pass, each timed alone."""

    def __init__(self, manifest, cli, solenoid):
        self.calls = manifest["calls"]
        self.clock = SpeedClock()
        self.cli = cli
        self.solenoid = solenoid
        self.clt_args = {}
        from hyperrank.exact import QMat
        for call in self.calls:
            if call["kind"] == "clt":
                p = call["params"]
                f = solenoid.TrigFunction.build(
                    [(tuple(Fraction(v) for v in t["mode"]),
                      complex(*t["coeff"])) for t in p["f"]])
                self.clt_args[call["id"]] = (f, QMat(p["matrix"]))

    def run(self, call):
        """(raw seconds, reference seconds, exit code or exception name)."""
        try:
            if call["kind"] != "clt":
                return self.clock.time(lambda: self.cli.main(call["argv"]))
            p = call["params"]
            f, a = self.clt_args[call["id"]]
            # looked up at call time so a tracer's wrapper is reached
            raw, ref, rep = self.clock.time(lambda: self.solenoid.clt_check(
                f, a, n=p["n"], orbits=p["orbits"], seed=p["seed"]))
            with open(call["outputs"]["out"], "w", encoding="ascii") as fobj:
                json.dump({"n": rep.n, "orbits": rep.orbits,
                           "variance": rep.variance,
                           "sigma2_ref": rep.sigma2_ref, "mean": rep.mean,
                           "histogram": list(map(list, rep.histogram))},
                          fobj)
            return raw, ref, 0
        except Exception as exc:  # a crash is a failed operation
            return 0.0, 0.0, type(exc).__name__


def _digest(call):
    h = hashlib.sha256()
    for key in sorted(call["outputs"]):
        path = call["outputs"][key]
        if os.path.exists(path):
            with open(path, "rb") as fobj:
                h.update(fobj.read())
    return h.hexdigest()


def measure(ops, seconds):
    """Whole passes until `seconds` have elapsed (at least one).  Returns
    per-pass lists of (kind, raw s, reference s) per call, exit codes and
    whether every pass wrote byte-identical outputs."""
    per_call, codes = [], {c["id"]: [] for c in ops.calls}
    digests = None
    deterministic = True
    begin = time.perf_counter()
    while not per_call or time.perf_counter() - begin < seconds:
        timed = []
        for call in ops.calls:
            raw, ref, code = ops.run(call)
            timed.append((call["kind"], raw, ref))
            codes[call["id"]].append(code)
        per_call.append(timed)
        now = [_digest(c) for c in ops.calls]
        deterministic &= digests is None or now == digests
        digests = now
    return per_call, codes, deterministic


def _geomean_ms(timed):
    return math.exp(statistics.fmean(math.log(max(ref, 1e-9) * 1e3)
                                     for _, _, ref in timed))


def input_sizes(call):
    """Work requested by one call, from its inputs only: Monte Carlo
    samples x lags, CLT orbits x steps, conjugacy grid points."""
    if call["kind"] == "mixing":
        cfg = call["check"]["config"]
        lags = cfg.get("mc", {}).get("lags", range(cfg["n_max"] + 1))
        return call["check"]["samples"] * len(lags)
    if call["kind"] == "clt":
        return call["params"]["orbits"] * call["params"]["n"]
    if call["kind"] == "conjugate":
        cfg = call["check"]["config"]
        return cfg["grid"] ** len(cfg["matrix"])
    return 0


def layer_metrics(tracer, ops, per_call, loop_s, cpu_s):
    """Per-pass layer figures.  Span times are rescaled to the reference
    speed by the run's overall ratio of reference to raw call time;
    proc.wall_s and proc.cpu_s cover the same stretch of the run (the
    passes with their calibration and hashing), so a gap means waiting."""
    n = len(per_call)
    raw = sum(r for timed in per_call for _, r, _ in timed)
    ref = sum(r for timed in per_call for _, _, r in timed)
    scale = ref / raw if raw else 1.0
    out = {k: {"value": v * scale if u == "s" else v, "unit": u}
           for k, (v, u) in tracer.layer_metrics(n).items()}
    for kind in ("analyze", "crt", "mixing", "conjugate"):
        times = [t for timed in per_call for k, _, t in timed if k == kind]
        out[f"cli.{kind}_ms_p50"] = {
            "value": statistics.median(times) * 1e3 if times else 0.0,
            "unit": "ms"}
    for name, kind in (("solenoid.mc_samples_per_s", "mixing"),
                       ("solenoid.clt_steps_per_s", "clt"),
                       ("conjugacy.grid_points_per_s", "conjugate")):
        size = sum(input_sizes(c) for c in ops.calls if c["kind"] == kind)
        busy = sum(t for timed in per_call for k, _, t in timed if k == kind)
        out[name] = {"value": size * n / busy if busy else 0.0,
                     "unit": "1/s"}
    out["proc.cpu_s"] = {"value": cpu_s * scale / n, "unit": "s"}
    out["proc.wall_s"] = {"value": loop_s * scale / n, "unit": "s"}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli, solenoid = import_program()
    rundir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    _child([os.path.join(HERE, "generate.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--dir", rundir], "generate.py")
    with open(os.path.join(rundir, "manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)

    setup_s = measure_setup(manifest["warmup"])
    ops = Operations(manifest, cli, solenoid)
    ops.run(manifest["warmup"])

    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer().install()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        per_call, codes, deterministic = measure(ops, args.seconds)
    finally:
        cpu_s = time.process_time() - cpu0
        loop_s = time.perf_counter() - wall0
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = {c["id"]: c["expect_exit"] for c in ops.calls}
    attempted = sum(len(v) for v in codes.values())
    failed = sum(code != expected[cid]
                 for cid, seq in codes.items() for code in seq)
    with open(os.path.join(rundir, "results.json"), "w",
              encoding="ascii") as fh:
        json.dump({"exit_codes": codes}, fh)
    verdict = json.loads(_child([os.path.join(HERE, "check.py"), "--dir",
                                 rundir], "check.py").strip().splitlines()[-1])
    for problem in verdict["problems"]:
        print(f"check: {problem}", file=sys.stderr)
    if not deterministic:
        print("check: reruns wrote different outputs", file=sys.stderr)
    correct = deterministic and not verdict["problems"]

    if tracer is not None:
        tracer.write_spans(os.path.join(rundir, "spans.jsonl.gz"))
        metrics = layer_metrics(tracer, ops, per_call, loop_s, cpu_s)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(
                sum(ref for _, _, ref in timed) for timed in per_call),
                "unit": "s"},
            "call_ms_geomean": {"value": statistics.median(
                _geomean_ms(timed) for timed in per_call), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {len(per_call)} passes, "
          f"{attempted} calls, {verdict['checked']} outputs checked",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"hyperbench: {exc}", file=sys.stderr)
        sys.exit(2)
