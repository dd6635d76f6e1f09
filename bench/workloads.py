"""Timed loops for the four workloads, untraced and traced.

Load comes from one caller in a closed loop: each call starts when the
previous one has returned, and the cli workload runs one subprocess at a
time.  Every output is checked after its call, outside the timed region.

An untraced run is a series of passes over one seeded input list for
--seconds; each pass, except on cli, whose ops are
subprocesses already, runs in a fresh interpreter (this file run as a
script), so whatever the library caches lives for one pass only (see
untraced).  The traced run stays in one interpreter and draws fresh
inputs for every pass instead.

Outcomes of an operation:
  * answered: a checked, right answer (for harmonic, TrivialKnot on an
    unknot is a right answer);
  * refused: the library declined to answer in its documented way
    (AmbiguousCrossing from the oracle, or classify giving up with
    "canonical reduction did not terminate"); recorded in the ledger and
    in fail_ratio;
  * failed: a wrong answer, a False verdict, a non-zero exit or any other
    error, including any other ChebknotError from classify; these make
    the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from statistics import fmean, quantiles
from time import perf_counter, process_time_ns

import chebknot.cli as cli
from chebknot import (
    ChebyshevHeight,
    Fraction,
    HarmonicSpec,
    build_height,
    canonicalize,
    classify,
    enumerate_crossings,
    gauss_sequence,
    harmonic_conway,
    measure_crossings,
    minimal_diagram,
    parametrization,
    recover_knot,
    regular_expansion,
    render_diagram_svg,
    verify_parametrization,
)
from chebknot.errors import AmbiguousCrossing, ChebknotError, TrivialKnot

import checks
import inputs
from tracer import Tracer, median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

START_REPEATS = 5
SETUP_BEFORE = 6  # import samples before the first pass; one more follows every pass
# Passes a run makes at the least, past --seconds if need be.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120
# classify's documented give-up; any other plain ChebknotError is a fault.
GIVE_UP = "canonical reduction did not terminate"
ORACLE_SAMPLE_RATE = 0.005
PROBE_KNOTS = 200
PROBE_GRID = 1000
PROBE_LARGE_C = 10
SVG_LARGE = (67, 1)  # torus knot with b = 100

UNKNOT = "unknot"
REFUSED = "refused"

CHAIN_STAGES = (
    "diagram.minimal_diagram",
    "heights.gauss_sequence",
    "heights.build_height",
    "oracle.measure_crossings",
    "oracle.recover_knot",
    "bridge.canonicalize",
)
CHAIN_PROBES = ("contfrac.regular_expansion", "diagram.enumerate_crossings")
SPANS = (
    *CHAIN_PROBES,
    *CHAIN_STAGES,
    "heights.parametrization",
    "oracle.verify_parametrization",
    "heights.parametrization_2001_1",
    "harmonic.classify.grid",
    "harmonic.classify.large_c",
    "harmonic.conway_form",
    *(f"cli.main.{verb}" for verb in inputs.CLI_VERBS),
    "cli.atlas.classify",
    "cli.atlas.main",
    "svg.render_diagram_svg.small",
    "svg.render_diagram_svg.large",
)
MODULES = ("__init__", "__main__", "bridge", "cli", "contfrac", "diagram", "errors",
           "harmonic", "heights", "oracle", "svg", "trig")
N_BINS = (("le_12", 0, 12), ("13_99", 13, 99), ("100_999", 100, 999), ("ge_1000", 1000, None))


class Tally:
    """Attempts, failures, refusals and the ledger of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused: Counter = Counter()
        self.ledger: dict[tuple[str, str], list] = {}

    def wrong(self, what: str, reason: str) -> None:
        self.failed += 1
        self._note(what, "WrongAnswer", reason)

    def unexpected(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self._note(what, type(exc).__name__, str(exc))

    def refuse(self, what: str, exc: BaseException) -> None:
        self.refused[type(exc).__name__] += 1
        self._note(what, type(exc).__name__, str(exc))

    def _note(self, what: str, kind: str, detail: str) -> None:
        entry = self.ledger.setdefault((what, kind), [0, detail.splitlines()[0][:120] if detail else ""])
        entry[0] += 1

    def fail_ratio(self) -> float:
        return (self.failed + sum(self.refused.values())) / max(1, self.attempted)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.refused.update(other.refused)
        for key, (count, detail) in other.ledger.items():
            self.ledger.setdefault(key, [0, detail])[0] += count

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "refused": dict(self.refused),
                "ledger": [[what, kind, count, detail]
                           for (what, kind), (count, detail) in self.ledger.items()]}

    @classmethod
    def from_json(cls, data: dict) -> "Tally":
        tally = cls()
        tally.attempted, tally.failed = data["attempted"], data["failed"]
        tally.refused.update(data["refused"])
        tally.ledger = {(what, kind): [count, detail] for what, kind, count, detail in data["ledger"]}
        return tally


class Result:
    """What one run reports: tallies, metrics and the text of its report."""

    def __init__(self, tally: Tally, metrics: dict, properties: dict, notes: list[str]) -> None:
        self.tally = tally
        self.metrics = metrics
        self.properties = properties
        self.notes = notes


# ---------------------------------------------------------------------------
# Subprocesses
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _python(args: list[str]) -> subprocess.CompletedProcess:
    """Run the interpreter in the checkout; run() kills and reaps it on timeout."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


def _timed_import(module: str) -> float:
    """CPU seconds a fresh interpreter spends in `import module`."""
    code = f"import time; t = time.process_time(); import {module}; print(time.process_time() - t)"
    proc = _python(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {proc.stderr.strip()[-200:]}")
    return float(proc.stdout)


def setup_samples(count: int) -> list[float]:
    """Seconds to import chebknot, in `count` fresh interpreters."""
    return [_timed_import("chebknot") for _ in range(count)]


def _cli_subprocess(args: list[str]) -> tuple[int, str, str]:
    proc = _python(["-m", "chebknot", *args])
    return proc.returncode, proc.stdout, proc.stderr


def _cli_in_process(args: list[str]) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------

def _timed(tr: Tracer | None, name: str, op: int, fn, *args):
    """(fn(*args), its duration in ns): a wall-clock span when tracing,
    otherwise the CPU time this process spent in the call (see untraced)."""
    if tr is not None:
        span = tr.start(name, op)
        out = fn(*args)
        return out, tr.end(span)
    t0 = process_time_ns()
    out = fn(*args)
    return out, process_time_ns() - t0


def _children_cpu_ns() -> int:
    """CPU time (user + system) of every child process reaped so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((ru.ru_utime + ru.ru_stime) * 1e9)


def _certify(r: Fraction, p):
    """verify_parametrization's verdict, or the AmbiguousCrossing it refused with."""
    try:
        return verify_parametrization(r, p)
    except AmbiguousCrossing as exc:
        return exc


def _knot_op(tally: Tally, alpha: int, beta: int, n: int, tr: Tracer | None = None, op: int = 0):
    """Construct then certify one knot.

    Returns (construct ns, certify ns, p, constructed, certified), or None
    when a call raised; constructed means p passed its check.
    """
    what = f"{alpha}/{beta}"
    r = Fraction(alpha, beta)
    tally.attempted += 1
    try:
        p, construct_ns = _timed(tr, "heights.parametrization", op, parametrization, r)
        verdict, certify_ns = _timed(tr, "oracle.verify_parametrization", op, _certify, r, p)
    except Exception as exc:  # op boundary: record any error and go on
        tally.unexpected(what, exc)
        return None
    bad = checks.construction(n, p.b, p.height.degree, p.crossing_number)
    if bad:
        tally.wrong(what, bad)
    elif isinstance(verdict, AmbiguousCrossing):
        tally.refuse(what, verdict)
    elif verdict is not True:
        tally.wrong(what, f"verify_parametrization returned {verdict!r}")
    return construct_ns, certify_ns, p, bad is None, bad is None and verdict is True


def _classify_outcome(b: int, c: int):
    """classify(H(3, b, c)), with the unknot and the give-up returned as values."""
    try:
        return classify(HarmonicSpec(3, b, c))
    except TrivialKnot:
        return UNKNOT
    except ChebknotError as exc:
        if type(exc) is not ChebknotError or str(exc) != GIVE_UP:
            raise
        return exc


def _check_classified(tally: Tally, b: int, c: int, outcome) -> None:
    what = f"H(3,{b},{c})"
    if isinstance(outcome, ChebknotError):
        tally.refuse(what, outcome)
    elif outcome is not UNKNOT:
        bad = checks.canonical_pair(outcome.b_prime, outcome.c_prime, outcome.crossing_number)
        if bad:
            tally.wrong(what, bad)


def _classify_op(tally: Tally, b: int, c: int, large: bool,
                 tr: Tracer | None = None, op: int = 0):
    """One checked classify: (outcome, ns), or None when it raised."""
    tally.attempted += 1
    name = "harmonic.classify.large_c" if large else "harmonic.classify.grid"
    try:
        outcome, ns = _timed(tr, name, op, _classify_outcome, b, c)
    except Exception as exc:  # op boundary
        tally.unexpected(f"H(3,{b},{c})", exc)
        return None
    _check_classified(tally, b, c, outcome)
    return outcome, ns


def _oracle_check(tally: Tally, b: int, c: int, outcome) -> None:
    """classify against the exact oracle recover_knot(measure_crossings(...))."""
    try:
        k = recover_knot(measure_crossings(3, b, ChebyshevHeight(c)))
        measured = (k.alpha, k.beta, k.mirror)
    except ChebknotError:  # the oracle's report of the unknot
        measured = UNKNOT
    what = f"H(3,{b},{c})"
    if outcome is UNKNOT or measured is UNKNOT:
        if outcome is not measured:
            tally.wrong(what, f"classify gave {outcome}, the oracle measured {measured}")
        return
    e = canonicalize(outcome.fraction.num, outcome.fraction.den)
    bad = checks.same_knot(measured, (e.alpha, e.beta, e.mirror), outcome.mirror)
    if bad:
        tally.wrong(what, f"oracle: {bad}")


def _expected_cli(args: list[str]):
    """(expected exit code, expected JSON fields) from the in-process library."""
    verb = args[0]
    if verb == "harmonic":
        h = _classify_outcome(int(args[2]), int(args[3]))
        if h is UNKNOT:
            return 1, None
        return 0, {"b_canon": h.b_prime, "c_canon": h.c_prime, "mirror": h.mirror,
                   "alpha": h.fraction.num, "beta": h.fraction.den,
                   "N": h.crossing_number, "amphicheiral": h.amphicheiral}
    if verb == "family":
        alpha, beta = inputs.family_fraction(args[1], int(args[2]))
        k = canonicalize(alpha, beta)
        return 0, {"fraction": f"{alpha}/{beta}", "alpha": k.alpha, "beta": k.beta,
                   "mirror": k.mirror, "crossing_number": inputs.crossing_number(k.alpha, k.beta)}
    alpha, beta = (int(v) for v in args[1].split("/"))
    r = Fraction(alpha, beta)
    n = inputs.crossing_number(alpha, beta)
    if verb == "expand":
        cf = regular_expansion(r)
        return 0, {"fraction": args[1], "terms": list(cf.terms), "length": len(cf.terms),
                   "crossing_number": n, "mirror": False}
    if verb == "diagram":
        md = minimal_diagram(r)
        return 0, {"fraction": args[1], "b": md.b, "signs": list(md.form.signs),
                   "mirrored": md.mirrored}
    if verb == "param":
        p = parametrization(r)
        return 0, {"b": p.b, "N": n, "z_leading_sign": p.height.leading_sign}
    if verb == "verify":
        return 0, {"fraction": args[1], "verdict": True, "b": minimal_diagram(r).b}
    raise ValueError(f"unknown verb {verb!r}")


def _check_cli(args: list[str], code: int, stdout: str, stderr: str) -> str | None:
    want_code, want = _expected_cli(args)
    if code != want_code:
        return f"exit code {code}, expected {want_code}: {stderr.strip()[-120:]}"
    if want is None:
        return None
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"output is not JSON: {stdout[:80]!r}"
    bad = checks.fields(payload, want)
    if bad:
        return bad
    verb = args[0]
    if verb == "param":
        return checks.construction(payload["N"], payload["b"], len(payload["z_roots"]), payload["N"])
    if verb == "verify":
        alpha, beta = (int(v) for v in args[1].split("/"))
        k = canonicalize(alpha, beta)
        return checks.fields(payload["recovered"], {"alpha": k.alpha, "beta": k.beta})
    if verb == "harmonic":
        return checks.canonical_pair(payload["b_canon"], payload["c_canon"], payload["N"])
    if verb == "diagram" and "--svg" in args:
        root = ET.parse(args[args.index("--svg") + 1]).getroot()
        if not root.tag.endswith("svg") or not root.findall("{http://www.w3.org/2000/svg}path"):
            return "SVG file has no path"
    return None


def _check_atlas(code: int, stdout: str, stderr: str, path: Path) -> str | None:
    if code != 0:
        return f"atlas exit code {code}: {stderr.strip()[-120:]}"
    try:
        records = json.loads(stdout)["records"]
    except (ValueError, KeyError):
        return f"atlas output is not the JSON summary: {stdout[:80]!r}"
    if records != checks.ATLAS_RECORDS:
        return f"atlas reported {records} records"
    with open(path, encoding="utf-8") as fh:
        return checks.atlas(fh)


def _cli_commands(seed: int, pass_index: int = 0) -> list[list[str]]:
    svg = str(OUT / "diagram.svg")
    return [args + ["--svg", svg] if args[0] == "diagram" else args
            for args in inputs.cli_commands(seed, pass_index)]


ATLAS_ARGS = ["atlas", "--b-max", str(inputs.HARMONIC_MAX), "--c-max", str(inputs.HARMONIC_MAX)]


# ---------------------------------------------------------------------------
# Workload properties
# ---------------------------------------------------------------------------

def _n_shares(ns: list[int]) -> dict:
    out = {}
    for name, lo, hi in N_BINS:
        hits = sum(1 for n in ns if n >= lo and (hi is None or n <= hi))
        out[f"inputs.n_share.{name}"] = hits / max(1, len(ns))
    return out


def _knot_properties(bs: dict, degrees: dict) -> dict:
    """Shares over the distinct knots a run constructed.

    height_factor_evals is computed, not counted: a float measurement of
    the curve evaluates deg C factors at 2(b - 1) crossing parameters.
    """
    return {
        "diagram.distinct_b_ratio": len(set(bs.values())) / max(1, len(bs)),
        "heights.degree_mean": fmean(degrees.values()) if degrees else 0.0,
        "oracle.height_factor_evals":
            fmean(2 * (bs[k] - 1) * d for k, d in degrees.items()) if degrees else 0.0,
    }


class HarmonicLog:
    """Classify outcomes per distinct (b, c), kept as small summaries, and
    the seeded sample that is checked against the oracle after the timed
    loop (every large-c answer and ORACLE_SAMPLE_RATE of the grid)."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"oracle-sample:{seed}")
        self.answers: dict = {}  # (b, c) -> (b', c', N), UNKNOT or REFUSED
        self.sample: list = []

    def record(self, b: int, c: int, large: bool, outcome) -> None:
        if (b, c) in self.answers:
            return
        refused = isinstance(outcome, ChebknotError)
        if refused or outcome is UNKNOT:
            self.answers[(b, c)] = REFUSED if refused else UNKNOT
        else:
            self.answers[(b, c)] = (outcome.b_prime, outcome.c_prime, outcome.crossing_number)
        if not refused and (large or self._rng.random() < ORACLE_SAMPLE_RATE):
            self.sample.append((b, c, outcome))

    def check(self, tally: Tally) -> None:
        for b, c, outcome in self.sample:
            _oracle_check(tally, b, c, outcome)

    def answered(self) -> int:
        return sum(1 for v in self.answers.values() if v is not REFUSED)

    def crossing_numbers(self) -> list[int]:
        return [v[2] for v in self.answers.values() if isinstance(v, tuple)]

    def properties(self) -> dict:
        knots = [v for v in self.answers.values() if isinstance(v, tuple)]
        large = sum(1 for b, c in self.answers if max(b, c) > inputs.HARMONIC_MAX)
        return {
            "harmonic.distinct_canonical_ratio": len({v[:2] for v in knots}) / max(1, len(knots)),
            "harmonic.large_c_share": large / max(1, len(self.answers)),
        }


def _outcome_properties(tally: Tally) -> dict:
    return {
        "fail_ratio": tally.fail_ratio(),
        "oracle.refused.AmbiguousCrossing": tally.refused["AmbiguousCrossing"],
        "harmonic.failed.ChebknotError": tally.refused["ChebknotError"],
    }


def _certified_per_s(certified: int, certify_ns: int) -> float:
    """Certified knots per second of all certify attempts, refusals included."""
    return certified / (certify_ns / 1e9) if certify_ns else 0.0


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Untraced runs: the end-to-end metrics
# ---------------------------------------------------------------------------

def _knot_pass(knots, certify_timed: bool) -> dict:
    """One pass of construct then certify over the knots.

    The timed op is construct + certify when certify_timed (census), and
    construct alone otherwise (giants): today's giants refusals are fast,
    so an oracle that certifies them would read as a slowdown.
    """
    tally = Tally()
    times: list[int | None] = []
    answered = certified = certify_ns = 0
    bs: dict = {}
    degrees: dict = {}
    for alpha, beta, n, *_ in knots:
        res = _knot_op(tally, alpha, beta, n)
        if res is None:
            times.append(None)
            continue
        c_ns, v_ns, p, constructed, ok = res
        times.append(c_ns + v_ns if certify_timed else c_ns)
        answered += ok if certify_timed else constructed
        certify_ns += v_ns
        certified += ok
        bs[(alpha, beta)] = p.b
        degrees[(alpha, beta)] = p.height.degree
    props = {**_knot_properties(bs, degrees), **_n_shares([k[2] for k in knots])}
    return {"ns": times, "answered": answered, "tally": tally.to_json(), "properties": props,
            "certified": certified, "certify_ns": certify_ns,
            "rss_mb": _rss_mb(resource.RUSAGE_SELF)}


def _harmonic_pass(stream, seed: int, oracle: bool) -> dict:
    """One pass over the stream; the oracle sample is checked when `oracle`."""
    tally = Tally()
    log = HarmonicLog(seed)
    times: list[int | None] = []
    for b, c, large in stream:
        res = _classify_op(tally, b, c, large)
        if res is None:
            times.append(None)
            continue
        outcome, ns = res
        times.append(ns)
        log.record(b, c, large, outcome)
    if oracle:
        log.check(tally)
    props = {**log.properties(), **_n_shares(log.crossing_numbers())}
    return {"ns": times, "answered": log.answered(), "tally": tally.to_json(), "properties": props,
            "oracle_checked": len(log.sample) if oracle else 0,
            "rss_mb": _rss_mb(resource.RUSAGE_SELF)}


def library_pass(workload: str, seed: int, pass_index: int) -> dict:
    """One untraced pass of an in-process workload over its seeded inputs;
    the oracle sample of harmonic is checked on pass 0 only, since every
    pass classifies the same specs."""
    if workload == "harmonic":
        return _harmonic_pass(inputs.harmonic_stream(seed), seed, pass_index == 0)
    knots = inputs.census_order(seed) if workload == "census" else inputs.giants(seed)
    return _knot_pass(knots, workload == "census")


def _fresh_pass(workload: str, seed: int, pass_index: int) -> dict:
    """library_pass in a fresh interpreter (this file run as a script).

    Whatever the library caches dies with the pass, and each pass gets
    its own memory layout, so the run's figures average over layouts
    instead of carrying one process's luck.  The result comes back as
    JSON on stdout.
    """
    proc = _python([__file__, workload, str(seed), str(pass_index)])
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass {pass_index} failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout)


def _cli_pass(commands: list[list[str]]) -> dict:
    """One pass over the CLI commands, each its own subprocess."""
    tally = Tally()
    times: list[int | None] = []
    answered = 0
    for args in commands:
        tally.attempted += 1
        t0 = _children_cpu_ns()
        try:
            code, out, err = _cli_subprocess(args)
        except subprocess.TimeoutExpired as exc:
            tally.unexpected(" ".join(args), exc)
            times.append(None)
            continue
        times.append(_children_cpu_ns() - t0)
        bad = _check_cli(args, code, out, err)
        if bad:
            tally.wrong(" ".join(args[:-2]), bad)
        else:
            answered += 1
    ns = [inputs.crossing_number(*map(int, a[1].split("/"))) for a in commands if "/" in a[1]]
    return {"ns": times, "answered": answered, "tally": tally.to_json(),
            "properties": _n_shares(ns)}


def _atlas_run(tally: Tally) -> float:
    """One checked 400x400 atlas subprocess; its wall time in seconds."""
    atlas_path = OUT / "atlas.ndjson"
    tally.attempted += 1
    t0 = perf_counter()
    try:
        code, out, err = _cli_subprocess(ATLAS_ARGS + ["--out", str(atlas_path), "--format", "json"])
    except subprocess.TimeoutExpired as exc:
        tally.unexpected("atlas 400x400", exc)
        return float("nan")
    atlas_s = perf_counter() - t0
    bad = _check_atlas(code, out, err, atlas_path)
    if bad:
        tally.wrong("atlas 400x400", bad)
    atlas_path.unlink(missing_ok=True)
    return atlas_s


def untraced(workload: str, seed: int, seconds: float) -> Result:
    """Passes over the run's inputs while the next one still ends within
    `seconds` of the start (at least MIN_PASSES).

    Every pass runs the same inputs in the same order, each in a fresh
    interpreter (cli's ops are subprocesses already).  So every pass
    starts from the library state of a fresh import and meets the same
    state at every op: whatever the library caches, it has seen only the
    ops before it in that pass, never an earlier pass.  A cache miss in a
    sweep is a miss in every pass, a hit a hit in every pass.

    An op's time is the CPU time (user + system) of the process that
    runs it: the pass's interpreter, or the CLI subprocess.  On a shared
    2-vCPU VM the host took the virtual CPUs away for about 13% of the
    ticks (steal in /proc/stat), in bursts: one sample of a fixed loop
    read 0.295 s wall and 0.186 s CPU.  CPU time leaves those bursts out,
    and is the op's wall time on an idle machine, since every op is single-threaded and
    its file reads and writes stay in the page cache.  Every op time of
    every pass is kept: p50/p90 are taken over all of them, and ops_per_s
    is the run's answers over the run's summed op time, so the slower
    drift of the host's speed is averaged over the run.  A per-op best
    across passes does not settle: the giants p50 of the bests fell from
    19 ms after one pass to 10.4 ms after 25.

    setup_s is the median CPU time of `import chebknot` in fresh
    interpreters, SETUP_BEFORE before the first pass and one after every
    pass.
    """
    deadline = perf_counter() + seconds
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    notes = []
    setup = setup_samples(SETUP_BEFORE)
    if workload == "cli":
        # Checked and printed, but no bounded metric: one 400x400 atlas
        # holds 38,202 records in memory, and its time swung by a third
        # between runs on a loaded machine.
        notes.append(f"atlas 400x400 subprocess: {_atlas_run(tally):.3f} s (not a bounded metric)")
        commands = _cli_commands(seed)

        def run_pass(k: int) -> dict:
            return _cli_pass(commands)
    else:
        def run_pass(k: int) -> dict:
            return _fresh_pass(workload, seed, k)
    passes: list[dict] = []
    ms: list[float] = []
    started = perf_counter()
    while len(passes) < MIN_PASSES or (
            perf_counter() + (perf_counter() - started) / len(passes) <= deadline):
        p = run_pass(len(passes))
        ns = p.pop("ns")
        ms += [t / 1e6 for t in ns if t is not None]
        tally.merge(Tally.from_json(p.pop("tally")))
        passes.append(p)
        setup += setup_samples(1)

    busy = sum(ms) / 1e3
    answered = sum(p["answered"] for p in passes)
    metrics = {
        "ops_per_s": answered / busy if busy else 0.0,
        "p50_ms": median(ms),
        "p90_ms": quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else median(ms),
        "setup_s": median(setup),
        "peak_rss_mb": (_rss_mb(resource.RUSAGE_CHILDREN) if workload == "cli"
                        else max(p["rss_mb"] for p in passes)),
    }
    props = {**passes[0]["properties"], **_outcome_properties(tally)}
    if "certified" in passes[0]:
        props["certified_per_s"] = _certified_per_s(sum(p["certified"] for p in passes),
                                                    sum(p["certify_ns"] for p in passes))
    where = "" if workload == "cli" else ", each in a fresh interpreter"
    notes.append(f"ops: {len(passes)} passes over the same {len(ns)} ops{where}; "
                 f"p50/p90 over all {len(ms)} op times; setup_s is the median of {len(setup)} imports")
    if workload == "harmonic":
        notes.append(f"oracle: {passes[0]['oracle_checked']} classify answers "
                     "checked against recover_knot(measure_crossings(...))")
    return Result(tally, metrics, props, notes)


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------


class _TracedKnots:
    """Knot ops in a traced run.

    Each op first makes the two calls the untraced run times, then drives
    the public stage functions one call at a time under a "chain" span.
    residual: those two calls minus the chain's stage spans, per op.
    overhead: the share of the chain span its child spans do not cover,
    i.e. the cost of recording spans.
    """

    def __init__(self, tr: Tracer, tally: Tally) -> None:
        self.tr = tr
        self.tally = tally
        self.residual_ns: list[int] = []
        self.chain_ns = 0
        self.child_ns = 0
        self.certified = 0
        self.certify_ns = 0
        self.bs: dict = {}
        self.degrees: dict = {}

    def run(self, op: int, alpha: int, beta: int, n: int) -> None:
        tr, tally = self.tr, self.tally
        res = _knot_op(tally, alpha, beta, n, tr, op)
        if res is None:
            return
        construct_ns, certify_ns, p, constructed, certified = res
        r = Fraction(alpha, beta)
        measured = None
        chain = tr.start("chain", op)
        cid = chain[0]
        mark = len(tr.spans)
        try:
            tr.call("contfrac.regular_expansion", op, cid, regular_expansion, r)
            md = tr.call("diagram.minimal_diagram", op, cid, minimal_diagram, r)
            tr.call("diagram.enumerate_crossings", op, cid, enumerate_crossings, 3, md.b)
            g = tr.call("heights.gauss_sequence", op, cid, gauss_sequence, md.form)
            amph = (beta * beta + 1) % alpha == 0
            h = tr.call("heights.build_height", op, cid, build_height, g, amph)
            sample = tr.call("oracle.measure_crossings", op, cid, measure_crossings, 3, md.b, h)
            k = tr.call("oracle.recover_knot", op, cid, recover_knot, sample)
            e = tr.call("bridge.canonicalize", op, cid, canonicalize, alpha, beta)
            measured = ((k.alpha, k.beta, k.mirror), (e.alpha, e.beta, e.mirror))
        except AmbiguousCrossing:
            pass  # the refusal _knot_op met and recorded
        except Exception as exc:  # op boundary
            tally.unexpected(f"{alpha}/{beta} stage chain", exc)
            return
        chain_ns = tr.end(chain)
        stage_ns = probe_ns = 0
        for s in tr.spans[mark:]:
            if s[3] in CHAIN_STAGES:
                stage_ns += s[5] - s[4]
            elif s[3] in CHAIN_PROBES:
                probe_ns += s[5] - s[4]
        self.residual_ns.append(construct_ns + certify_ns - stage_ns)
        self.chain_ns += chain_ns
        self.child_ns += stage_ns + probe_ns
        self.certify_ns += certify_ns
        self.certified += certified
        if constructed and measured is not None:
            bad = checks.same_knot(measured[0], measured[1], False)
            if bad:
                tally.wrong(f"{alpha}/{beta} stage chain", bad)
        self.bs[(alpha, beta)] = p.b
        self.degrees[(alpha, beta)] = p.height.degree


def _traced_classify(tr: Tracer, tally: Tally, op: int, b: int, c: int, large: bool,
                     log: HarmonicLog) -> None:
    res = _classify_op(tally, b, c, large, tr, op)
    if res is None:
        return
    outcome = res[0]
    if outcome is not UNKNOT and not isinstance(outcome, ChebknotError):
        lam = (2 * outcome.b_prime - outcome.c_prime) // 3
        try:
            tr.call("harmonic.conway_form", op, 0, harmonic_conway, outcome.b_prime, lam)
        except Exception as exc:  # op boundary
            tally.unexpected(f"harmonic_conway({outcome.b_prime}, {lam})", exc)
    log.record(b, c, large, outcome)


def _traced_cli(tr: Tracer, tally: Tally, op: int, args: list[str]) -> None:
    tally.attempted += 1
    try:
        code, out, err = tr.call(f"cli.main.{args[0]}", op, 0, _cli_in_process, args)
    except Exception as exc:  # op boundary
        tally.unexpected(" ".join(args), exc)
        return
    bad = _check_cli(args, code, out, err)
    if bad:
        tally.wrong(" ".join(args[:-2]), bad)


def _fixed_probes(tr: Tracer, tally: Tally, op: int) -> dict:
    """Probes every traced run makes, whatever its workload."""
    giant = Fraction(*inputs.GIANT_FIXED)
    n = inputs.crossing_number(*inputs.GIANT_FIXED)
    for _ in range(3):
        tally.attempted += 1
        p = tr.call("heights.parametrization_2001_1", op, 0, parametrization, giant)
        bad = checks.construction(n, p.b, p.height.degree, p.crossing_number)
        if bad:
            tally.wrong("2001/1", bad)
    forms = {"small": minimal_diagram(Fraction(9, 2)).form,
             "large": minimal_diagram(Fraction(*SVG_LARGE)).form}
    for size, form in forms.items():
        for _ in range(3):
            tally.attempted += 1
            svg = tr.call(f"svg.render_diagram_svg.{size}", op, 0, render_diagram_svg, form)
            if not svg.startswith("<svg"):
                tally.wrong(f"render_diagram_svg({size})", "output is not an SVG document")

    tally.attempted += 1
    span = tr.start("cli.atlas.classify", op)
    knots = sum(1 for b, c in inputs.harmonic_grid() if _classify_outcome(b, c) is not UNKNOT)
    tr.end(span)
    if knots != checks.ATLAS_RECORDS:
        tally.wrong("atlas classify", f"{knots} knots, expected {checks.ATLAS_RECORDS}")

    path = OUT / "atlas-traced.ndjson"
    tally.attempted += 1
    code, out, err = tr.call("cli.atlas.main", op, 0, _cli_in_process,
                             ATLAS_ARGS + ["--out", str(path), "--format", "json"])
    bad = _check_atlas(code, out, err, path)
    if bad:
        tally.wrong("atlas 400x400", bad)
    path.unlink(missing_ok=True)

    starts = []
    for _ in range(START_REPEATS):
        t0 = perf_counter()
        _python(["-c", "pass"])
        starts.append((perf_counter() - t0) * 1e3)
    imports = [_timed_import("chebknot.cli") * 1e3 for _ in range(START_REPEATS)]
    return {"cli.python_start_ms": median(starts), "cli.import_ms": median(imports)}


def loc_counts() -> dict:
    """Line counts of the package's modules; new modules land in loc.other."""
    pkg = SRC / "chebknot"
    lines = {f.stem: len(f.read_text(encoding="utf-8").splitlines())
             for f in pkg.glob("*.py")}
    total = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in pkg.rglob("*.py"))
    out = {f"loc.{m}": lines.get(m, 0) for m in MODULES}
    out["loc.other"] = total - sum(out.values())
    out["loc.total"] = total
    return out


def _stream(make, seed: int, deadline: float):
    """Items of passes 0, 1, ... of make(seed, pass) until the deadline.

    Pass 0 always completes, so every workload input is traced at least
    once; later passes draw fresh inputs, as the untraced passes do.
    """
    for k in itertools.count():
        for item in make(seed, k):
            if k and perf_counter() >= deadline:
                return
            yield item


def traced(workload: str, seed: int, seconds: float) -> Result:
    """Per-layer run: the workload's own inputs through spans, then probes.

    All passes run in this one interpreter, so unlike the untraced run a
    library cache would outlive a pass here; the per-layer metrics carry
    no bound.  Layers the workload does not reach are timed on small
    seeded probes (200 census knots, 1,010 harmonic specs, the 12 CLI
    commands), so every per-layer metric is measured in every traced run.
    """
    OUT.mkdir(exist_ok=True)
    tr = Tracer()
    own, probe = Tally(), Tally()
    ops = itertools.count(1)
    deadline = perf_counter() + seconds
    is_knots = workload in ("census", "giants")
    knots = _TracedKnots(tr, own if is_knots else probe)
    log = HarmonicLog(seed)
    commands = _cli_commands(seed)

    if is_knots:
        make = inputs.census_order if workload == "census" else inputs.giants
        for alpha, beta, n, *_ in _stream(make, seed, deadline):
            knots.run(next(ops), alpha, beta, n)
        ns = [k[2] for k in make(seed)]
        chain_source = workload
    else:
        pool = inputs.census_order(seed)[:PROBE_KNOTS]
        chain_source = f"census probe of {PROBE_KNOTS}"
        if workload == "harmonic":
            for b, c, large in _stream(inputs.harmonic_stream, seed, deadline):
                _traced_classify(tr, own, next(ops), b, c, large, log)
        else:
            for args in _stream(_cli_commands, seed, deadline):
                _traced_cli(tr, own, next(ops), args)
        for alpha, beta, n in pool:
            knots.run(next(ops), alpha, beta, n)
    if workload != "harmonic":
        stream = inputs.harmonic_stream(seed)
        grid = [e for e in stream if not e[2]][:PROBE_GRID]
        tail = [e for e in stream if e[2]][:PROBE_LARGE_C]
        for b, c, large in grid + tail:
            _traced_classify(tr, probe, next(ops), b, c, large, log)
    if workload != "cli":
        for args in commands:
            _traced_cli(tr, probe, next(ops), args)
    log.check(own if workload == "harmonic" else probe)
    fixed = _fixed_probes(tr, probe, next(ops))
    tr.write(OUT / f"spans-{workload}.tsv")

    if workload == "harmonic":
        ns = log.crossing_numbers()
    elif workload == "cli":
        ns = [inputs.crossing_number(*map(int, a[1].split("/"))) for a in commands if "/" in a[1]]

    metrics: dict = {}
    durations = tr.durations()
    for name in SPANS:
        d = durations.get(name, [])
        metrics[f"{name}.calls"] = len(d)
        metrics[f"{name}.total_ms"] = sum(d) / 1e6
        metrics[f"{name}.p50_us"] = median(d) / 1e3
    both = Tally()
    both.merge(own)
    both.merge(probe)
    metrics.update(fixed)
    metrics.update(_knot_properties(knots.bs, knots.degrees))
    metrics.update(log.properties())
    metrics.update(_n_shares(ns))
    metrics.update(_outcome_properties(both))
    metrics["fail_ratio"] = own.fail_ratio()  # the workload's own ops, not the probes
    metrics["certified_per_s"] = _certified_per_s(knots.certified, knots.certify_ns)
    metrics["trace.residual_us"] = median(knots.residual_ns) / 1e3
    metrics["trace.overhead_ratio"] = (knots.chain_ns - knots.child_ns) / max(1, knots.child_ns)
    metrics.update(loc_counts())

    notes = _baseline_rows(metrics, chain_source)
    return Result(both, metrics, {}, notes)


# ROADMAP aim-1 baseline (2 cores, Python 3.11, census of 1,364 knots).
ROADMAP_BASELINE = {
    "regular_expansion": "6 us/knot",
    "minimal_diagram": "26 us/knot",
    "parametrization": "145 us/knot",
    "verify_parametrization": "176 us/knot",
    "parametrization 2001/1": "18 ms",
    "atlas 400x400": "3.3 s for 38,202 records",
}


def _baseline_rows(m: dict, source: str) -> list[str]:
    def per_call_us(span: str) -> float:
        return m[f"{span}.total_ms"] * 1e3 / max(1, m[f"{span}.calls"])

    rows = {
        "regular_expansion": f"{per_call_us('contfrac.regular_expansion'):.1f} us/knot",
        "minimal_diagram": f"{per_call_us('diagram.minimal_diagram'):.1f} us/knot",
        "parametrization": f"{per_call_us('heights.parametrization'):.1f} us/knot",
        "verify_parametrization": f"{per_call_us('oracle.verify_parametrization'):.1f} us/knot",
        "parametrization 2001/1": f"{m['heights.parametrization_2001_1.p50_us'] / 1e3:.1f} ms",
        "atlas 400x400": f"{m['cli.atlas.main.total_ms'] / 1e3:.2f} s for {checks.ATLAS_RECORDS:,} records",
    }
    out = [f"baseline rows (knot stages over: {source}; ROADMAP value in brackets)"]
    out += [f"baseline {stage:<24} {value:<28} [{ROADMAP_BASELINE[stage]}]"
            for stage, value in rows.items()]
    return out


if __name__ == "__main__":
    print(json.dumps(library_pass(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))))
