"""Seeded job streams for the three benchmark workloads.

Every workload has a fixed shape: the commands, pair counts N, box kinds
and output formats sit at fixed positions, so the cost of a job list
barely depends on the seed.  The seed draws the concrete boxes (isotropic
visibilities, rational mixtures of the 16 local vertices and the PR box,
deterministic vertices, PR relabelings), the measurement settings and the
job order.  No two jobs of one list share (command, N, box contents,
parameters), so a cache that spans jobs cannot show a gain that a CLI user
running one command would never see.

The benchmark keeps its own copy of every box and joint table (plain dicts
of Fractions) for the output checker; the program only receives argv and
the JSON files written from those tables.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

OUTCOMES = (1, -1)
CELLS = tuple((i, j, x, y) for i in (0, 1) for j in (0, 1)
              for x in OUTCOMES for y in OUTCOMES)

WORKLOADS = ("jpd-symmetrize", "verify-oracle", "moments-sweep")

# Exact arithmetic costs grow with the size of the rationals, so the seed
# varies the boxes but not their denominators: isotropic visibilities are
# k/7 and mixture weights are MIX_UNITS units spread over the components.
ISO_DENOMINATOR = 7
MIX_UNITS = 24


@dataclass
class Job:
    """One CLI invocation plus what the checker needs to judge its output."""

    argv: tuple
    command: str
    n: int
    params: dict
    fmt: str
    box: dict | None = None      # (i, j, x, y) -> Fraction, product models
    box_kind: str = ""           # pr | iso | mix | det | prl | joint
    joint: dict | None = None    # (settings_a, settings_b) -> {(oa, ob): p}
    expect_code: int = 0


@dataclass
class Plan:
    """A workload's job list and the input files it needs, by file name."""

    jobs: list = field(default_factory=list)
    files: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Boxes and joint tables, built here independently of the program
# ---------------------------------------------------------------------------

def pr_box() -> dict:
    return {(i, j, x, y): Fraction(abs(x + (-1) ** (i * j) * y), 4)
            for i, j, x, y in CELLS}


def isotropic_box(e: Fraction) -> dict:
    return {(i, j, x, y): (1 + e * (-1) ** (i * j) * x * y) / 4
            for i, j, x, y in CELLS}


def det_box(x0: int, x1: int, y0: int, y1: int) -> dict:
    xs, ys = (x0, x1), (y0, y1)
    return {(i, j, x, y): Fraction(int(x == xs[i] and y == ys[j]))
            for i, j, x, y in CELLS}


def pr_relabeled_box(a: int, b: int, c: int) -> dict:
    """PR box with settings and outcomes relabeled: x*y = (-1)^((i+a)(j+b)+c)."""
    return {(i, j, x, y): Fraction(int(x * y == (-1) ** (((i + a) % 2) * ((j + b) % 2) + c)), 2)
            for i, j, x, y in CELLS}


VERTICES = tuple(det_box(*v) for v in product(OUTCOMES, repeat=4))


def mixture_box(weights) -> dict:
    """Convex mixture of the 16 local vertices and the PR box."""
    components = VERTICES + (pr_box(),)
    total = sum(weights)
    return {cell: sum((Fraction(w, total) * c[cell] for w, c in zip(weights, components)),
                      Fraction(0))
            for cell in CELLS}


def product_joint(box: dict, n: int) -> dict:
    """Explicit joint table of n independent copies of ``box`` (zeros omitted)."""
    table = {}
    for sa in product((0, 1), repeat=n):
        for sb in product((0, 1), repeat=n):
            block = {}
            for oa in product(OUTCOMES, repeat=n):
                for ob in product(OUTCOMES, repeat=n):
                    p = Fraction(1)
                    for k in range(n):
                        p *= box[(sa[k], sb[k], oa[k], ob[k])]
                    if p:
                        block[(oa, ob)] = p
            table[(sa, sb)] = block
    return table


def mix_joints(first: dict, second: dict, w: Fraction) -> dict:
    """w * first + (1 - w) * second: exchangeable and no-signalling, not a product."""
    table = {}
    for key in first:
        block = {}
        for outcomes in set(first[key]) | set(second[key]):
            p = w * first[key].get(outcomes, 0) + (1 - w) * second[key].get(outcomes, 0)
            if p:
                block[outcomes] = p
        table[key] = block
    return table


def single_pair_signalling_joint() -> dict:
    """n=1: Alice is uniform at Bob setting 0 and pinned to +1 at Bob setting 1."""
    half = Fraction(1, 2)
    correlated = {((1,), (1,)): half, ((-1,), (-1,)): half}
    pinned = {((1,), (1,)): half, ((1,), (-1,)): half}
    table = {}
    for i in (0, 1):
        table[((i,), (0,))] = dict(correlated)
        table[((i,), (1,))] = dict(pinned)
    return table


def cross_pair_signalling_joint() -> dict:
    """n=2: Alice particle 0's setting pins Bob particle 1's outcome to +1."""
    table = {}
    for sa in product((0, 1), repeat=2):
        for sb in product((0, 1), repeat=2):
            block = {}
            for oa in product(OUTCOMES, repeat=2):
                for ob in product(OUTCOMES, repeat=2):
                    if sa[0] == 0:
                        p = Fraction(1, 16)
                    else:
                        p = Fraction(1, 8) if ob[1] == 1 else Fraction(0)
                    if p:
                        block[(oa, ob)] = p
            table[(sa, sb)] = block
    return table


def _ratio(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def box_json(box: dict) -> str:
    rows = [[i, j, x, y, _ratio(box[(i, j, x, y)])] for i, j, x, y in CELLS]
    return json.dumps({"s_a": 2, "s_b": 2, "table": rows}, indent=2) + "\n"


def joint_json(table: dict, n: int) -> str:
    entries = []
    for (sa, sb), block in sorted(table.items()):
        for (oa, ob), p in sorted(block.items()):
            entries.append({"settings_a": list(sa), "settings_b": list(sb),
                            "outcomes_a": list(oa), "outcomes_b": list(ob),
                            "p": _ratio(p)})
    return json.dumps({"n": n, "s_a": 2, "s_b": 2, "entries": entries},
                      separators=(",", ":")) + "\n"


def _box_key(box: dict) -> tuple:
    return tuple(box[cell] for cell in CELLS)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

class _Generator:
    """Draws boxes from the seed, writes their files and enforces unique jobs."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.plan = Plan()
        self.seen = set()
        self.box_files = {}

    # --- box specs -------------------------------------------------------
    def draw(self, kind: str):
        """(argv box spec, box table) for a box kind, drawn from the seed.

        Boxes without a literal spec get spec None; they reach the program
        as pair-box JSON files (see ``file_box``).
        """
        rng = self.rng
        if kind == "pr":
            return "pr", pr_box()
        if kind == "iso":
            e = Fraction(rng.choice((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)), ISO_DENOMINATOR)
            return f"isotropic:{_ratio(e)}", isotropic_box(e)
        if kind == "det":
            values = [rng.choice(OUTCOMES) for _ in range(4)]
            spec = "det:" + ",".join("+" if v == 1 else "-" for v in values)
            return spec, det_box(*values)
        if kind == "prl":
            return None, pr_relabeled_box(rng.randint(0, 1), rng.randint(0, 1),
                                          rng.randint(0, 1))
        if kind == "mix":
            weights = [0] * (len(VERTICES) + 1)
            while sum(1 for w in weights if w) < 2:
                weights = [0] * (len(VERTICES) + 1)
                for _ in range(MIX_UNITS):
                    weights[rng.randrange(len(weights))] += 1
            return None, mixture_box(weights)
        raise ValueError(f"unknown box kind {kind!r}")

    def file_box(self, box: dict) -> str:
        key = _box_key(box)
        name = self.box_files.get(key)
        if name is None:
            name = f"box-{len(self.box_files):03d}.json"
            self.box_files[key] = name
            self.plan.files[name] = box_json(box)
        return f"file:{name}"

    def file_joint(self, stem: str, table: dict, n: int) -> str:
        name = f"joint-{stem}.json"
        self.plan.files[name] = joint_json(table, n)
        return f"file:{name}"

    # --- jobs ------------------------------------------------------------
    def _add(self, key, job: Job) -> None:
        self.seen.add(key)
        self.plan.jobs.append(job)

    def product_job(self, command: str, n: int, kind: str, fmt: str, params: dict,
                    flags=(), settings: bool = False):
        """Add a job on a product box of ``kind``; redraws until it is unique.

        With ``settings`` the Alice and Bob settings --i/--j are drawn too.
        """
        for _ in range(100):
            spec, box = self.draw(kind)
            job_params, job_flags = params, flags
            if settings:
                i, j = self.rng.randint(0, 1), self.rng.randint(0, 1)
                job_params = {**params, "i": i, "j": j}
                job_flags = ("--i", str(i), "--j", str(j), *flags)
            key = (command, n, _box_key(box), fmt, tuple(sorted(job_params.items())))
            if key in self.seen:
                continue
            argv = (command, "--box", spec or self.file_box(box), "--n", str(n), *job_flags,
                    "--format", fmt)
            self._add(key, Job(argv=argv, command=command, n=n, params=job_params, fmt=fmt,
                               box=box, box_kind=kind))
            return
        raise RuntimeError(f"cannot draw a unique {kind} job for {command} n={n}")

    def joint_job(self, command: str, n: int, spec: str, table: dict, fmt: str,
                  params: dict, flags=(), expect_code: int = 0):
        argv = (command, "--box", spec, *flags, "--format", fmt)
        key = (command, n, spec, fmt, tuple(sorted(params.items())))
        if key in self.seen:
            raise RuntimeError(f"duplicate joint job {argv}")
        self._add(key, Job(argv=argv, command=command, n=n, params=params, fmt=fmt,
                           box_kind="joint", joint=table, expect_code=expect_code))


def _cycle(values, count):
    return [values[k % len(values)] for k in range(count)]


def _fmts(count, formats=("text", "json")):
    return _cycle(formats, count)


def _jpd_symmetrize(b: _Generator) -> None:
    # Symmetrisation DP only: product boxes, no 4^N enumeration.  The
    # copies=3 general JPDs (>= a tenth of the jobs) form the slow tail.
    general = list(range(6, 17))
    kinds = ["pr", "pr", "iso", "mix", "pr", "mix", "iso", "mix", "pr", "mix", "mix"]
    for n, kind, fmt in zip(general, kinds, _fmts(len(general))):
        b.product_job("jpd", n, kind, fmt, {"kind": "general", "copies": 3},
                      ("--kind", "general", "--copies", "3"))
    # The class sizes put p50 inside the effective-quad jobs and p90 on the
    # fastest copies=3 jobs, so neither sits on a jump between classes.
    mixed = ["pr", "iso", "mix", "mix", "iso", "mix", "mix"]
    for n, kind, fmt in zip(range(4, 40, 2), _cycle(mixed, 18), _fmts(18)):
        b.product_job("jpd", n, kind, fmt, {"kind": "fluctuations"},
                      ("--kind", "fluctuations"))
    for n, kind, fmt in zip(range(2, 78, 2), _cycle(mixed, 38), _fmts(38, ("json", "text"))):
        b.product_job("jpd", n, kind, fmt, {"kind": "averages"}, ("--kind", "averages"))
    for n, kind, fmt in zip(range(3, 57, 2), _cycle(mixed, 27), _fmts(27)):
        b.product_job("effective", n, kind, fmt, {"kind": "quad"}, ("--kind", "quad"))
    gisin_n = [4, 6, 10, 16, 25, 28, 31, 34, 37, 40]
    for n, kind, fmt in zip(gisin_n, _cycle(mixed, 10), _fmts(10, ("json", "text"))):
        b.product_job("gisin", n, kind, fmt, {})


def _verify_oracle(b: _Generator) -> None:
    # Exhaustive enumeration: verify's swap scan and oracle, brute-force
    # distributions, the file loaders and the expected exit-1 path.
    rng = b.rng
    verify_kinds = {1: ["iso", "mix", "mix", "iso", "mix"],
                    2: ["pr", "iso", "mix", "mix", "iso", "mix", "mix", "mix",
                        "iso", "mix", "mix", "mix", "iso", "mix", "mix"],
                    3: ["pr", "iso", "mix", "mix", "iso", "mix", "mix", "mix"]}
    for n, kinds in verify_kinds.items():
        for kind, fmt in zip(kinds, _fmts(len(kinds))):
            b.product_job("verify", n, kind, fmt, {})
    for stem, n in (("a", 1), ("b", 1), ("c", 2), ("d", 2), ("e", 2), ("f", 3), ("g", 3),
                    ("h", 3)):
        first = b.draw("mix")[1]
        if stem in ("a", "c", "f"):
            table = product_joint(first, n)
        else:
            second = b.draw(rng.choice(("iso", "mix")))[1]
            w = Fraction(rng.randint(1, 7), 8)
            table = mix_joints(product_joint(first, n), product_joint(second, n), w)
        spec = b.file_joint(stem, table, n)
        b.joint_job("verify", n, spec, table, "json" if stem in "aceg" else "text", {})
        i, j = rng.randint(0, 1), rng.randint(0, 1)
        b.joint_job("distribution", n, spec, table, ("text", "json", "csv")[ord(stem) % 3],
                    {"i": i, "j": j}, ("--i", str(i), "--j", str(j)))
    for stem, n, table in (("signal-1", 1, single_pair_signalling_joint()),
                           ("signal-2", 2, cross_pair_signalling_joint())):
        spec = b.file_joint(stem, table, n)
        for fmt in ("text", "json"):
            b.joint_job("verify", n, spec, table, fmt, {}, expect_code=1)
    # Twenty N=5 distributions hold p50 inside one class of similar cost.
    dist_n = [1, 1, 2, 2, 2, 3, 3, 3, 3] + [4] * 12 + [5] * 20 + [6] * 8 + [7] * 6 + [8] * 3
    dist_kinds = _cycle(["mix", "iso", "pr", "mix", "mix", "iso"], len(dist_n))
    for n, kind, fmt in zip(dist_n, dist_kinds, _fmts(len(dist_n), ("text", "json", "csv"))):
        b.product_job("distribution", n, kind, fmt, {}, settings=True)


def _moments_sweep(b: _Generator) -> None:
    # Coincidence sums and thousands of marginal point queries: full
    # reports across the literal-loop limits (8 and 24), k-th moments at
    # large N, rohrlich, and the effective pair at large N.
    rng = b.rng
    kinds = ["mix", "iso", "mix", "pr"]
    report_n = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 23, 24, 25, 26,
                28, 30, 33, 36, 40, 44, 48, 52, 56, 60]
    for n, kind, fmt in zip(report_n, _cycle(kinds, len(report_n)), _fmts(len(report_n))):
        b.product_job("moments", n, kind, fmt, {"k": None}, settings=True)
    k_n = [int(round(9 * (1000 / 9) ** (t / 39))) for t in range(40)]
    for t, (n, kind) in enumerate(zip(k_n, _cycle(kinds, 40))):
        k = 3 + t % 8
        b.product_job("moments", n, kind, ("text", "json")[t // 8 % 2], {"k": k},
                      ("--k", str(k)), settings=True)
    rohrlich_kinds = ["pr", "prl", "det", "prl", "det", "pr", "prl", "det"] * 2
    for t, kind in enumerate(rohrlich_kinds):
        setting = rng.randint(0, 1)
        b.product_job("rohrlich", 5 + 7 * t, kind, _fmts(16)[t],
                      {"alice_setting": setting}, ("--alice-setting", str(setting)))
    for t, kind in enumerate(_cycle(kinds, 24)):
        b.product_job("effective", 100 + 37 * t, kind, _fmts(24)[t], {"kind": "pair"},
                      ("--kind", "pair"))


_SHAPES = {
    "jpd-symmetrize": _jpd_symmetrize,
    "verify-oracle": _verify_oracle,
    "moments-sweep": _moments_sweep,
}


def generate(workload: str, seed: int) -> Plan:
    """The job list and input files of ``workload`` for ``seed``."""
    if workload not in _SHAPES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    gen = _Generator(workload, seed)
    _SHAPES[workload](gen)
    gen.rng.shuffle(gen.plan.jobs)
    return gen.plan
