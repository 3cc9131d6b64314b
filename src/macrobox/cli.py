"""Command-line front end.

Builds a model from a box spec, runs one operation, and emits a
machine-readable report.  Output ordering is deterministic (lexicographic
over settings and outcomes, +1 before -1) so identical inputs give
byte-identical reports.

Exit codes: 0 success, 1 domain or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field
from itertools import product

from .boxes import (
    ALICE,
    BOB,
    OUTCOMES,
    PairBox,
    as_rational,
    canonical_json,
    chsh_value,
    make_deterministic_box,
    make_isotropic_box,
    make_pr_box,
    outcome_from_symbol,
    pair_correlation,
    parse_json,
    rational_to_str,
    validate_pairbox,
)
from .ensemble import (
    EnsembleModel,
    ExplicitJoint,
    IndependentPairs,
    check_no_signalling,
    explicit_joint_from_data,
    independent_pairs,
)
from .errors import DomainError, MacroboxError
from .macro import (
    gisin_matrix,
    macro_average,
    macro_correlation,
    macro_distribution,
    macro_distribution_bruteforce,
    macro_joint_second_moment,
    macro_local_second_moment,
    macro_moment_general,
    moment_report,
    rohrlich_conditional_variance,
)
from .symmetry import (
    SymmetricJPD,
    effective_correlator,
    effective_pair,
    effective_quad,
    format_event,
    jpd_averages,
    jpd_fluctuations,
    jpd_general,
    jpd_marginal,
    jpd_validity,
    pr_averages_jpd_closed_form,
)

RENDER_FORMATS = ("text", "json", "csv")


@dataclass
class RunConfig:
    """Validated invocation: box source, pair count, command and parameters."""

    command: str
    box_spec: str
    n: int
    fmt: str
    out: str | None
    params: dict = field(default_factory=dict)
    box: PairBox | None = None
    joint: ExplicitJoint | None = None


def _load_box_spec(spec: str, parser: argparse.ArgumentParser):
    """Resolve a --box value into a PairBox or an ExplicitJoint model."""
    if spec == "pr":
        return make_pr_box(), None
    if spec.startswith("isotropic:"):
        try:
            visibility = as_rational(spec.split(":", 1)[1])
            return make_isotropic_box(visibility), None
        except (DomainError, ValueError):
            parser.error(f"malformed isotropic box spec {spec!r}: expected isotropic:p/q")
    if spec.startswith("det:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 4:
            parser.error(f"malformed deterministic box spec {spec!r}: expected det:x0,x1,y0,y1")
        try:
            values = [outcome_from_symbol(p) for p in parts]
        except DomainError:
            parser.error(f"malformed deterministic box spec {spec!r}: outcomes are +1/-1")
        return make_deterministic_box(*values), None
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            parser.error(f"cannot read box file {path}: {getattr(exc, 'strerror', None) or exc}")
        try:
            return parse_json(text, "box", _box_or_joint)
        except MacroboxError as exc:
            parser.error(f"box file {path}: {exc}")
    parser.error(f"unknown box spec {spec!r}: expected pr | isotropic:E | "
                 f"det:x0,x1,y0,y1 | file:path")


def _box_or_joint(data) -> tuple:
    """``(box, None)`` or ``(None, joint model)`` of a decoded box file: an
    object with ``"entries"`` is a joint table, anything else a pair box."""
    if isinstance(data, dict) and "entries" in data:
        return None, explicit_joint_from_data(data)
    return PairBox.from_data(data), None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macrobox",
        description="Exact simulation of collective measurements on ensembles "
                    "of no-signalling box pairs.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--box", required=True,
                        help="pr | isotropic:E | det:x0,x1,y0,y1 | file:path")
    common.add_argument("--n", type=int, default=1,
                        help="number of pairs (default 1)")
    common.add_argument("--format", dest="fmt", choices=RENDER_FORMATS,
                        default="text", help="output format (default text)")
    common.add_argument("--out", default=None, help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("box", parents=[common],
                   help="print the pair box table, correlators and validation")

    effective = sub.add_parser("effective", parents=[common],
                               help="effective single-pair or two-pair distribution")
    effective.add_argument("--kind", choices=("pair", "quad"), default="pair")

    jpd = sub.add_parser("jpd", parents=[common],
                         help="symmetric joint probability distribution")
    jpd.add_argument("--kind", choices=("averages", "fluctuations", "general"),
                     default="averages")
    jpd.add_argument("--copies", type=int, default=None,
                     help="slot copies per setting (kind=general only, default 1)")

    moments = sub.add_parser("moments", parents=[common],
                             help="macroscopic moment report, or one k-th moment")
    moments.add_argument("--i", type=int, default=0, help="Alice setting (default 0)")
    moments.add_argument("--j", type=int, default=0, help="Bob setting (default 0)")
    moments.add_argument("--k", type=int, default=None,
                         help="if given, print only <(A_i B_j)^k>")

    distribution = sub.add_parser("distribution", parents=[common],
                                  help="exact distribution of (A_i, B_j): packed "
                                       "integer powers of the pair's law for pair "
                                       "boxes, support enumeration for joint tables")
    distribution.add_argument("--i", type=int, default=0)
    distribution.add_argument("--j", type=int, default=0)

    rohrlich = sub.add_parser("rohrlich", parents=[common],
                              help="<(B0+B1)^2> under the joint value assignment")
    rohrlich.add_argument("--alice-setting", type=int, required=True)

    sub.add_parser("gisin", parents=[common],
                   help="correlation matrix of (A0, A1, B0, B1) and its eigenvalues")

    sub.add_parser("verify", parents=[common],
                   help="run every consistency check for one model")
    return parser


def parse_args(argv) -> RunConfig:
    """Parse and validate; exits with code 2 on any usage error."""
    parser = build_parser()
    namespace = parser.parse_args(argv)
    if namespace.n < 1:
        parser.error(f"--n must be at least 1, got {namespace.n}")
    if getattr(namespace, "k", None) is not None and namespace.k < 0:
        parser.error(f"--k must be at least 0, got {namespace.k}")
    if namespace.command == "jpd":
        if namespace.copies is None:
            namespace.copies = 1
        elif namespace.kind != "general":
            parser.error(f"--copies is only available for --kind general, not {namespace.kind}")
        elif namespace.copies < 1:
            parser.error(f"--copies must be at least 1, got {namespace.copies}")
    box, joint = _load_box_spec(namespace.box, parser)
    if joint is not None and namespace.n not in (1, joint.n):
        parser.error(f"--n {namespace.n} conflicts with the joint table's n={joint.n}")
    n = joint.n if joint is not None else namespace.n
    if namespace.fmt == "csv" and namespace.command != "distribution":
        parser.error("--format csv is only available for the distribution command")
    params = {}
    for key in ("kind", "copies", "i", "j", "k", "alice_setting"):
        if hasattr(namespace, key):
            params[key] = getattr(namespace, key)
    return RunConfig(command=namespace.command, box_spec=namespace.box, n=n,
                     fmt=namespace.fmt, out=namespace.out, params=params,
                     box=box, joint=joint)


def _build_model(config: RunConfig) -> EnsembleModel:
    if config.joint is not None:
        return config.joint
    return independent_pairs(config.box, config.n)


def _require_pair_box(config: RunConfig) -> PairBox:
    if config.box is None:
        raise DomainError("this command needs a pair box spec, not a joint table")
    return config.box


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

def _render_pair_box(box: PairBox, payload: dict, heading: str) -> list:
    """Text lines for a pair box: the table, its correlations and CHSH value."""
    lines = [heading]
    for i in range(box.s_a):
        for j in range(box.s_b):
            cells = " ".join(
                f"{format_event((x,), (y,))}={rational_to_str(box.prob(i, j, x, y))}"
                for x, y in product(OUTCOMES, repeat=2))
            lines.append(f"settings ({i},{j}): {cells}")
    correlations = " ".join(
        f"<a{i} b{j}>={payload['correlations'][f'{i},{j}']}"
        for i in range(box.s_a) for j in range(box.s_b))
    lines.append(f"correlations: {correlations}")
    if "chsh" in payload:
        lines.append(f"chsh: {payload['chsh']}")
    return lines


def _box_payload(box: PairBox) -> dict:
    report = validate_pairbox(box)
    payload = {
        "s_a": box.s_a,
        "s_b": box.s_b,
        "table": [[i, j, x, y, rational_to_str(p)] for i, j, x, y, p in box.cells()],
        "correlations": {
            f"{i},{j}": rational_to_str(pair_correlation(box, i, j))
            for i in range(box.s_a) for j in range(box.s_b)
        },
        "valid": report.ok,
        "violations": [str(v) for v in report.violations],
    }
    if box.s_a == 2 and box.s_b == 2:
        payload["chsh"] = rational_to_str(chsh_value(box))
    return payload


def run_box(config: RunConfig) -> str:
    box = _require_pair_box(config)
    payload = _box_payload(box)
    if config.fmt == "json":
        return canonical_json(payload)
    lines = _render_pair_box(box, payload, f"pair box (s_a={box.s_a}, s_b={box.s_b})")
    lines.append(f"validation: {'ok' if payload['valid'] else '; '.join(payload['violations'])}")
    return "\n".join(lines) + "\n"


def run_effective(config: RunConfig) -> str:
    model = _build_model(config)
    if config.params["kind"] == "pair":
        box = effective_pair(model)
        payload = _box_payload(box)
        payload["n"] = model.n
        if config.fmt == "json":
            return canonical_json(payload)
        lines = _render_pair_box(box, payload, f"effective pair distribution (n={model.n})")
        return "\n".join(lines) + "\n"
    quad = effective_quad(model)
    blocks = [(i, j, [(format_event((x, xp), (y, yp)),
                       rational_to_str(quad.prob(i, j, x, xp, y, yp)))
                      for x, xp, y, yp in product(OUTCOMES, repeat=4)],
               rational_to_str(effective_correlator(model, i, j, 2, 2)))
              for i in range(quad.s_a) for j in range(quad.s_b)]
    if config.fmt == "json":
        return canonical_json({"n": model.n, "settings": [
            {"alice_setting": i, "bob_setting": j,
             "entries": [{"outcomes": event, "p": p} for event, p in entries],
             "quad_correlator": correlator}
            for i, j, entries, correlator in blocks]})
    lines = [f"effective two-pair distribution (n={model.n})"]
    for i, j, entries, correlator in blocks:
        lines.append(f"settings ({i},{j}):")
        lines.extend(f"  {event} {p}" for event, p in entries)
        lines.append(f"  <a a' b b'> = {correlator}")
    return "\n".join(lines) + "\n"


def _render_jpd_text(jpd: SymmetricJPD, heading: str) -> str:
    lines = [heading]
    schema_a = ",".join(f"{s}x{c}" for s, c in jpd.schema_a)
    schema_b = ",".join(f"{s}x{c}" for s, c in jpd.schema_b)
    lines.append(f"slots: alice [{schema_a}] bob [{schema_b}] (setting x copies)")
    for a_out, b_out, p in jpd.items():
        lines.append(f"{format_event(a_out, b_out)} {rational_to_str(p)}")
    lines.append(f"sum: {rational_to_str(jpd.total())}")
    lines.append(f"valid: {'true' if jpd.valid else 'false'}")
    return "\n".join(lines) + "\n"


def run_jpd(config: RunConfig) -> str:
    model = _build_model(config)
    kind = config.params["kind"]
    if kind == "averages":
        jpd = jpd_averages(model)
    elif kind == "fluctuations":
        jpd = jpd_fluctuations(model)
    else:
        jpd = jpd_general(model, config.params["copies"])
    if config.fmt == "json":
        return jpd.to_json()
    return _render_jpd_text(jpd, f"symmetric jpd (kind={kind}, n={model.n})")


def run_moments(config: RunConfig) -> str:
    model = _build_model(config)
    i, j = config.params["i"], config.params["j"]
    order = config.params.get("k")
    if order is not None:
        value = macro_moment_general(model, i, j, order)
        if config.fmt == "json":
            return canonical_json({
                "n": model.n, "alice_setting": i, "bob_setting": j,
                "order": order, "moment": rational_to_str(value)})
        return rational_to_str(value) + "\n"
    report = moment_report(model, i, j)
    if config.fmt == "json":
        return report.to_json()
    lines = [
        f"moment report (n={report.n}, i={i}, j={j})",
        f"<A{i}> = {rational_to_str(report.average_a)} [{report.paths['average_a']}]",
        f"<B{j}> = {rational_to_str(report.average_b)} [{report.paths['average_b']}]",
        f"<A{i} B{j}> = {rational_to_str(report.correlation)} [{report.paths['correlation']}]",
        f"<A{i}^2> = {rational_to_str(report.second_moment_a)} [{report.paths['second_moment_a']}]",
        f"<B{j}^2> = {rational_to_str(report.second_moment_b)} [{report.paths['second_moment_b']}]",
        f"<(A{i} B{j})^2> = {rational_to_str(report.joint_second_moment)} "
        f"[{report.paths['joint_second_moment']}]",
        f"var(A{i}) = {rational_to_str(report.variance_a)} "
        f"delta = {report.fluctuation_a:.12f}",
        f"var(B{j}) = {rational_to_str(report.variance_b)} "
        f"delta = {report.fluctuation_b:.12f}",
        f"var(A{i} B{j}) = {rational_to_str(report.joint_variance)} "
        f"delta = {report.joint_fluctuation:.12f}",
    ]
    return "\n".join(lines) + "\n"


def run_distribution(config: RunConfig) -> str:
    model = _build_model(config)
    i, j = config.params["i"], config.params["j"]
    dist = macro_distribution(model, i, j)
    if config.fmt == "csv":
        return dist.to_csv()
    if config.fmt == "json":
        return dist.to_json()
    lines = [f"macro distribution (n={dist.n}, i={i}, j={j})", "X Y p"]
    lines += [f"{x} {y} {rational_to_str(p)}" for x, y, p in dist.rows()]
    return "\n".join(lines) + "\n"


def run_rohrlich(config: RunConfig) -> str:
    model = _build_model(config)
    value = rohrlich_conditional_variance(model, config.params["alice_setting"])
    if config.fmt == "json":
        return canonical_json({
            "n": model.n,
            "alice_setting": config.params["alice_setting"],
            "conditional_second_moment": rational_to_str(value)})
    return rational_to_str(value) + "\n"


def run_gisin(config: RunConfig) -> str:
    model = _build_model(config)
    matrix = gisin_matrix(model)
    if config.fmt == "json":
        return matrix.to_json()
    lines = [f"correlation matrix (n={matrix.n})",
             "basis: " + " ".join(matrix.BASIS)]
    for label, row in zip(matrix.BASIS, matrix.entries):
        lines.append(f"{label}: " + " ".join(rational_to_str(v) for v in row))
    lines.append("eigenvalues: " + " ".join(f"{v:.12f}" for v in matrix.eigenvalues))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

#: Above this n, verify's oracle row does not run the 4^n enumeration of a
#: product model and checks the moment expansion against the packed law of
#: ``macro_distribution`` at orders 1 to 4.
VERIFY_EXHAUSTIVE_LIMIT = 6


class _Skip(Exception):
    """A verify row's precondition does not hold; the message is the SKIP detail."""


def _require_construction(model: EnsembleModel, copies: int = 1) -> None:
    """SKIP unless n >= copies * max(s_a, s_b): a symmetric JPD with
    ``copies`` slots per setting needs that many distinct pairs."""
    need = copies * max(model.s_a, model.s_b)
    if model.n < need:
        raise _Skip(f"construction needs n >= {need}")


def _validity_failure(verdict, prefix: str = "") -> str | None:
    return None if verdict.valid and verdict.total == 1 else f"{prefix}{verdict}"


def _verify_normalization(model: EnsembleModel) -> tuple:
    """Primary: the model's table.  Check: construction, which rejects a
    pair box that fails :func:`validate_pairbox` and a joint table with a
    setting block that does not sum to 1, so a built model always passes."""
    if isinstance(model, IndependentPairs):
        return None, "box table normalized for every setting pair"
    return None, "joint table normalized for every assignment"


def _verify_no_signalling(model: EnsembleModel) -> tuple:
    """Primary: :func:`check_no_signalling` (the box's rows for a product
    model, the swap scan over the table's stored blocks for a joint table).
    Check: its report holds no violation.  No precondition: neither route
    enumerates more than the model holds, so the row runs at every n."""
    report = check_no_signalling(model)
    return (None if report.ok else str(report.violations[0]),
            "all single-particle setting swaps agree")


def _verify_marginal_identities(model: EnsembleModel) -> tuple:
    """Primary: :func:`effective_pair`.  Check: the one-slot-per-side
    marginals of :func:`jpd_averages`.  On a pair box the two routes are
    independent down to their input: the inversion of the slot correlators
    over ``box.weights`` against the Fraction matching DP behind the JPD,
    which reads the box's Fraction cells.  On a joint table both are the
    generic enumeration over the model's memoised marginals.  Needs the
    averages construction."""
    _require_construction(model)
    jpd = jpd_averages(model)
    pair = effective_pair(model)
    failure = None
    for i, j in product(range(model.s_a), range(model.s_b)):
        for (x, y), p in jpd_marginal(jpd, [(ALICE, i, 0), (BOB, j, 0)]).items():
            if p != pair.prob(i, j, x, y):
                failure = f"mismatch at {(i, j, x, y, p, pair.prob(i, j, x, y))}"
    return failure, "averages-JPD marginals equal the effective pair distribution"


def _verify_path_agreement(model: EnsembleModel) -> tuple:
    """Primary: :func:`effective_correlator` behind the averages, second
    moments and correlations.  Check: an independent route, which each
    routine compares itself, raising on a disagreement.  For a product
    model the two are independent algorithms over one input,
    ``box.weights``: the closed form counts the matchings and reads the
    (i, j) row's (P, A, B), while the check runs the one matching sum,
    ``symmetry._matching_sum``, over signed row sums, an unmatched slot's
    from row (i, 0) or (0, j).  For a joint table the primary route sums
    the memoised marginals, and the check is the moment of the count law
    of :func:`macro_distribution_bruteforce`, a scan of the stored block
    that builds no marginal."""
    for i in range(model.s_a):
        macro_average(model, ALICE, i)
        macro_local_second_moment(model, ALICE, i)
    for j in range(model.s_b):
        macro_average(model, BOB, j)
        macro_local_second_moment(model, BOB, j)
    for i, j in product(range(model.s_a), range(model.s_b)):
        macro_correlation(model, i, j)
        macro_joint_second_moment(model, i, j)
    return None, "microscopic and effective routes agree"


def _verify_oracle(model: EnsembleModel) -> tuple:
    """Primary: :func:`macro_moment_general` and, for a product model,
    :func:`macro_distribution`.  Check: the enumeration of
    :func:`macro_distribution_bruteforce`, which for any other model is
    ``macro_distribution`` itself: its moments at k = 1, 2 and, for a
    product model, the full law.  A product model above
    VERIFY_EXHAUSTIVE_LIMIT would stream 4^n tuples, so there the
    expansion is checked against the packed law of ``macro_distribution``
    alone, at k = 1..4."""
    n = model.n
    product_model = isinstance(model, IndependentPairs)
    exhaustive = n <= VERIFY_EXHAUSTIVE_LIMIT or not product_model
    route, orders = ("enumeration", (1, 2)) if exhaustive else ("packed law", (1, 2, 3, 4))
    failure = None
    for i, j in product(range(model.s_a), range(model.s_b)):
        dist = (macro_distribution_bruteforce if exhaustive else macro_distribution)(model, i, j)
        if dist.total() != 1:
            failure = f"distribution at ({i},{j}) not normalized"
        if exhaustive and product_model:
            primary = macro_distribution(model, i, j)
            if primary != dist:
                failure = (f"distribution at ({i},{j}): primary "
                           f"route differs from enumeration")
        for order in orders:
            expansion = macro_moment_general(model, i, j, order)
            oracle = dist.joint_moment(order)
            if expansion != oracle:
                failure = (f"<(A{i} B{j})^{order}> expansion {expansion} "
                           f"!= {route} {oracle}")
    if exhaustive:
        return failure, "moment expansion matches brute-force enumeration (k=1,2)"
    return failure, (f"moment expansion matches the packed law (k=1..4); 4^n "
                     f"enumeration skipped for n={n} > {VERIFY_EXHAUSTIVE_LIMIT}")


def _verify_averages_validity(model: EnsembleModel) -> tuple:
    """Primary: :func:`jpd_averages`, or below its construction, for a box
    equal to the PR box (boxes compare by their integer form, so however its
    file spells the zero cells), :func:`pr_averages_jpd_closed_form`.
    Check: :func:`jpd_validity`, every entry nonnegative and the sum 1.  At
    and above the bound every entry is an average of products of
    nonnegative marginals, so there the check catches implementation faults
    only."""
    try:
        _require_construction(model)
    except _Skip:
        if not (isinstance(model, IndependentPairs) and model.box == make_pr_box()):
            raise
        verdict = jpd_validity(pr_averages_jpd_closed_form(model.n))
        return (_validity_failure(verdict, f"closed form at n={model.n}: "),
                "closed form nonnegative")
    return _validity_failure(jpd_validity(jpd_averages(model))), "all entries nonnegative, sum 1"


def _verify_fluctuations(model: EnsembleModel) -> tuple:
    """Primary: :func:`jpd_fluctuations`.  Checks: :func:`jpd_validity`, then
    its two-slots-per-side marginals against :func:`effective_quad`: on a
    pair box the matching DP against the inversion of the slot correlators,
    two independent routes; on a joint table two sums of the same marginals.
    Needs the two-copies construction, whose entries are nonnegative by
    construction, so the validity check catches implementation faults only."""
    _require_construction(model, copies=2)
    passed = "valid and reproduces the two-pair effective distribution"
    jpd = jpd_fluctuations(model)
    failure = _validity_failure(jpd_validity(jpd))
    if failure is not None:
        return failure, passed
    quad = effective_quad(model)
    for i, j in product(range(model.s_a), range(model.s_b)):
        dist = jpd_marginal(jpd, [(ALICE, i, 0), (ALICE, i, 1), (BOB, j, 0), (BOB, j, 1)])
        for (x, xp, y, yp), p in dist.items():
            if p != quad.prob(i, j, x, xp, y, yp):
                failure = f"marginal mismatch at {(i, j, x, xp, y, yp)}"
    return failure, passed


#: verify's rows in output order.  Each check takes the model and returns
#: (failure detail or None, PASS detail), raises _Skip, or raises
#: MacroboxError (a FAIL).  The checks read library routes as this module's
#: globals at call time.
_VERIFY_ROWS = (
    ("normalization", _verify_normalization),
    ("no-signalling", _verify_no_signalling),
    ("marginal-identities", _verify_marginal_identities),
    ("path-agreement", _verify_path_agreement),
    ("oracle-agreement", _verify_oracle),
    ("averages-jpd-validity", _verify_averages_validity),
    ("fluctuations-jpd", _verify_fluctuations),
)


def _verify_checks(config: RunConfig):
    """Yield (status, name, detail) rows; status is PASS, FAIL or SKIP."""
    model = _build_model(config)
    for name, check in _VERIFY_ROWS:
        try:
            failure, passed = check(model)
        except _Skip as skip:
            yield "SKIP", name, str(skip)
        except MacroboxError as exc:
            yield "FAIL", name, str(exc)
        else:
            yield ("PASS", name, passed) if failure is None else ("FAIL", name, failure)


def run_verify(config: RunConfig) -> tuple:
    rows = list(_verify_checks(config))
    failed = [row for row in rows if row[0] == "FAIL"]
    if config.fmt == "json":
        payload = {
            "n": config.n,
            "box": config.box_spec,
            "checks": [{"name": name, "status": status, "detail": detail}
                       for status, name, detail in rows],
            "ok": not failed,
        }
        return canonical_json(payload), (0 if not failed else 1)
    lines = [f"{status} {name}: {detail}" for status, name, detail in rows]
    skipped = sum(1 for row in rows if row[0] == "SKIP")
    lines.append(f"result: {'PASS' if not failed else 'FAIL'} "
                 f"({len(rows)} checks, {len(failed)} failed, {skipped} skipped)")
    return "\n".join(lines) + "\n", (0 if not failed else 1)


_RUNNERS = {
    "box": run_box,
    "effective": run_effective,
    "jpd": run_jpd,
    "moments": run_moments,
    "distribution": run_distribution,
    "rohrlich": run_rohrlich,
    "gisin": run_gisin,
}


def execute(config: RunConfig) -> tuple:
    """Run the configured command; returns (report text, exit code)."""
    if config.command == "verify":
        return run_verify(config)
    runner = _RUNNERS[config.command]
    return runner(config), 0


def main(argv=None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report, code = execute(config)
    except MacroboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(report)
        except OSError as exc:
            print(f"error: cannot write {config.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        return code
    try:
        sys.stdout.write(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the consumer (e.g. `| head`) closed the pipe; not our error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
