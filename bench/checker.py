"""Output checker: judges each job's exit code and output bytes.

Every expected value is computed here from the benchmark's own copy of the
box or joint table, by routes that share no code with the program:

- PR-box closed forms: the effective pair 1/4 + (|x + (-1)^(ij) y| - 1)/(4N),
  the averages-JPD high/low values, the two-pair class values and
  correlator 2/(N(N-1)), <A_i B_j> = N(-1)^(ij), <(A_i B_j)^2> = 3N^2 - 2N,
  rohrlich 4N at Alice setting 0 and 0 at setting 1, and the doubled
  eigenvalue N(1 - sqrt 2) to within 1e-9;
- product-model identities: p_eff = p/N + (1 - 1/N) p_A p_B,
  <A_i B_j> = N E_ij + N(N-1) a_i b_j, <A_i^2> = N + N(N-1) a_i^2, the
  two-pair distribution by explicit coincidence classes, and every JPD
  slot marginal;
- k-th moments <(A_i B_j)^k> by binomial convolution of the single-pair
  joint moments over N independent pairs, in exact integers modulo the
  Mersenne prime 2^127 - 1;
- brute-force distributions by a convolution over pairs (product boxes) or
  by summing the joint table (explicit tables);
- every JPD and distribution sums to 1, and verify exits 0 on valid models
  and 1 on the signalling tables.

``check`` returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import json
import math
import re
import traceback
from fractions import Fraction
from itertools import product

OUTCOMES = (1, -1)
ONE = Fraction(1)
ZERO = Fraction(0)
MODULUS = (1 << 127) - 1
EIGEN_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Box statistics
# ---------------------------------------------------------------------------

def p_alice(box, i, x):
    return sum((box[(i, 0, x, y)] for y in OUTCOMES), ZERO)


def p_bob(box, j, y):
    return sum((box[(0, j, x, y)] for x in OUTCOMES), ZERO)


def mean_alice(box, i):
    return p_alice(box, i, 1) - p_alice(box, i, -1)


def mean_bob(box, j):
    return p_bob(box, j, 1) - p_bob(box, j, -1)


def pair_correlator(box, i, j):
    return sum((x * y * box[(i, j, x, y)] for x in OUTCOMES for y in OUTCOMES), ZERO)


def effective_pair(box, n, i, j, x, y):
    return box[(i, j, x, y)] / n + (1 - Fraction(1, n)) * p_alice(box, i, x) * p_bob(box, j, y)


def effective_quad(box, n, i, j, x, xp, y, yp):
    """Two Alice slots and two Bob slots on uniformly random distinct particles.

    Sums the seven coincidence classes of (Alice pair k, l) x (Bob pair m, o)
    with their assignment counts; the counts add up to (N(N-1))^2.
    """
    b = lambda u, v: box[(i, j, u, v)]
    pa = lambda u: p_alice(box, i, u)
    pb = lambda v: p_bob(box, j, v)
    pairs = n * (n - 1)
    triples = pairs * (n - 2)
    total = pairs * (b(x, y) * b(xp, yp) + b(x, yp) * b(xp, y))
    total += triples * (b(x, y) * pa(xp) * pb(yp) + b(xp, y) * pa(x) * pb(yp)
                        + b(x, yp) * pa(xp) * pb(y) + b(xp, yp) * pa(x) * pb(y))
    total += triples * (n - 3) * pa(x) * pa(xp) * pb(y) * pb(yp)
    return total / (pairs * pairs)


def moment_mod(box, n, i, j, k):
    """D^N <(A_i B_j)^k> mod 2^127 - 1, with D the box's common denominator.

    W_m(a, b) = D^m E[X^a Y^b] for sums over m pairs obeys the binomial
    convolution W_(m+m')(a, b) = sum C(a, a') C(b, b') W_m(a', b') W_m'(a-a', b-b');
    N is reached by repeated doubling.
    """
    denominator = math.lcm(*(p.denominator for p in box.values()))
    weights = {(x, y): int(box[(i, j, x, y)] * denominator) for x in OUTCOMES for y in OUTCOMES}
    size = k + 1
    single = [[sum(w * x ** a * y ** b for (x, y), w in weights.items()) % MODULUS
               for b in range(size)] for a in range(size)]
    binom = [[math.comb(a, c) for c in range(size)] for a in range(size)]

    def combine(left, right):
        out = [[0] * size for _ in range(size)]
        for a in range(size):
            for b in range(size):
                acc = 0
                for a1 in range(a + 1):
                    row_l, row_r, ca = left[a1], right[a - a1], binom[a][a1]
                    for b1 in range(b + 1):
                        acc += ca * binom[b][b1] * row_l[b1] * row_r[b - b1]
                out[a][b] = acc % MODULUS
        return out

    result = None
    power = single
    remaining = n
    while remaining:
        if remaining & 1:
            result = power if result is None else combine(result, power)
        remaining >>= 1
        if remaining:
            power = combine(power, power)
    return result[k][k], denominator


def matches_moment_mod(value: Fraction, box, n, i, j, k) -> bool:
    residue, denominator = moment_mod(box, n, i, j, k)
    scale = pow(denominator, n, MODULUS)
    return (value.numerator * scale - value.denominator * residue) % MODULUS == 0


def product_distribution(box, n, i, j):
    """Exact law of (X, Y) for n independent pairs, by convolution."""
    dist = {(0, 0): ONE}
    for _ in range(n):
        grown = {}
        for (xs, ys), p in dist.items():
            for x in OUTCOMES:
                for y in OUTCOMES:
                    q = box[(i, j, x, y)]
                    if q:
                        key = (xs + x, ys + y)
                        grown[key] = grown.get(key, ZERO) + p * q
        dist = grown
    return dist


def joint_distribution(table, n, i, j):
    block = table[((i,) * n, (j,) * n)]
    dist = {}
    for (oa, ob), p in block.items():
        key = (sum(oa), sum(ob))
        dist[key] = dist.get(key, ZERO) + p
    return dist


def assigned_bob_sum_moment(box, n, alice_setting):
    """<(B_0 + B_1)^2> over n pairs with both Bob outcomes fixed by Alice's."""
    mean = ZERO
    square = ZERO
    for x in OUTCOMES:
        px = p_alice(box, alice_setting, x)
        if not px:
            continue
        total = 0
        for j in (0, 1):
            (y,) = [y for y in OUTCOMES if box[(alice_setting, j, x, y)] == px]
            total += y
        mean += px * total
        square += px * total * total
    return n * (square - mean * mean) + n * n * mean * mean


# ---------------------------------------------------------------------------
# PR-box closed forms
# ---------------------------------------------------------------------------

def pr_effective_pair(n, i, j, x, y):
    return Fraction(1, 4) + Fraction(abs(x + (-1) ** (i * j) * y) - 1, 4 * n)


def pr_averages_entry(n, a_out, b_out):
    x0, x1 = a_out
    y0, y1 = b_out
    satisfied = (y0 == x0) + (y1 == x0) + (y0 == x1) + (y1 == -x1)
    return Fraction(n + 2, 16 * n) if satisfied == 3 else Fraction(n - 2, 16 * n)


def pr_quad_entry(n, i, j, x, xp, y, yp):
    denom = 16 * n * (n - 1)
    sign = (-1) ** (i * j)
    if x != xp and y != yp:
        return Fraction(n * (n - 1) + 2, denom)
    if x == xp and y == yp:
        if y == sign * x:
            return Fraction(n * (n + 3) - 2, denom)
        return Fraction((n - 2) * (n - 3), denom)
    return Fraction((n + 1) * (n - 2), denom)


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

_EVENT = re.compile(r"\(([+\-,]*);([+\-,]*)\)")
_RATIONAL = r"(-?\d+/\d+)"


def parse_event(text):
    match = _EVENT.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not an event: {text!r}")
    side = lambda s: tuple(1 if c == "+" else -1 for c in s.split(",")) if s else ()
    return side(match.group(1)), side(match.group(2))


def _pair_table(job, out):
    """({(i, j, x, y): p}, {(i, j): correlator}, chsh) from `effective --kind pair`."""
    table = {}
    if job.fmt == "json":
        payload = json.loads(out)
        if payload["n"] != job.n:
            raise ValueError(f"n is {payload['n']}")
        for i, j, x, y, p in payload["table"]:
            table[(i, j, x, y)] = Fraction(p)
        correlations = {tuple(int(s) for s in key.split(",")): Fraction(v)
                        for key, v in payload["correlations"].items()}
        return table, correlations, Fraction(payload["chsh"])
    correlations = {}
    chsh = None
    for line in out.splitlines():
        head = re.match(r"settings \((\d+),(\d+)\): (.*)", line)
        if head is not None:
            i, j = int(head.group(1)), int(head.group(2))
            for cell in head.group(3).split():
                event, p = cell.split("=")
                (x,), (y,) = parse_event(event)
                table[(i, j, x, y)] = Fraction(p)
        elif line.startswith("correlations: "):
            for i, j, value in re.findall(r"<a(\d+) b(\d+)>=" + _RATIONAL, line):
                correlations[(int(i), int(j))] = Fraction(value)
        elif line.startswith("chsh: "):
            chsh = Fraction(line[6:])
    return table, correlations, chsh


def _quad_table(job, out):
    table = {}
    correlators = {}
    if job.fmt == "json":
        payload = json.loads(out)
        for block in payload["settings"]:
            i, j = block["alice_setting"], block["bob_setting"]
            for entry in block["entries"]:
                (x, xp), (y, yp) = parse_event(entry["outcomes"])
                table[(i, j, x, xp, y, yp)] = Fraction(entry["p"])
            correlators[(i, j)] = Fraction(block["quad_correlator"])
        return table, correlators
    i = j = None
    for line in out.splitlines():
        head = re.fullmatch(r"settings \((\d+),(\d+)\):", line)
        if head:
            i, j = int(head.group(1)), int(head.group(2))
            continue
        corr = re.fullmatch(r"\s+<a a' b b'> = " + _RATIONAL, line)
        if corr:
            correlators[(i, j)] = Fraction(corr.group(1))
            continue
        entry = re.fullmatch(r"\s+(\S+) " + _RATIONAL, line)
        if entry:
            (x, xp), (y, yp) = parse_event(entry.group(1))
            table[(i, j, x, xp, y, yp)] = Fraction(entry.group(2))
    return table, correlators


def _jpd_entries(job, out):
    """({(a_out, b_out): p}, valid flag, printed sum or None)."""
    entries = {}
    if job.fmt == "json":
        payload = json.loads(out)
        for entry in payload["entries"]:
            entries[parse_event(entry["outcomes"])] = Fraction(entry["p"])
        return entries, payload["valid"], None
    valid = printed_sum = None
    for line in out.splitlines():
        if line.startswith("("):
            event, p = line.split()
            entries[parse_event(event)] = Fraction(p)
        elif line.startswith("sum: "):
            printed_sum = Fraction(line[5:])
        elif line.startswith("valid: "):
            valid = line[7:] == "true"
    return entries, valid, printed_sum


_REPORT_LINES = {
    "average_a": r"<A\d+> = ",
    "average_b": r"<B\d+> = ",
    "correlation": r"<A\d+ B\d+> = ",
    "second_moment_a": r"<A\d+\^2> = ",
    "second_moment_b": r"<B\d+\^2> = ",
    "joint_second_moment": r"<\(A\d+ B\d+\)\^2> = ",
    "variance_a": r"var\(A\d+\) = ",
    "variance_b": r"var\(B\d+\) = ",
    "joint_variance": r"var\(A\d+ B\d+\) = ",
}


def _report_values(job, out):
    if job.fmt == "json":
        payload = json.loads(out)
        return {key: Fraction(payload[key]) for key in _REPORT_LINES}
    values = {}
    for line in out.splitlines():
        for key, prefix in _REPORT_LINES.items():
            match = re.match(prefix + _RATIONAL, line)
            if match:
                values[key] = Fraction(match.group(1))
    return values


def _scalar(job, out, json_key):
    if job.fmt == "json":
        return Fraction(json.loads(out)[json_key])
    return Fraction(out.strip())


def _distribution(job, out):
    grid = {}
    if job.fmt == "json":
        for entry in json.loads(out)["entries"]:
            grid[(entry["X"], entry["Y"])] = Fraction(entry["p"])
        return grid
    sep = "," if job.fmt == "csv" else " "
    for line in out.splitlines():
        parts = line.split(sep)
        if len(parts) == 3 and re.fullmatch(r"-?\d+", parts[0]):
            grid[(int(parts[0]), int(parts[1]))] = Fraction(parts[2])
    return grid


def _gisin(job, out):
    if job.fmt == "json":
        payload = json.loads(out)
        matrix = [[Fraction(v) for v in row] for row in payload["matrix"]]
        return matrix, [float(v) for v in payload["eigenvalues"]]
    matrix = []
    eigenvalues = []
    for line in out.splitlines():
        if re.match(r"[AB][01]: ", line):
            matrix.append([Fraction(v) for v in line.split()[1:]])
        elif line.startswith("eigenvalues: "):
            eigenvalues = [float(v) for v in line.split()[1:]]
    return matrix, eigenvalues


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------

def _check_effective_pair(job, out, problems):
    table, correlations, chsh = _pair_table(job, out)
    n, box = job.n, job.box
    for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES):
        got = table.get((i, j, x, y))
        want = effective_pair(box, n, i, j, x, y)
        if got != want:
            problems.append(f"p_eff({x},{y}|{i},{j}) = {got}, expected {want}")
        if job.box_kind == "pr" and got != pr_effective_pair(n, i, j, x, y):
            problems.append(f"p_eff({x},{y}|{i},{j}) = {got} misses the PR closed form")
    # Correlators of the effective pair: E_ij / N + (1 - 1/N) a_i b_j.
    want_corr = {(i, j): pair_correlator(box, i, j) / n
                 + (1 - Fraction(1, n)) * mean_alice(box, i) * mean_bob(box, j)
                 for i in (0, 1) for j in (0, 1)}
    if correlations != want_corr:
        problems.append(f"correlations {correlations} != {want_corr}")
    want_chsh = want_corr[(0, 0)] + want_corr[(0, 1)] + want_corr[(1, 0)] - want_corr[(1, 1)]
    if chsh != want_chsh:
        problems.append(f"chsh {chsh} != {want_chsh}")


def _check_effective_quad(job, out, problems):
    table, correlators = _quad_table(job, out)
    n, box = job.n, job.box
    for i, j in product((0, 1), repeat=2):
        corr = ZERO
        for x, xp, y, yp in product(OUTCOMES, repeat=4):
            got = table.get((i, j, x, xp, y, yp))
            want = effective_quad(box, n, i, j, x, xp, y, yp)
            if job.box_kind == "pr" and want != pr_quad_entry(n, i, j, x, xp, y, yp):
                problems.append("coincidence classes disagree with the PR closed form")
            if got != want:
                problems.append(f"quad({x},{xp};{y},{yp}|{i},{j}) = {got}, expected {want}")
            corr += x * xp * y * yp * want
        if job.box_kind == "pr" and corr != Fraction(2, n * (n - 1)):
            problems.append(f"PR quad correlator {corr} != 2/(N(N-1))")
        if correlators.get((i, j)) != corr:
            problems.append(f"<a a' b b'>({i},{j}) = {correlators.get((i, j))}, expected {corr}")


def _check_jpd(job, out, problems):
    copies = {"averages": 1, "fluctuations": 2}.get(job.params["kind"], job.params.get("copies"))
    entries, valid, printed_sum = _jpd_entries(job, out)
    n, box = job.n, job.box
    width = 2 * copies
    if len(entries) != 4 ** width:
        problems.append(f"{len(entries)} entries, expected {4 ** width}")
    total = sum(entries.values(), ZERO)
    if total != 1:
        problems.append(f"entries sum to {total}")
    if printed_sum is not None and printed_sum != total:
        problems.append(f"printed sum {printed_sum} != entry sum {total}")
    if valid is not True or any(p < 0 for p in entries.values()):
        problems.append("a product-model JPD must be valid and nonnegative")
    slot = lambda setting, copy: setting * copies + copy
    last = copies - 1
    # (alice slot, bob slot) cross marginals and single-slot marginals.
    cross = sorted({(i, j, ca, cb) for i in (0, 1) for j in (0, 1)
                    for ca, cb in ((0, 0), (last, last), (0, last))})
    acc_cross = {key: {} for key in cross}
    acc_a = {key: {} for key in product((0, 1), range(copies))}
    acc_b = {key: {} for key in product((0, 1), range(copies))}
    acc_same = {}
    for (a_out, b_out), p in entries.items():
        for key in cross:
            i, j, ca, cb = key
            k = (a_out[slot(i, ca)], b_out[slot(j, cb)])
            acc_cross[key][k] = acc_cross[key].get(k, ZERO) + p
        for (s, c), acc in acc_a.items():
            acc[a_out[slot(s, c)]] = acc.get(a_out[slot(s, c)], ZERO) + p
        for (s, c), acc in acc_b.items():
            acc[b_out[slot(s, c)]] = acc.get(b_out[slot(s, c)], ZERO) + p
        k = (a_out[slot(0, 0)], a_out[slot(1, last)])
        acc_same[k] = acc_same.get(k, ZERO) + p
    for (i, j, ca, cb), acc in acc_cross.items():
        for x, y in product(OUTCOMES, repeat=2):
            want = effective_pair(box, n, i, j, x, y)
            if acc.get((x, y), ZERO) != want:
                problems.append(f"slot marginal ({i},{ca};{j},{cb}) at ({x},{y}) "
                                f"= {acc.get((x, y), ZERO)}, expected p_eff {want}")
    for (s, c), acc in acc_a.items():
        for x in OUTCOMES:
            if acc.get(x, ZERO) != p_alice(box, s, x):
                problems.append(f"alice slot ({s},{c}) marginal {acc.get(x)} != p_A")
    for (s, c), acc in acc_b.items():
        for y in OUTCOMES:
            if acc.get(y, ZERO) != p_bob(box, s, y):
                problems.append(f"bob slot ({s},{c}) marginal {acc.get(y)} != p_B")
    for x, xp in product(OUTCOMES, repeat=2):
        want = p_alice(box, 0, x) * p_alice(box, 1, xp)
        if acc_same.get((x, xp), ZERO) != want:
            problems.append(f"same-side marginal at ({x},{xp}) is not p_A p_A")
    if job.box_kind == "pr" and copies == 1:
        for (a_out, b_out), p in entries.items():
            if p != pr_averages_entry(n, a_out, b_out):
                problems.append(f"PR averages entry {a_out};{b_out} = {p} misses the closed form")


def _check_moments(job, out, problems):
    n, box = job.n, job.box
    i, j, k = job.params["i"], job.params["j"], job.params["k"]
    if k is not None:
        value = _scalar(job, out, "moment")
        if not matches_moment_mod(value, box, n, i, j, k):
            problems.append(f"<(A{i} B{j})^{k}> = {value} fails the convolution route")
        return
    got = _report_values(job, out)
    a, b, e = mean_alice(box, i), mean_bob(box, j), pair_correlator(box, i, j)
    want = {
        "average_a": n * a,
        "average_b": n * b,
        "correlation": n * e + n * (n - 1) * a * b,
        "second_moment_a": n + n * (n - 1) * a * a,
        "second_moment_b": n + n * (n - 1) * b * b,
    }
    want["variance_a"] = want["second_moment_a"] - want["average_a"] ** 2
    want["variance_b"] = want["second_moment_b"] - want["average_b"] ** 2
    if job.box_kind == "pr":
        want["joint_second_moment"] = Fraction(3 * n * n - 2 * n)
        if want["correlation"] != n * (-1) ** (i * j):
            problems.append("PR correlation identity disagrees with N(-1)^(ij)")
    if "joint_second_moment" in got:
        joint = got["joint_second_moment"]
        if not matches_moment_mod(joint, box, n, i, j, 2):
            problems.append(f"<(A B)^2> = {joint} fails the convolution route")
        want.setdefault("joint_second_moment", joint)
        want["joint_variance"] = want["joint_second_moment"] - want["correlation"] ** 2
    for key in _REPORT_LINES:
        if got.get(key) != want.get(key):
            problems.append(f"{key} = {got.get(key)}, expected {want.get(key)}")


def _check_distribution(job, out, problems):
    grid = _distribution(job, out)
    n, i, j = job.n, job.params["i"], job.params["j"]
    if job.joint is not None:
        want = joint_distribution(job.joint, n, i, j)
    else:
        want = product_distribution(job.box, n, i, j)
    support = range(-n, n + 1, 2)
    if set(grid) != {(x, y) for x in support for y in support}:
        problems.append("distribution grid is not the full parity grid")
    total = sum(grid.values(), ZERO)
    if total != 1:
        problems.append(f"distribution sums to {total}")
    for key, p in grid.items():
        if p != want.get(key, ZERO):
            problems.append(f"P{key} = {p}, expected {want.get(key, ZERO)}")


def _check_rohrlich(job, out, problems):
    value = _scalar(job, out, "conditional_second_moment")
    n, setting = job.n, job.params["alice_setting"]
    want = assigned_bob_sum_moment(job.box, n, setting)
    if job.box_kind == "pr" and want != (4 * n if setting == 0 else 0):
        problems.append("PR rohrlich identity disagrees with 4N / 0")
    if value != want:
        problems.append(f"rohrlich = {value}, expected {want}")


def _check_gisin(job, out, problems):
    matrix, eigenvalues = _gisin(job, out)
    n, box = job.n, job.box
    a = [mean_alice(box, s) for s in (0, 1)]
    b = [mean_bob(box, s) for s in (0, 1)]
    corr = lambda i, j: n * pair_correlator(box, i, j) + n * (n - 1) * a[i] * b[j]
    want = [
        [n + n * (n - 1) * a[0] ** 2, n * n * a[0] * a[1], corr(0, 0), corr(0, 1)],
        [n * n * a[0] * a[1], n + n * (n - 1) * a[1] ** 2, corr(1, 0), corr(1, 1)],
        [corr(0, 0), corr(1, 0), n + n * (n - 1) * b[0] ** 2, n * n * b[0] * b[1]],
        [corr(0, 1), corr(1, 1), n * n * b[0] * b[1], n + n * (n - 1) * b[1] ** 2],
    ]
    if matrix != want:
        problems.append(f"correlation matrix {matrix} != {want}")
        return
    if len(eigenvalues) != 4:
        problems.append(f"{len(eigenvalues)} eigenvalues")
        return
    # Power sums of the eigenvalues equal the traces of the matrix powers.
    scale = 4 * max(abs(float(v)) for row in want for v in row)
    power = [row[:] for row in want]
    for order in range(1, 5):
        trace = float(sum(power[d][d] for d in range(4)))
        sums = sum(v ** order for v in eigenvalues)
        if abs(sums - trace) > 1e-9 * scale ** order:
            problems.append(f"eigenvalue power sum {order} is {sums}, trace {trace}")
        power = [[sum(power[r][m] * want[m][c] for m in range(4)) for c in range(4)]
                 for r in range(4)]
    if job.box_kind == "pr":
        low = n * (1 - math.sqrt(2))
        if any(abs(v - low) > EIGEN_TOLERANCE for v in sorted(eigenvalues)[:2]):
            problems.append(f"PR eigenvalues {eigenvalues} miss N(1-sqrt2) = {low}")


def _check_verify(job, out, problems):
    if job.fmt == "json":
        payload = json.loads(out)
        rows = [(c["status"], c["name"]) for c in payload["checks"]]
        ok = payload["ok"]
    else:
        rows = [tuple(line.split(":")[0].split(" ", 1)) for line in out.splitlines()
                if line.startswith(("PASS ", "FAIL ", "SKIP "))]
        result = [line for line in out.splitlines() if line.startswith("result: ")]
        ok = bool(result) and result[0].startswith("result: PASS")
    failed = {name for status, name in rows if status == "FAIL"}
    if job.expect_code == 0 and (failed or not ok):
        problems.append(f"verify failed checks {sorted(failed)} on a valid model")
    if job.expect_code == 1 and (ok or "no-signalling" not in failed):
        problems.append("verify did not flag the signalling table")
    if len(rows) != 7:
        problems.append(f"verify printed {len(rows)} checks, expected 7")


_CHECKS = {
    "jpd": _check_jpd,
    "moments": _check_moments,
    "distribution": _check_distribution,
    "rohrlich": _check_rohrlich,
    "gisin": _check_gisin,
    "verify": _check_verify,
}


def check(job, code, out) -> list:
    """Problems with one job's exit code and stdout; empty when it passed."""
    if code != job.expect_code:
        return [f"exit code {code}, expected {job.expect_code}"]
    problems = []
    if job.command == "effective":
        checker = _check_effective_pair if job.params["kind"] == "pair" else _check_effective_quad
    else:
        checker = _CHECKS[job.command]
    try:
        checker(job, out, problems)
    except Exception:  # any output the parsers cannot read is a failed job
        problems.append(f"unparseable output:\n{traceback.format_exc()}")
    return problems
