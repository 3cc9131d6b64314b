"""Command-line interface: parsing, dispatch, formats, exit codes, determinism."""

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobox import (
    ALICE,
    MacroDistribution,
    SymmetricJPD,
    ensemble,
    macro,
    macro_moment_general,
    make_isotropic_box,
    make_pr_box,
    symmetry,
)
from macrobox.cli import build_parser, main, parse_args
from macrobox.errors import DomainError
from tests.conftest import (
    THREE_FAULT_VIOLATIONS,
    cross_pair_signalling_table,
    explicit_from_box,
    joint_mixture,
    mixed_completion_signalling_table,
    mixed_denominator_box,
    ordered_generic_entries,
    signalling_joint_table,
    three_fault_box,
)
from tests.test_boxes import JSON_VALUES, pair_box_json
from tests.test_joint_loader import mutated_tables

F = Fraction


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_joint_file(path, table, n):
    entries = []
    for (sa, sb), block in table.items():
        for (oa, ob), p in block.items():
            entries.append({
                "settings_a": list(sa), "settings_b": list(sb),
                "outcomes_a": list(oa), "outcomes_b": list(ob),
                "p": f"{p.numerator}/{p.denominator}",
            })
    path.write_text(json.dumps({"n": n, "s_a": 2, "s_b": 2, "entries": entries}))
    return str(path)


@pytest.fixture
def signalling_file(tmp_path):
    return write_joint_file(tmp_path / "signalling.json", signalling_joint_table(), 1)


class TestParsing:
    def test_jpd_config(self):
        config = parse_args(["jpd", "--box", "pr", "--n", "3",
                             "--kind", "averages", "--format", "json"])
        assert config.command == "jpd"
        assert config.n == 3
        assert config.params["kind"] == "averages"
        assert config.fmt == "json"
        assert config.box.table == make_pr_box().table

    def test_moments_config(self):
        config = parse_args(["moments", "--box", "isotropic:1/2", "--n", "4",
                             "--k", "3"])
        assert config.command == "moments"
        assert config.params["k"] == 3
        assert config.box.prob(0, 0, 1, 1) == F(3, 8)

    def test_det_box_spec(self):
        config = parse_args(["box", "--box", "det:+1,-1,+,-"])
        assert config.box.prob(0, 0, 1, 1) == 1
        assert config.box.prob(1, 1, -1, -1) == 1

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["eigenvalues", "--box", "pr"])
        assert exc.value.code == 2

    def test_malformed_rational_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["box", "--box", "isotropic:one-half"])
        assert exc.value.code == 2

    @staticmethod
    def usage_error(capsys, argv) -> str:
        """Run ``main``; it must exit 2 before printing a report, and its
        stderr is returned."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        return captured.err

    def test_decimal_exponent_spec_is_usage_error(self, capsys):
        err = self.usage_error(capsys, ["box", "--box", "isotropic:1e-1000000"])
        assert "malformed isotropic box spec 'isotropic:1e-1000000'" in err

    @pytest.mark.parametrize("visibility", ["1_0/3_0", "2 / 3", "٣/٤"],
                             ids=["underscores", "spaced-slash", "arabic-indic-digits"])
    def test_version_dependent_spec_is_usage_error(self, capsys, visibility):
        err = self.usage_error(capsys, ["box", "--box", f"isotropic:{visibility}"])
        assert f"malformed isotropic box spec 'isotropic:{visibility}'" in err

    def test_decimal_exponent_cell_in_file_is_usage_error(self, capsys, tmp_path):
        data = json.loads(make_pr_box().to_json())
        data["table"][0][4] = "1e-1000000"
        path = tmp_path / "box.json"
        path.write_text(json.dumps(data))
        err = self.usage_error(capsys, ["box", "--box", f"file:{path}"])
        assert "has a decimal exponent" in err

    @pytest.mark.parametrize("kind", ["averages", "fluctuations"])
    @pytest.mark.parametrize("copies", ["1", "3"])
    def test_copies_outside_general_is_usage_error(self, capsys, kind, copies):
        err = self.usage_error(capsys, ["jpd", "--box", "pr", "--n", "4", "--kind", kind,
                                        "--copies", copies])
        assert f"--copies is only available for --kind general, not {kind}" in err

    @pytest.mark.parametrize("copies", ["0", "-1"])
    def test_copies_below_one_is_usage_error(self, capsys, copies):
        err = self.usage_error(capsys, ["jpd", "--box", "pr", "--n", "4", "--kind", "general",
                                        "--copies", copies])
        assert f"--copies must be at least 1, got {copies}" in err

    @pytest.mark.parametrize("k", ["-1", "-3"])
    def test_negative_moment_order_is_usage_error(self, capsys, k):
        err = self.usage_error(capsys, ["moments", "--box", "pr", "--n", "2", "--k", k])
        assert f"--k must be at least 0, got {k}" in err

    def test_zeroth_moment_order_runs(self, capsys):
        code, out, _ = run_cli(capsys, ["moments", "--box", "pr", "--n", "2", "--k", "0"])
        assert code == 0 and out

    def test_general_jpd_defaults_to_one_copy(self, capsys):
        default = run_cli(capsys, ["jpd", "--box", "pr", "--n", "2", "--kind", "general"])
        assert parse_args(["jpd", "--box", "pr", "--kind", "general"]).params["copies"] == 1
        assert default == run_cli(capsys, ["jpd", "--box", "pr", "--n", "2", "--kind",
                                           "general", "--copies", "1"])

    def test_missing_file_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["box", "--box", "file:/does/not/exist.json"])
        assert exc.value.code == 2

    def test_zero_pairs_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["jpd", "--box", "pr", "--n", "0"])
        assert exc.value.code == 2

    def test_csv_restricted_to_distribution(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["jpd", "--box", "pr", "--n", "2", "--format", "csv"])
        assert exc.value.code == 2

    def test_fluctuations_at_one_pair_parses(self):
        config = parse_args(["jpd", "--box", "pr", "--n", "1",
                             "--kind", "fluctuations"])
        assert config.params["kind"] == "fluctuations"


class TestExecution:
    def test_jpd_two_pairs(self, capsys):
        code, out, _ = run_cli(capsys, ["jpd", "--box", "pr", "--n", "2",
                                        "--kind", "averages"])
        assert code == 0
        body = [line for line in out.splitlines() if line.startswith("(")]
        assert len(body) == 16
        values = {line.split()[-1] for line in body}
        assert values == {"1/8", "0/1"}
        assert "valid: true" in out

    def test_jpd_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["jpd", "--box", "pr", "--n", "1",
                                        "--kind", "fluctuations"])
        assert code == 1
        assert "error:" in err

    def test_gisin_output(self, capsys):
        code, out, _ = run_cli(capsys, ["gisin", "--box", "pr", "--n", "4"])
        assert code == 0
        assert out.count("-1.656854249492") == 2

    def test_rohrlich_silent(self, capsys):
        code, out, _ = run_cli(capsys, ["rohrlich", "--box", "pr", "--n", "5",
                                        "--alice-setting", "1"])
        assert code == 0
        assert out == "0/1\n"

    def test_rohrlich_loud(self, capsys):
        code, out, _ = run_cli(capsys, ["rohrlich", "--box", "pr", "--n", "5",
                                        "--alice-setting", "0"])
        assert code == 0
        assert out == "20/1\n"

    def test_moment_value(self, capsys):
        code, out, _ = run_cli(capsys, ["moments", "--box", "pr", "--n", "3",
                                        "--k", "2"])
        assert code == 0
        assert out == "21/1\n"

    def test_moment_report_text(self, capsys):
        code, out, _ = run_cli(capsys, ["moments", "--box", "pr", "--n", "3"])
        assert code == 0
        assert "<A0 B0> = 3/1" in out
        assert "<(A0 B0)^2> = 21/1" in out

    def test_box_command(self, capsys):
        code, out, _ = run_cli(capsys, ["box", "--box", "pr"])
        assert code == 0
        assert "chsh: 4/1" in out
        assert "validation: ok" in out

    def test_effective_pair_chsh(self, capsys):
        code, out, _ = run_cli(capsys, ["effective", "--box", "pr", "--n", "4"])
        assert code == 0
        assert "chsh: 1/1" in out

    def test_effective_quad(self, capsys):
        code, out, _ = run_cli(capsys, ["effective", "--box", "pr", "--n", "3",
                                        "--kind", "quad"])
        assert code == 0
        assert "<a a' b b'> = 1/3" in out

    def test_distribution_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["distribution", "--box", "pr", "--n", "1",
                                        "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "X,Y,p"
        assert "1,1,1/2" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["jpd", "--box", "pr", "--n", "2",
                                        "--format", "json", "--out", str(target)])
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["valid"] is True

    def test_pair_box_distribution_at_thirteen_pairs(self, capsys):
        n = 13
        code, out, err = run_cli(capsys, ["distribution", "--box", "pr", "--n", str(n)])
        assert (code, err) == (0, "")
        probs = {}
        for line in out.splitlines()[2:]:
            x_value, y_value, p = line.split()
            probs[int(x_value), int(y_value)] = F(p)
        for k in range(n + 1):
            value = n - 2 * k
            assert probs[value, value] == F(math.comb(n, k), 2 ** n)
        assert sum(probs.values()) == 1

    def test_allow_large_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--box", "pr", "--n", "7", "--allow-large"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --allow-large" in err
        assert "Traceback" not in err

    def test_max_n_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("MACROBOX_MAX_N", "abc")
        code, out, err = run_cli(capsys, ["box", "--box", "pr"])
        assert (code, err) == (0, "")
        assert "validation: ok" in out


class TestParserCache:
    """One parser per process: a cached parser prints what a fresh one does."""

    ARGVS = (["moments", "--box", "pr", "--n", "3"],
             ["jpd", "--box", "pr", "--kind", "nope"],
             ["effective", "--box", "isotropic:1/3", "--n", "2", "--kind", "quad"])

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_cached_parser_prints_what_a_fresh_one_does(self, capsys):
        build_parser.cache_clear()
        cached = [self.outcome(capsys, argv) for argv in self.ARGVS]
        assert build_parser() is build_parser()
        fresh = []
        for argv in self.ARGVS:
            build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert [code for code, _, _ in cached] == [0, 2, 0]
        assert "invalid choice: 'nope'" in cached[1][2]
        assert cached == fresh


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["jpd", "--box", "pr", "--n", "3", "--kind", "averages"],
        ["jpd", "--box", "pr", "--n", "4", "--kind", "fluctuations", "--format", "json"],
        ["effective", "--box", "isotropic:1/2", "--n", "3", "--format", "json"],
        ["gisin", "--box", "pr", "--n", "4", "--format", "json"],
        ["distribution", "--box", "pr", "--n", "2", "--format", "csv"],
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        assert first

    def test_jpd_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, ["jpd", "--box", "pr", "--n", "3",
                                     "--format", "json"])
        again = SymmetricJPD.from_json(out)
        assert again.to_json() == out

    def test_golden_bytes(self, capsys, tmp_path):
        """Every symmetrised output over a fixed grid hashes to one pinned
        digest: three pair boxes and a two-pair joint table (the generic
        route), in text and JSON, with the joint table only where two
        pairs suffice.  A change that alters any byte of the
        ``jpd``, ``effective`` or ``gisin`` output fails here."""
        joint = joint_mixture(mixed_denominator_box(), make_isotropic_box(F(1, 3)), F(2, 5), 2)
        joint_file = write_joint_file(tmp_path / "joint.json", joint.table, 2)
        runs = []
        for box in ("pr", "isotropic:1/3", "det:+,-,-,+"):
            runs += [["jpd", "--box", box, "--n", "3", "--kind", "averages"],
                     ["jpd", "--box", box, "--n", "4", "--kind", "fluctuations"],
                     ["effective", "--box", box, "--n", "3", "--kind", "pair"],
                     ["effective", "--box", box, "--n", "3", "--kind", "quad"],
                     ["gisin", "--box", box, "--n", "4"]]
        # Three copies cost about a second per PR-box run, so only the box
        # with no zero cell and the sparse det box take them.
        runs += [["jpd", "--box", box, "--n", "6", "--kind", "general", "--copies", "3"]
                 for box in ("isotropic:1/3", "det:+,-,-,+")]
        runs += [["jpd", "--box", "file:" + joint_file, "--n", "2", "--kind", "averages"],
                 ["effective", "--box", "file:" + joint_file, "--n", "2", "--kind", "pair"],
                 ["effective", "--box", "file:" + joint_file, "--n", "2", "--kind", "quad"]]
        digest = hashlib.sha256()
        for argv in runs:
            for fmt in ("text", "json"):
                code, out, err = run_cli(capsys, argv + ["--format", fmt])
                assert (code, err) == (0, "")
                digest.update(out.encode())
        assert digest.hexdigest() == GOLDEN_SHA256

    def test_distribution_golden_bytes(self, capsys, tmp_path):
        """``distribution`` of four pair boxes, one of them a file, at
        N = 1, 6, 7 and 40, every setting pair and format, hashes to one
        pinned digest, taken from the N-step convolution that the packed
        powers replaced.  N = 7 is the first size above the brute force;
        the det box has rows where one of Alice's outcomes never occurs."""
        path = tmp_path / "mixed.json"
        path.write_text(mixed_denominator_box().to_json())
        digest = hashlib.sha256()
        for box in ("pr", "isotropic:1/3", f"file:{path}", "det:+,-,-,+"):
            for n in (1, 6, 7, 40):
                for i, j in product((0, 1), repeat=2):
                    for fmt in ("text", "json", "csv"):
                        code, out, err = run_cli(capsys, [
                            "distribution", "--box", box, "--n", str(n), "--i", str(i),
                            "--j", str(j), "--format", fmt])
                        assert (code, err) == (0, "")
                        digest.update(out.encode())
        assert digest.hexdigest() == DISTRIBUTION_SHA256


#: sha256 over every output of :meth:`TestDeterminism.test_golden_bytes`.
GOLDEN_SHA256 = "ce87551a3f73dac464e4efdac7a6079a315aaca9167cdc066e522eb67cee6edc"

#: sha256 over every output of :meth:`TestDeterminism.test_distribution_golden_bytes`.
DISTRIBUTION_SHA256 = "268c5c5773ce56b1621e5d5fd7bf6055537c6d8152f9e28ed08421399aa67f77"


class TestVerify:
    def test_pr_four_pairs_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--box", "pr", "--n", "4"])
        assert code == 0
        assert "FAIL" not in out
        assert "result: PASS" in out

    def test_pr_single_pair_negativity(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--box", "pr", "--n", "1"])
        assert code == 1
        assert "FAIL averages-jpd-validity" in out
        assert "-1/16" in out

    def test_signalling_file_fails(self, capsys, signalling_file):
        code, out, _ = run_cli(capsys, ["verify", "--box", f"file:{signalling_file}",
                                        "--n", "1"])
        assert code == 1
        assert "FAIL no-signalling" in out

    def test_isotropic_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--box", "isotropic:3/4",
                                        "--n", "3"])
        assert code == 0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--box", "pr", "--n", "2",
                                        "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        names = {check["name"] for check in payload["checks"]}
        assert "no-signalling" in names
        assert "oracle-agreement" in names


VERIFY_ROWS = ["normalization", "no-signalling", "marginal-identities", "path-agreement",
               "oracle-agreement", "averages-jpd-validity", "fluctuations-jpd"]

NEGATIVE_PR_ENTRIES = "; ".join(
    f"negative entry ({event}) = -1/16"
    for event in ("+,+;-,+", "+,+;-,-", "+,-;+,-", "+,-;-,-",
                  "-,+;+,+", "-,+;-,+", "-,-;+,+", "-,-;+,-"))


class TestVerifyOutput:
    """Exact `verify` reports: every row's text, its order and the exit code."""

    def test_pr_single_pair_text(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--box", "pr", "--n", "1"])
        assert (code, err) == (1, "")
        assert out == (
            "PASS normalization: box table normalized for every setting pair\n"
            "PASS no-signalling: all single-particle setting swaps agree\n"
            "SKIP marginal-identities: construction needs n >= 2\n"
            "PASS path-agreement: microscopic and effective routes agree\n"
            "PASS oracle-agreement: moment expansion matches brute-force enumeration (k=1,2)\n"
            f"FAIL averages-jpd-validity: closed form at n=1: {NEGATIVE_PR_ENTRIES}\n"
            "SKIP fluctuations-jpd: construction needs n >= 4\n"
            "result: FAIL (7 checks, 1 failed, 2 skipped)\n")

    def test_pr_box_file_of_its_nonzero_cells(self, capsys, tmp_path):
        # The file omits the eight zero cells, so its table differs from the
        # PR box's while its integer form does not.
        cells = [[i, j, x, y, str(p)] for (i, j, x, y), p in make_pr_box().table.items() if p]
        assert len(cells) == 8
        path = tmp_path / "pr-nonzero.json"
        path.write_text(json.dumps({"s_a": 2, "s_b": 2, "table": cells}))
        expected = run_cli(capsys, ["verify", "--box", "pr", "--n", "1"])
        assert run_cli(capsys, ["verify", "--box", f"file:{path}", "--n", "1"]) == expected
        assert expected[0] == 1

    def test_pr_above_exhaustive_limit_text(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--box", "pr", "--n", "7"])
        assert (code, err) == (0, "")
        assert out == (
            "PASS normalization: box table normalized for every setting pair\n"
            "PASS no-signalling: all single-particle setting swaps agree\n"
            "PASS marginal-identities: averages-JPD marginals equal the effective pair "
            "distribution\n"
            "PASS path-agreement: microscopic and effective routes agree\n"
            "PASS oracle-agreement: moment expansion matches the packed law (k=1..4); "
            "4^n enumeration skipped for n=7 > 6\n"
            "PASS averages-jpd-validity: all entries nonnegative, sum 1\n"
            "PASS fluctuations-jpd: valid and reproduces the two-pair effective "
            "distribution\n"
            "result: PASS (7 checks, 0 failed, 0 skipped)\n")

    @pytest.mark.parametrize("n", (7, 12, 40))
    def test_oracle_row_runs_above_exhaustive_limit(self, capsys, n):
        code, out, err = run_cli(capsys, ["verify", "--box", "isotropic:1/3", "--n", str(n)])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[4] == (f"PASS oracle-agreement: moment expansion matches the "
                            f"packed law (k=1..4); 4^n enumeration skipped for n={n} > 6")
        assert lines[-1] == "result: PASS (7 checks, 0 failed, 0 skipped)"

    def test_oracle_row_checks_above_exhaustive_limit(self, capsys, monkeypatch):
        monkeypatch.setattr("macrobox.cli.macro_moment_general",
                            lambda model, i, j, order: F(1, 3))
        code, out, err = run_cli(capsys, ["verify", "--box", "isotropic:1/3", "--n", "7"])
        assert (code, err) == (1, "")
        assert "FAIL oracle-agreement: <(A1 B1)^4> expansion 1/3 != packed law " in out
        assert out.splitlines()[-1] == "result: FAIL (7 checks, 1 failed, 0 skipped)"

    @pytest.mark.parametrize("n, orders", [(6, (1, 2)), (7, (1, 2, 3, 4))])
    def test_oracle_row_orders(self, capsys, monkeypatch, n, orders):
        # The enumeration compares the full law, so up to the limit the
        # expansion is checked at k = 1, 2; above it, at k = 1..4.
        asked = set()
        original = macro_moment_general

        def recorded(model, i, j, order):
            asked.add(order)
            return original(model, i, j, order)

        monkeypatch.setattr("macrobox.cli.macro_moment_general", recorded)
        code, _, _ = run_cli(capsys, ["verify", "--box", "isotropic:1/3", "--n", str(n)])
        assert code == 0
        assert asked == set(orders)

    def test_no_signalling_row_runs_above_exhaustive_limit(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--box", "isotropic:1/3", "--n", "7"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "PASS no-signalling: all single-particle setting swaps agree"

    def test_isotropic_two_pairs_json(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--box", "isotropic:1/3", "--n", "2",
                                          "--format", "json"])
        assert (code, err) == (0, "")
        details = [
            ("PASS", "box table normalized for every setting pair"),
            ("PASS", "all single-particle setting swaps agree"),
            ("PASS", "averages-JPD marginals equal the effective pair distribution"),
            ("PASS", "microscopic and effective routes agree"),
            ("PASS", "moment expansion matches brute-force enumeration (k=1,2)"),
            ("PASS", "all entries nonnegative, sum 1"),
            ("SKIP", "construction needs n >= 4"),
        ]
        expected = {
            "n": 2,
            "box": "isotropic:1/3",
            "checks": [{"name": name, "status": status, "detail": detail}
                       for name, (status, detail) in zip(VERIFY_ROWS, details)],
            "ok": True,
        }
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_signalling_file_text(self, capsys, signalling_file):
        code, out, err = run_cli(capsys, ["verify", "--box", f"file:{signalling_file}"])
        assert (code, err) == (1, "")
        assert out == (
            "PASS normalization: joint table normalized for every assignment\n"
            "FAIL no-signalling: no-signalling at ('B', 0, 0, 1, (0,), (0,)): marginal of "
            "the other particles changes when (B,0) swaps setting 0 -> 1 (residual 1/2)\n"
            "SKIP marginal-identities: construction needs n >= 2\n"
            "FAIL path-agreement: marginal over (('A', 0, 0),) depends on the completion "
            "settings (fill (0,0) vs (1,1)): the model signals\n"
            "PASS oracle-agreement: moment expansion matches brute-force enumeration (k=1,2)\n"
            "SKIP averages-jpd-validity: construction needs n >= 2\n"
            "SKIP fluctuations-jpd: construction needs n >= 4\n"
            "result: FAIL (7 checks, 2 failed, 3 skipped)\n")

    @pytest.mark.parametrize("table, no_signalling, first_marginal, path_marginal", [
        (cross_pair_signalling_table(), "('A', 0, 0, 1, (0, 0), (0, 0)): marginal of the "
         "other particles changes when (A,0) swaps setting 0 -> 1 (residual -1/8)",
         "(('A', 1, 0), ('B', 1, 0))", "(('B', 1, 0),)"),
        (mixed_completion_signalling_table(), "('A', 0, 0, 1, (0, 0), (0, 0)): marginal of "
         "the other particles changes when (A,0) swaps setting 0 -> 1 (residual 1/8)",
         "(('A', 0, 0), ('B', 0, 0))", "(('B', 0, 0), ('B', 1, 0))"),
    ], ids=["cross-pair", "mixed-completion"])
    def test_two_pair_signalling_files_text(self, capsys, tmp_path, table, no_signalling,
                                            first_marginal, path_marginal):
        path = write_joint_file(tmp_path / "table.json", table, 2)
        code, out, err = run_cli(capsys, ["verify", "--box", f"file:{path}"])
        assert (code, err) == (1, "")
        signals = ("depends on the completion settings (fill (0,0) vs (1,1)): "
                   "the model signals")
        assert out == (
            "PASS normalization: joint table normalized for every assignment\n"
            f"FAIL no-signalling: no-signalling at {no_signalling}\n"
            f"FAIL marginal-identities: marginal over {first_marginal} {signals}\n"
            f"FAIL path-agreement: marginal over {path_marginal} {signals}\n"
            f"FAIL oracle-agreement: marginal over {first_marginal} {signals}\n"
            "PASS averages-jpd-validity: all entries nonnegative, sum 1\n"
            "SKIP fluctuations-jpd: construction needs n >= 4\n"
            "result: FAIL (7 checks, 4 failed, 1 skipped)\n")

    def test_skewed_joint_table_marginal_fails_path_agreement(self, capsys, monkeypatch,
                                                              tmp_path):
        """A joint table's moments are checked against the count law of its
        stored block, which builds no marginal, so a wrong marginal law
        behind the effective route fails the row."""
        checked = ensemble._checked_marginal

        def skewed(model, slots):
            scale, counts = checked(model, slots)
            if slots != ((ALICE, 0, 0),):
                return scale, counts
            # Half a count moves from -1 to +1: <a_0> rises by 1/D.
            return 2 * scale, {outcomes: 2 * count + outcomes[0]
                               for outcomes, count in counts.items()}

        monkeypatch.setattr("macrobox.ensemble._checked_marginal", skewed)
        path = write_joint_file(tmp_path / "table.json",
                                explicit_from_box(make_isotropic_box(F(1, 3)), 2).table, 2)
        code, out, err = run_cli(capsys, ["verify", "--box", f"file:{path}"])
        assert (code, err) == (1, "")
        assert [line for line in out.splitlines() if not line.startswith(("PASS", "SKIP"))] == [
            "FAIL path-agreement: <A0>: microscopic sum 0 != effective route 1/36",
            "result: FAIL (7 checks, 1 failed, 1 skipped)"]

    def test_verify_scans_each_block_count_law_once(self, capsys, monkeypatch, tmp_path):
        """path-agreement checks 16 moments and oracle-agreement 4 setting
        pairs against the count law of (A_i, B_j), and a table with 2x2
        settings has 4 such laws: one scan each."""
        scans = []
        side_sums = macro._side_sum_counts
        monkeypatch.setattr(macro, "_side_sum_counts",
                            lambda *args: scans.append(args[1]) or side_sums(*args))
        path = write_joint_file(tmp_path / "table.json",
                                explicit_from_box(make_isotropic_box(F(1, 3)), 3).table, 3)
        code, out, err = run_cli(capsys, ["verify", "--box", f"file:{path}"])
        assert (code, err) == (0, "")
        assert len(scans) == 4
        assert {(s.alice[0], s.bob[0]) for s in scans} == set(product((0, 1), repeat=2))

    @pytest.mark.parametrize("table, n, order", [
        (signalling_joint_table(), 1, "table"),
        (cross_pair_signalling_table(), 2, "table"),
        (mixed_completion_signalling_table(), 2, "table"),
        (signalling_joint_table(), 1, "sorted"),
        (cross_pair_signalling_table(), 2, "sorted"),
        (cross_pair_signalling_table(3), 3, "table"),
    ], ids=["single-pair", "cross-pair", "mixed-completion", "single-pair-sorted",
            "cross-pair-sorted", "cross-pair-3"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_signalling_verify_bytes_as_the_ordered_enumeration(self, capsys, monkeypatch,
                                                                 tmp_path, table, n, order, fmt):
        """verify on the signalling tables prints the same bytes with the
        ordered-tuple enumeration in place of the particle sets.  The
        sorted files are the benchmark's two, written in its entry order."""
        if order == "sorted":
            table = {key: dict(sorted(block.items())) for key, block in sorted(table.items())}
        path = write_joint_file(tmp_path / "table.json", table, n)
        argv = ["verify", "--box", f"file:{path}", "--format", fmt]
        got = run_cli(capsys, argv)
        monkeypatch.setattr(symmetry, "_symmetrized_generic_entries", ordered_generic_entries)
        assert run_cli(capsys, argv) == got
        assert got[0] == 1

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_mixed_completion_leak_fails_the_count_law_check(self, capsys, tmp_path, i, fmt):
        """Bob particle 0 is pinned in block (0, 1): the count law of that
        block gives <B1> = 1, while the marginals, compared only under the
        (0, 0) and (1, 1) completions, give 0."""
        path = write_joint_file(tmp_path / "table.json", mixed_completion_signalling_table(), 2)
        code, out, err = run_cli(capsys, ["moments", "--box", f"file:{path}", "--i", str(i),
                                          "--j", "1", "--format", fmt])
        assert (code, out, err) == (1, "", "error: <B1>: microscopic sum 1 != effective route 0\n")

    @pytest.mark.parametrize("route, row, n", [
        ("check_no_signalling", "no-signalling", 2),
        ("effective_pair", "marginal-identities", 2),
        ("macro_correlation", "path-agreement", 2),
        ("macro_distribution_bruteforce", "oracle-agreement", 2),
        ("jpd_validity", "averages-jpd-validity", 2),
        ("effective_quad", "fluctuations-jpd", 4),
    ])
    def test_route_error_stays_in_its_row(self, capsys, monkeypatch, route, row, n):
        def boom(*args, **kwargs):
            raise DomainError("boom")

        monkeypatch.setattr(f"macrobox.cli.{route}", boom)
        code, out, err = run_cli(capsys, ["verify", "--box", "pr", "--n", str(n)])
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert [line.split(":")[0].split(" ")[1] for line in lines[:-1]] == VERIFY_ROWS
        assert [line for line in lines if line.startswith("FAIL")] == [f"FAIL {row}: boom"]
        assert lines[-1].startswith("result: FAIL (7 checks, 1 failed, ")


class TestDistributionRoutes:
    """The packed powers (pair boxes) and the enumeration (joint tables)
    print the same bytes for the same physics."""

    @pytest.mark.parametrize("spec", ["pr", "det:+,-,-,+", "isotropic:1/3", "file"])
    @pytest.mark.parametrize("n", (1, 3))
    def test_pair_box_matches_joint_file(self, capsys, tmp_path, spec, n):
        if spec == "file":
            (tmp_path / "box.json").write_text(mixed_denominator_box().to_json())
            spec = f"file:{tmp_path / 'box.json'}"
        config = parse_args(["box", "--box", spec])
        joint = write_joint_file(tmp_path / "joint.json",
                                 explicit_from_box(config.box, n).table, n)
        for fmt in ("text", "json", "csv"):
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                tail = ["--n", str(n), "--i", str(i), "--j", str(j), "--format", fmt]
                code, from_box, _ = run_cli(capsys, ["distribution", "--box", spec] + tail)
                assert code == 0
                code, from_table, _ = run_cli(
                    capsys, ["distribution", "--box", f"file:{joint}"] + tail)
                assert code == 0
                assert from_box == from_table

    def test_verify_fails_when_routes_disagree(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["verify", "--box", "pr", "--n", "2"])
        assert code == 0
        assert ("PASS oracle-agreement: moment expansion matches brute-force "
                "enumeration (k=1,2)") in out

        def shifted(model, i, j):
            return MacroDistribution(n=2, alice_setting=i, bob_setting=j, scale=1,
                                     counts={(2, 2): 1})

        monkeypatch.setattr("macrobox.cli.macro_distribution", shifted)
        code, out, _ = run_cli(capsys, ["verify", "--box", "pr", "--n", "2"])
        assert code == 1
        assert ("FAIL oracle-agreement: distribution at (1,1): primary route "
                "differs from enumeration") in out

    def test_joint_table_oracle_row_enumerates_once(self, capsys, monkeypatch, tmp_path):
        # For a joint table macro_distribution is the enumeration itself, so
        # the oracle row does not compare the two.
        joint = write_joint_file(tmp_path / "joint.json",
                                 explicit_from_box(make_pr_box(), 2).table, 2)

        def forbidden(*args, **kwargs):
            raise AssertionError("macro_distribution called for a joint table")

        monkeypatch.setattr("macrobox.cli.macro_distribution", forbidden)
        code, out, _ = run_cli(capsys, ["verify", "--box", f"file:{joint}", "--n", "2"])
        assert code == 0
        assert ("PASS oracle-agreement: moment expansion matches brute-force "
                "enumeration (k=1,2)") in out


class TestFileBoxes:
    def test_pair_box_file(self, capsys, tmp_path):
        path = tmp_path / "box.json"
        path.write_text(make_pr_box().to_json())
        code, out, _ = run_cli(capsys, ["box", "--box", f"file:{path}"])
        assert code == 0
        assert "chsh: 4/1" in out

    def test_faulty_pair_box_text_bytes(self, capsys, tmp_path):
        path = tmp_path / "faulty.json"
        path.write_text(three_fault_box().to_json())
        code, out, err = run_cli(capsys, ["box", "--box", f"file:{path}"])
        assert (code, err) == (0, "")
        assert out == (
            "pair box (s_a=2, s_b=2)\n"
            "settings (0,0): (+;+)=1/4 (+;-)=0/1 (-;+)=0/1 (-;-)=1/4\n"
            "settings (0,1): (+;+)=1/2 (+;-)=0/1 (-;+)=0/1 (-;-)=1/2\n"
            "settings (1,0): (+;+)=1/3 (+;-)=0/1 (-;+)=0/1 (-;-)=2/3\n"
            "settings (1,1): (+;+)=-1/4 (+;-)=3/4 (-;+)=1/2 (-;-)=0/1\n"
            "correlations: <a0 b0>=1/2 <a0 b1>=1/1 <a1 b0>=1/1 <a1 b1>=-3/2\n"
            "chsh: 4/1\n"
            f"validation: {'; '.join(THREE_FAULT_VIOLATIONS)}\n")

    def test_faulty_pair_box_json_bytes(self, capsys, tmp_path):
        path = tmp_path / "faulty.json"
        path.write_text(three_fault_box().to_json())
        code, out, err = run_cli(capsys, ["box", "--box", f"file:{path}", "--format", "json"])
        assert (code, err) == (0, "")
        cells = ["1/4", "0/1", "0/1", "1/4", "1/2", "0/1", "0/1", "1/2",
                 "1/3", "0/1", "0/1", "2/3", "-1/4", "3/4", "1/2", "0/1"]
        table = [[i, j, x, y, p] for (i, j, x, y), p in zip(
            product((0, 1), (0, 1), (1, -1), (1, -1)), cells)]
        assert out == json.dumps({
            "s_a": 2,
            "s_b": 2,
            "table": table,
            "correlations": {"0,0": "1/2", "0,1": "1/1", "1,0": "1/1", "1,1": "-3/2"},
            "valid": False,
            "violations": list(THREE_FAULT_VIOLATIONS),
            "chsh": "4/1",
        }, indent=2) + "\n"

    def test_joint_file_n_mismatch(self, signalling_file):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--box", f"file:{signalling_file}", "--n", "3"])
        assert exc.value.code == 2

    def test_joint_file_outcome_two_rejected(self, capsys, tmp_path):
        entries = [{"settings_a": [i], "settings_b": [j], "outcomes_a": [x],
                    "outcomes_b": [1], "p": "1/2"}
                   for i in (0, 1) for j in (0, 1) for x in (1, 2)]
        path = tmp_path / "outcome-two.json"
        path.write_text(json.dumps({"n": 1, "s_a": 2, "s_b": 2, "entries": entries}))
        with pytest.raises(SystemExit) as exc:
            parse_args(["distribution", "--box", f"file:{path}", "--n", "1"])
        assert exc.value.code == 2
        assert "outcomes must be +1 or -1" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [[2, 0, 1, 1, "1/2"], [0, 0, 2, 1, "1/3"],
                                     [0, 0, 1, 1, "1/2"]])
    def test_pair_box_file_bad_row(self, capsys, tmp_path, row):
        data = json.loads(make_pr_box().to_json())
        data["table"].append(row)
        path = tmp_path / "bad-row.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["box", "--box", f"file:{path}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # One message per fault: the box's grid check, or the loader's repeat check.
        cell = tuple(row[:4])
        expected = (f"pair-box row {row[:4]} is listed twice" if cell in make_pr_box().table
                    else f"pair-box cell {cell} is outside s_a=2, s_b=2")
        assert expected in err and "Traceback" not in err

    @pytest.mark.parametrize("s_a, s_b", [(0, 0), (-1, 0), (2, 0)])
    @pytest.mark.parametrize("argv", [["box"], ["verify", "--n", "2"]])
    def test_pair_box_file_without_settings(self, capsys, tmp_path, s_a, s_b, argv):
        path = tmp_path / "no-settings.json"
        path.write_text(json.dumps({"s_a": s_a, "s_b": s_b, "table": []}))
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--box", f"file:{path}"] + argv[1:])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "at least one setting per side" in err and "Traceback" not in err

    def test_pair_box_file_with_fewer_cells_than_setting_pairs(self, capsys, tmp_path):
        # A few bytes that would otherwise ask for a 360000-cell grid and print it.
        path = tmp_path / "many-settings.json"
        path.write_text('{"s_a": 300, "s_b": 300, "table": []}')
        with pytest.raises(SystemExit) as exc:
            main(["box", "--box", f"file:{path}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "at least one cell per setting pair (90000), got 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("s_a", "2"), ("s_b", 2.0), ("i", True), ("j", 0.0), ("x", 1.9), ("y", "-1"),
    ])
    def test_pair_box_file_non_integer_rejected(self, capsys, tmp_path, field, value):
        # int() would truncate or coerce each value to the one it replaces.
        data = json.loads(make_pr_box().to_json())
        if field in ("s_a", "s_b"):
            data[field] = value
        else:
            row = next(r for r in data["table"] if r[:4] == [1, 0, 1, -1])
            row["ijxy".index(field)] = value
        path = tmp_path / "non-integer.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["box", "--box", f"file:{path}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "malformed pair-box JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("n", 1.5), ("s_a", "2"), ("settings_a", [True]), ("settings_b", [1.7]),
        ("outcomes_a", ["1"]), ("outcomes_b", [-1.2]),
    ])
    def test_joint_file_non_integer_rejected(self, capsys, tmp_path, field, value):
        # int() would truncate or coerce each value to the one it replaces.
        path = tmp_path / "non-integer.json"
        write_joint_file(path, explicit_from_box(make_pr_box(), 1).table, 1)
        data = json.loads(path.read_text())
        if field in ("n", "s_a"):
            data[field] = value
        else:
            entry = next(e for e in data["entries"]
                         if (e["settings_a"], e["settings_b"], e["outcomes_a"],
                             e["outcomes_b"]) == ([1], [1], [1], [-1]))
            entry[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["distribution", "--box", f"file:{path}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "malformed joint-table" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_file_is_usage_error(self, capsys, tmp_path, kind):
        path = tmp_path / "box.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"s_a": 2, \xff}')
        with pytest.raises(SystemExit) as exc:
            main(["box", "--box", f"file:{path}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"cannot read box file {path}" in err and "Traceback" not in err

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, target):
        out_path = tmp_path if target == "directory" else tmp_path / "missing" / "x"
        code = main(["box", "--box", "pr", "--out", str(out_path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text", ["1" * 5000, "[" * 100000 + "]" * 100000],
                             ids=["long-integer", "deep-nesting"])
    def test_unparsable_json_file_is_usage_error(self, capsys, tmp_path, text):
        """json.loads raises ValueError on an over-long integer and
        RecursionError on deep nesting; both are a usage error, not a
        traceback."""
        path = tmp_path / "box.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["box", "--box", f"file:{path}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"box file {path}: invalid box JSON: " in err and "Traceback" not in err

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            parse_args(["box", "--box", f"file:{path}"])
        assert exc.value.code == 2


@st.composite
def box_documents(draw):
    """Parsed JSON for a ``file:`` box: now and then an arbitrary value,
    otherwise mutated pair-box rows or a mutated joint table, whose header
    keys may be replaced by other values or removed."""
    kind = draw(st.sampled_from(["any", "pair", "pair", "joint", "joint"]))
    if kind == "any":
        return draw(JSON_VALUES)
    if kind == "pair":
        return draw(pair_box_json())
    data = draw(mutated_tables())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        key = draw(st.sampled_from(["n", "s_a", "s_b", "entries"]))
        if draw(st.booleans()):
            data[key] = draw(st.one_of(st.integers(-1, 3), JSON_VALUES))
        else:
            data.pop(key, None)
    return data


def quiet_main(argv):
    """``main(argv)``'s exit code, with argparse's SystemExit taken as its
    code, and what it wrote to stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, f"argparse exit {exc.code!r}"
            code = 2
    return code, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(document=box_documents(), n=st.integers(1, 3),
       kind=st.sampled_from(["pair", "quad"]))
def test_fuzzed_box_file_exits_cleanly(tmp_path_factory, document, n, kind):
    """Whatever JSON a ``file:`` box holds, ``box``, ``effective`` and
    ``verify`` exit 0, 1 or 2 and print no traceback: the file loads into
    a model, or the loader or the command refuses it."""
    path = tmp_path_factory.getbasetemp() / "fuzzed-box.json"
    path.write_text(json.dumps(document))
    for argv in (["box"], ["effective", "--kind", kind], ["verify"]):
        code, err = quiet_main(argv + ["--box", f"file:{path}", "--n", str(n)])
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
