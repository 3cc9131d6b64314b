"""Command-line interface: parsing, dispatch, formats, exit codes, determinism."""

import json
import math
from fractions import Fraction
from itertools import product

import pytest

from macrobox import MacroDistribution, SymmetricJPD, make_pr_box
from macrobox.cli import build_parser, main, parse_args
from macrobox.errors import DomainError
from tests.conftest import explicit_from_box, mixed_denominator_box, signalling_joint_table

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

    def test_pr_above_exhaustive_limit_text(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--box", "pr", "--n", "7"])
        assert (code, err) == (0, "")
        assert out == (
            "PASS normalization: box table normalized for every setting pair\n"
            "PASS no-signalling: all single-particle setting swaps agree\n"
            "PASS marginal-identities: averages-JPD marginals equal the effective pair "
            "distribution\n"
            "PASS path-agreement: microscopic and effective routes agree\n"
            "PASS oracle-agreement: moment expansion matches the convolution (k=1,2); "
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
                            f"convolution (k=1,2); 4^n enumeration skipped for n={n} > 6")
        assert lines[-1] == "result: PASS (7 checks, 0 failed, 0 skipped)"

    def test_oracle_row_checks_above_exhaustive_limit(self, capsys, monkeypatch):
        monkeypatch.setattr("macrobox.cli.macro_moment_general",
                            lambda model, i, j, order: F(1, 3))
        code, out, err = run_cli(capsys, ["verify", "--box", "isotropic:1/3", "--n", "7"])
        assert (code, err) == (1, "")
        assert "FAIL oracle-agreement: <(A1 B1)^2> expansion 1/3 != convolution " in out
        assert out.splitlines()[-1] == "result: FAIL (7 checks, 1 failed, 0 skipped)"

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
    """The convolution (pair boxes) and the enumeration (joint tables) print
    the same bytes for the same physics."""

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
            probs = {key: F(0) for key in product((-2, 0, 2), repeat=2)}
            probs[(2, 2)] = F(1)
            return MacroDistribution(n=2, alice_setting=i, bob_setting=j, probs=probs)

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
        assert "pair-box row" in err and "Traceback" not in err

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

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            parse_args(["box", "--box", f"file:{path}"])
        assert exc.value.code == 2
