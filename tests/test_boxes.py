"""Single-pair box construction, validation, correlators and serialization."""

import json
import math
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobox import (
    ConstructionError,
    DomainError,
    OUTCOMES,
    PairBox,
    SymmetricJPD,
    as_rational,
    chsh_value,
    explicit_joint_from_json,
    make_deterministic_box,
    make_isotropic_box,
    independent_pairs,
    macro_distribution_bruteforce,
    make_pr_box,
    pair_correlation,
    rational_to_str,
    validate_pairbox,
)
from tests.conftest import (
    THREE_FAULT_VIOLATIONS,
    mixed_denominator_box,
    no_signalling_boxes,
    no_signalling_vertices,
    three_fault_box,
)

F = Fraction


def four_term_correlator(box, i, j):
    """Oracle: the explicit signed four-term sum defining <a_i b_j>."""
    return (box.prob(i, j, 1, 1) + box.prob(i, j, -1, -1)
            - box.prob(i, j, 1, -1) - box.prob(i, j, -1, 1))


class TestPrBox:
    def test_table_values(self):
        pr = make_pr_box()
        assert pr.prob(0, 0, 1, 1) == F(1, 2)
        assert pr.prob(0, 0, 1, -1) == 0
        assert pr.prob(1, 1, 1, -1) == F(1, 2)
        assert pr.prob(1, 1, 1, 1) == 0

    def test_correlations(self):
        pr = make_pr_box()
        assert pair_correlation(pr, 0, 1) == 1
        assert pair_correlation(pr, 1, 1) == -1
        for i, j in product((0, 1), repeat=2):
            assert pair_correlation(pr, i, j) == (-1) ** (i * j)

    def test_uniform_marginals(self):
        pr = make_pr_box()
        for i in (0, 1):
            for x in OUTCOMES:
                assert pr.marginal_a(i, x) == F(1, 2)
                assert pr.marginal_b(i, x) == F(1, 2)

    def test_validates_clean(self):
        assert validate_pairbox(make_pr_box()).ok

    @pytest.mark.parametrize("setting", [0.5, 1.0, True, False, "0", None])
    def test_refuses_non_int_settings(self, setting):
        # A float inside the range, or a bool, would read a cell as 0 or
        # as the setting it compares equal to.
        pr = make_pr_box()
        with pytest.raises(DomainError, match=re.escape(f"alice setting {setting!r}")):
            pr.prob(setting, 0, 1, 1)
        with pytest.raises(DomainError, match=re.escape(f"bob setting {setting!r}")):
            pr.prob(0, setting, 1, 1)
        with pytest.raises(DomainError):
            pr.marginal_a(setting, 1)
        with pytest.raises(DomainError):
            pr.marginal_b(setting, 1)

    def test_chsh_is_four(self):
        pr = make_pr_box()
        oracle = (four_term_correlator(pr, 0, 0) + four_term_correlator(pr, 0, 1)
                  + four_term_correlator(pr, 1, 0) - four_term_correlator(pr, 1, 1))
        assert oracle == 4
        assert chsh_value(pr) == 4


class TestIsotropicBox:
    def test_zero_visibility_is_uniform(self):
        box = make_isotropic_box(0)
        for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES):
            assert box.prob(i, j, x, y) == F(1, 4)

    def test_full_visibility_is_pr(self):
        assert make_isotropic_box(1).table == make_pr_box().table

    def test_half_visibility_cell(self):
        # direct evaluation of the law: (1 + (1/2)(-1)(+1)(+1)) / 4 = 1/8
        assert make_isotropic_box(F(1, 2)).prob(1, 1, 1, 1) == F(1, 8)

    def test_half_visibility_correlation(self):
        box = make_isotropic_box(F(1, 2))
        assert four_term_correlator(box, 0, 0) == F(1, 2)
        assert pair_correlation(box, 0, 0) == F(1, 2)

    def test_chsh_scales_with_visibility(self):
        assert chsh_value(make_isotropic_box(F(1, 2))) == 2

    @pytest.mark.parametrize("bad", [F(3, 2), F(-3, 2), 2, -2])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            make_isotropic_box(bad)

    @given(visibility=st.fractions(min_value=-1, max_value=1))
    def test_correlation_law(self, visibility):
        box = make_isotropic_box(visibility)
        for i, j in product((0, 1), repeat=2):
            assert pair_correlation(box, i, j) == visibility * (-1) ** (i * j)
        assert chsh_value(box) == 4 * visibility
        assert validate_pairbox(box).ok

    @given(visibility=st.fractions(min_value=-1, max_value=1))
    def test_uniform_marginals(self, visibility):
        box = make_isotropic_box(visibility)
        for i in (0, 1):
            for x in OUTCOMES:
                assert box.marginal_a(i, x) == F(1, 2)
                assert box.marginal_b(i, x) == F(1, 2)


class TestDeterministicBox:
    def test_point_mass(self):
        box = make_deterministic_box(1, 1, 1, 1)
        assert box.prob(0, 0, 1, 1) == 1
        assert box.prob(0, 0, 1, -1) == 0

    def test_mixed_assignment(self):
        box = make_deterministic_box(1, -1, 1, -1)
        assert box.prob(1, 1, -1, -1) == 1

    def test_chsh_classical_value(self):
        assert chsh_value(make_deterministic_box(1, 1, 1, 1)) == 2

    @pytest.mark.parametrize("outcomes", list(product(OUTCOMES, repeat=4)))
    def test_all_vertices_validate(self, outcomes):
        assert validate_pairbox(make_deterministic_box(*outcomes)).ok

    def test_rejects_non_outcomes(self):
        with pytest.raises(DomainError):
            make_deterministic_box(0, 1, 1, 1)


class TestValidation:
    def test_flags_signalling_marginal(self):
        # Alice's marginal at i=0 is fair via j=0 but deterministic via j=1.
        table = dict(make_pr_box().table)
        table[(0, 1, 1, 1)] = F(1, 2)
        table[(0, 1, 1, -1)] = F(1, 2)
        table[(0, 1, -1, 1)] = F(0)
        table[(0, 1, -1, -1)] = F(0)
        report = validate_pairbox(PairBox(s_a=2, s_b=2, table=table))
        kinds = {v.kind for v in report.violations}
        assert "no-signalling" in kinds

    def test_flags_bad_normalization(self):
        table = {k: v / 2 if k[:2] == (0, 0) else v
                 for k, v in make_pr_box().table.items()}
        report = validate_pairbox(PairBox(s_a=2, s_b=2, table=table))
        bad = [v for v in report.violations if v.kind == "normalization"]
        assert len(bad) == 1
        assert bad[0].where == (0, 0)
        assert bad[0].residual == F(-1, 2)

    def test_flags_negative_entry(self):
        table = dict(make_pr_box().table)
        table[(0, 0, 1, -1)] = F(-1, 4)
        table[(0, 0, 1, 1)] = F(3, 4)
        report = validate_pairbox(PairBox(s_a=2, s_b=2, table=table))
        assert any(v.kind == "negativity" for v in report.violations)

    def test_full_report_text(self):
        # Every fault kind in one box: the report's order, residuals and
        # detail texts are pinned as one string.
        report = validate_pairbox(three_fault_box())
        assert [v.kind for v in report.violations] == (
            ["normalization", "negativity"] + ["no-signalling"] * 8)
        assert str(report) == "; ".join(THREE_FAULT_VIOLATIONS)

    def test_integer_cells_validate(self):
        table = {(i, j, x, y): int(x == 1 and y == 1)
                 for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES)}
        assert validate_pairbox(PairBox(s_a=2, s_b=2, table=table)).ok

    @given(box=no_signalling_boxes())
    def test_random_mixtures_validate(self, box):
        assert validate_pairbox(box).ok

    @pytest.mark.parametrize("s_a, s_b", [(0, 0), (-1, 2), (2, 0)])
    def test_rejects_a_side_without_settings(self, s_a, s_b):
        with pytest.raises(ConstructionError, match="at least one setting"):
            PairBox(s_a=s_a, s_b=s_b, table={})

    @pytest.mark.parametrize("s_a, s_b, message", [
        (True, 2, "s_a must be an int, got True"),
        (2, 2.0, "s_b must be an int, got 2.0"),
        ("2", 2, "s_a must be an int, got '2'"),
    ])
    def test_rejects_a_setting_count_that_is_not_an_int(self, s_a, s_b, message):
        with pytest.raises(ConstructionError) as info:
            PairBox(s_a=s_a, s_b=s_b, table=make_pr_box().table)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [0.25, True, "1/4"])
    def test_rejects_cells_that_are_not_int_or_fraction(self, value):
        # A float table sums to 1.0 and would otherwise pass validation.
        table = {key: value for key in make_pr_box().table}
        with pytest.raises(ConstructionError, match="not an int or a Fraction"):
            PairBox(s_a=2, s_b=2, table=table)

    @pytest.mark.parametrize("extra", [
        {(7, 7, 7, 7): F(1, 3), (0, 0, 2, 1): F(1, 5)}, {(2, 0, 1, 1): 0},
        {(0, -1, 1, 1): 0}, {(0, 0, 1, 0): 0}, {(0, 0, 1): 0}, {"cell": 0},
    ])
    def test_rejects_cells_outside_the_grid(self, extra):
        # Such cells would never be read, so the box would validate as the
        # PR box while holding data no kernel sees.
        with pytest.raises(ConstructionError, match="outside s_a=2, s_b=2"):
            PairBox(s_a=2, s_b=2, table=dict(make_pr_box().table) | extra)

    def test_rejects_fewer_cells_than_setting_pairs(self):
        # A setting pair without a listed cell cannot sum to 1; the check
        # runs before the s_a x s_b grid is built.
        with pytest.raises(ConstructionError, match=r"one cell per setting pair \(90000\), got 0"):
            PairBox(s_a=300, s_b=300, table={})
        one_each = {(i, j, 1, 1): 1 for i in range(3) for j in range(2)}
        with pytest.raises(ConstructionError, match=r"\(6\), got 5"):
            PairBox(s_a=3, s_b=2, table=dict(list(one_each.items())[:5]))
        assert validate_pairbox(PairBox(s_a=3, s_b=2, table=one_each)).ok

    def test_chsh_needs_two_settings(self):
        pr = make_pr_box()
        stripped = PairBox(s_a=1, s_b=2, table={
            k: v for k, v in pr.table.items() if k[0] == 0})
        with pytest.raises(DomainError):
            chsh_value(stripped)


def int_cell_box():
    """The all-(+,+) deterministic box with int cells."""
    return PairBox(s_a=2, s_b=2, table={(i, j, x, y): int(x == y == 1)
                                        for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES)})


def omitted_zero_box():
    """The PR box with its zero cells left out."""
    return PairBox(s_a=2, s_b=2, table={k: p for k, p in make_pr_box().table.items() if p})


class TestIntegerForm:
    """``scale`` and ``weights`` against the Fraction cells they derive from."""

    @given(box=st.one_of(no_signalling_boxes(), st.sampled_from(
        no_signalling_vertices() + [int_cell_box(), omitted_zero_box(),
                                    mixed_denominator_box(), three_fault_box()])))
    def test_weights_are_the_grid_scaled_by_its_lcm(self, box):
        grid = list(product(range(box.s_a), range(box.s_b), OUTCOMES, OUTCOMES))
        assert list(box.weights) == grid
        assert box.scale == math.lcm(*(box.prob(*key).denominator for key in grid))
        for key, weight in box.weights.items():
            assert type(weight) is int
            assert weight == box.prob(*key) * box.scale
        with pytest.raises(TypeError):
            box.weights[grid[0]] = 0

    @given(box=st.one_of(no_signalling_boxes(), st.sampled_from(
        [int_cell_box(), omitted_zero_box(), mixed_denominator_box(), three_fault_box()])))
    def test_pair_correlation_is_the_fraction_cell_sum(self, box):
        for i, j in product(range(box.s_a), range(box.s_b)):
            expected = sum(x * y * box.prob(i, j, x, y) for x in OUTCOMES for y in OUTCOMES)
            assert pair_correlation(box, i, j) == expected
        with pytest.raises(DomainError, match="alice setting 0.5 out of range"):
            pair_correlation(box, 0.5, 0)

    def test_one_row_box(self):
        box = PairBox(s_a=1, s_b=3, table={(0, j, 1, -1): F(1, j + 2) for j in range(3)}
                      | {(0, j, -1, 1): F(j + 1, j + 2) for j in range(3)})
        assert box.scale == 12
        assert [box.weights[(0, j, 1, -1)] for j in range(3)] == [6, 4, 3]
        assert sum(box.weights.values()) == 3 * box.scale

    def test_is_derived_not_set(self):
        with pytest.raises(TypeError):
            PairBox(s_a=2, s_b=2, table=make_pr_box().table, scale=1)
        with pytest.raises(TypeError):
            PairBox(s_a=2, s_b=2, table=make_pr_box().table, weights={})
        assert "weights" not in repr(make_pr_box())

    def test_omitted_zero_cells_read_as_zero_weights(self):
        assert omitted_zero_box().weights == make_pr_box().weights


class TestSerialization:
    def test_rational_strings(self):
        assert rational_to_str(F(0)) == "0/1"
        assert rational_to_str(F(-1, 2)) == "-1/2"
        assert as_rational("3/6") == F(1, 2)
        with pytest.raises(DomainError):
            as_rational("3/0")
        with pytest.raises(DomainError):
            as_rational("nope")

    @pytest.mark.parametrize("text", ["1e-1000000", "1E3", "2.5e0", "1/1e2"])
    def test_decimal_exponent_refused(self, text):
        with pytest.raises(DomainError, match="has a decimal exponent"):
            as_rational(text)

    def test_plain_decimals_and_ratios_load(self):
        assert as_rational("0.25") == F(1, 4)
        assert as_rational("-3/6") == F(-1, 2)
        assert as_rational(7) == 7

    def test_pair_box_round_trip(self):
        pr = make_pr_box()
        text = pr.to_json()
        again = PairBox.from_json(text)
        assert again.table == pr.table
        assert again.to_json() == text

    @given(box=no_signalling_boxes())
    def test_round_trip_random(self, box):
        assert PairBox.from_json(box.to_json()).table == box.table

    @pytest.mark.parametrize("load,what", [(PairBox.from_json, "pair-box"),
                                           (explicit_joint_from_json, "joint-table"),
                                           (SymmetricJPD.from_json, "jpd")],
                             ids=["pair-box", "joint-table", "jpd"])
    @pytest.mark.parametrize("text", ['{"n": ' + "1" * 5000 + "}",
                                      "[" * 100000 + "]" * 100000],
                             ids=["long-integer", "deep-nesting"])
    def test_unparsable_json_is_a_construction_error(self, load, what, text):
        """An integer too long for int() and nesting too deep for the
        decoder raise ValueError and RecursionError from json.loads; every
        loader refuses them as malformed input."""
        with pytest.raises(ConstructionError, match=f"^invalid {what} JSON: "):
            load(text)


def pr_rows():
    return [[i, j, x, y, str(p)] for i, j, x, y, p in make_pr_box().cells()]


def _pr_box_with_half_cell(text):
    rows = pr_rows()
    rows[next(k for k, row in enumerate(rows) if row[4] == "1/2")][4] = text
    return PairBox.from_data({"s_a": 2, "s_b": 2, "table": rows})


def _pr_table_with_half_cell(text):
    entries = [{"settings_a": [i], "settings_b": [j], "outcomes_a": [x], "outcomes_b": [y],
                "p": "1/2"} for i, j, x, y, p in make_pr_box().cells() if p]
    entries[0]["p"] = text
    return explicit_joint_from_json(json.dumps({"n": 1, "s_a": 2, "s_b": 2,
                                                "entries": entries}))


def _one_slot_jpd_with_half_cell(text):
    group = {"setting": 0, "copies": 1}
    entries = [{"outcomes": "(+;+)", "p": text}, {"outcomes": "(+;-)", "p": "0"},
               {"outcomes": "(-;+)", "p": "0"}, {"outcomes": "(-;-)", "p": "1/2"}]
    return SymmetricJPD.from_json(json.dumps({"schema": {"alice": [group], "bob": [group]},
                                              "entries": entries, "valid": True}))


#: Up to two characters of ASCII whitespace, as ``\s`` matches it in ``_RATIONAL``.
ASCII_SPACE = st.text(" \t\n\r\x0b\x0c", max_size=2)


def padded_digits(least):
    """Decimal digits of an int of at least ``least``, after 0 to 3 zeros."""
    return st.builds(lambda zeros, value: "0" * zeros + str(value),
                     st.integers(0, 3), st.integers(least, 10 ** 40))


#: Every reader of a rational string, each given one cell whose value is 1/2.
RATIONAL_READERS = {"as_rational": as_rational, "pair-box": _pr_box_with_half_cell,
                    "joint-table": _pr_table_with_half_cell,
                    "jpd": _one_slot_jpd_with_half_cell}


class TestRationalGrammar:
    """One ASCII grammar on every Python version.  ``Fraction`` reads
    underscores from 3.11 on, spaces around "/" from 3.12 on, and
    non-ASCII digits everywhere; each reader refuses all three."""

    @pytest.mark.parametrize("read", RATIONAL_READERS.values(), ids=RATIONAL_READERS.keys())
    @pytest.mark.parametrize("text", ["1_0/2_0", "1 / 2", "\u0661/\u0662"],
                             ids=["underscores", "spaced-slash", "arabic-indic-digits"])
    def test_version_dependent_spellings_refused(self, read, text):
        with pytest.raises((DomainError, ConstructionError)) as info:
            read(text)
        assert f"not a rational: {text!r}" in f"{info.value} {info.value.__cause__}"

    @pytest.mark.parametrize("read", RATIONAL_READERS.values(), ids=RATIONAL_READERS.keys())
    @pytest.mark.parametrize("text", ["+1/2", "0.5", ".5", " 1/2 ", "2/4", "\t1/2\n"])
    def test_ascii_spellings_of_one_half_load(self, read, text):
        assert read(text) == read("1/2")

    @pytest.mark.parametrize("text, value", [
        ("3", F(3)), ("-2/7", F(-2, 7)), ("+1/3", F(1, 3)), ("0.25", F(1, 4)),
        (".5", F(1, 2)), ("5.", F(5)), (" 1/3 ", F(1, 3))])
    def test_still_loads(self, text, value):
        assert as_rational(text) == value

    @settings(max_examples=300, deadline=None)
    @given(text=st.builds("".join, st.tuples(
        ASCII_SPACE, st.sampled_from(("", "+", "-")), padded_digits(0),
        st.one_of(st.just(""), padded_digits(1).map("/".__add__)), ASCII_SPACE)))
    def test_integer_and_ratio_texts_read_as_fraction_reads_them(self, text):
        # The texts of \s*[+-]?\d+(/\d+)?\s* in ASCII, leading zeros
        # included, with a denominator that is not 0.  The Fraction is
        # built from the matched digit groups, not by a second parse.
        value = as_rational(text)
        assert type(value) is F and value == F(text)

    @pytest.mark.parametrize("text, message", [
        ("3/0", "not a rational: '3/0'"),
        (" -07/000 ", "not a rational: ' -07/000 '"),
        ("1e3", "not a rational: '1e3' has a decimal exponent"),
        ("1/1e2", "not a rational: '1/1e2' has a decimal exponent"),
        ("1_0/3", "not a rational: '1_0/3'"),
        ("\u0663/\u0664", "not a rational: '\u0663/\u0664'"),
        ("1" * 5000, f"not a rational: {'1' * 5000!r}"),
        ("1/" + "1" * 5000, f"not a rational: {'1/' + '1' * 5000!r}"),
        ("-" + "2" * 5000 + "/3", f"not a rational: {'-' + '2' * 5000 + '/3'!r}"),
        ("0." + "1" * 5000, f"not a rational: {'0.' + '1' * 5000!r}")],
        ids=["zero-denominator", "padded-zero-denominator", "exponent", "ratio-exponent",
             "underscore", "non-ascii-digits", "long-integer", "long-denominator",
             "long-numerator", "long-decimal"])
    def test_refusal_messages(self, text, message):
        with pytest.raises(DomainError) as info:
            as_rational(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("raw, value", [
        ("1/2", F(1, 2)), (" -3/6 ", F(-1, 2)), ("5.", F(5)), (".5", F(1, 2)),
        ("1_0", None), ("1 / 2", None), ("\u0663", None), ("1e3", None), (".", None),
        ("1/0", None), ("+", None), ("1/-2", None)])
    def test_fuzz_reference_reads_the_same_grammar(self, raw, value):
        assert reference_rational(raw) == value
        if value is None:
            with pytest.raises(DomainError):
                as_rational(raw)
        else:
            assert as_rational(raw) == value


class TestFromDataRows:
    @pytest.mark.parametrize("row", [[2, 0, 1, 1, "1/2"], [0, -1, 1, 1, "1/2"],
                                     [0, 0, 2, 1, "1/3"], [0, 0, 1, 0, "1/3"]])
    def test_rejects_out_of_range_rows(self, row):
        with pytest.raises(ConstructionError, match=r"pair-box cell .* is outside s_a=2, s_b=2"):
            PairBox.from_data({"s_a": 2, "s_b": 2, "table": pr_rows() + [row]})

    def test_rejects_duplicate_row(self):
        rows = pr_rows()
        with pytest.raises(ConstructionError, match="listed twice"):
            PairBox.from_data({"s_a": 2, "s_b": 2, "table": rows + [rows[0]]})

    def test_rejects_decimal_exponent_cell(self):
        rows = pr_rows()
        rows[0][4] = "1e-1000000"
        with pytest.raises(ConstructionError, match="has a decimal exponent"):
            PairBox.from_data({"s_a": 2, "s_b": 2, "table": rows})

    def test_accepts_complete_table(self):
        box = PairBox.from_data({"s_a": 2, "s_b": 2, "table": pr_rows()})
        assert box == make_pr_box()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=12)
CELL_FIELDS = st.one_of(st.sampled_from([0, 1, -1, 2]), JSON_VALUES)
CELL_VALUES = st.one_of(
    st.sampled_from(["1/2", "1/4", "3/4", "0", "1", "-1/4", " 1/2", "2/4", "1/0", "half"]),
    st.integers(-1, 1), JSON_VALUES)


@st.composite
def pair_box_json(draw):
    """Parsed JSON: now and then an arbitrary value, otherwise the rows of
    a random box (no-signalling or not), in any order, with up to three
    mutations: a field or a header value replaced by another value, a row
    dropped, repeated or cut short, or a top-level key removed."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    if draw(st.booleans()):
        box = draw(no_signalling_boxes())
    else:
        s_a, s_b = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        table = {}
        for i, j in product(range(s_a), range(s_b)):
            weights = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
            for (x, y), w in zip(product(OUTCOMES, OUTCOMES), weights):
                table[(i, j, x, y)] = F(w, sum(weights))
        box = PairBox(s_a=s_a, s_b=s_b, table=table)
    rows = [[i, j, x, y, rational_to_str(p)] for i, j, x, y, p in box.cells()
            if p or draw(st.booleans())]
    data = {"s_a": box.s_a, "s_b": box.s_b, "table": draw(st.permutations(rows))}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["field", "header", "drop", "repeat", "cut", "key"]))
        rows = data.get("table")
        if kind in ("field", "drop", "repeat", "cut") and isinstance(rows, list) and rows:
            k = draw(st.integers(0, len(rows) - 1))
            if kind == "field" and isinstance(rows[k], list) and rows[k]:
                field = draw(st.integers(0, len(rows[k]) - 1))
                rows[k][field] = draw(CELL_VALUES if field == 4 else CELL_FIELDS)
            elif kind == "drop":
                del rows[k]
            elif kind == "repeat":
                rows.append(rows[k])
            elif kind == "cut" and isinstance(rows[k], list):
                rows[k] = rows[k][:-1]
        elif kind == "header" and data:
            data[draw(st.sampled_from(sorted(data)))] = draw(
                st.one_of(st.integers(-1, 3), JSON_VALUES))
        elif kind == "key" and data:
            del data[draw(st.sampled_from(sorted(data)))]
    return data


def reference_pair_box(data):
    """The Fraction table of pair-box JSON, read by the rules of the format
    from scratch, or None for data that must be refused."""
    if not isinstance(data, dict) or not {"s_a", "s_b", "table"} <= data.keys():
        return None
    s_a, s_b, rows = data["s_a"], data["s_b"], data["table"]
    if type(s_a) is not int or type(s_b) is not int or min(s_a, s_b) < 1:
        return None
    if not isinstance(rows, list) or len(rows) < s_a * s_b:
        return None
    table = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != 5:
            return None
        *key, raw = row
        key = tuple(key)
        if not all(type(v) is int for v in key) or key in table:
            return None
        if not (key[0] in range(s_a) and key[1] in range(s_b) and set(key[2:]) <= {1, -1}):
            return None
        if type(raw) is int:
            table[key] = F(raw)
        elif type(raw) is str and (value := reference_rational(raw)) is not None:
            table[key] = value
        else:
            return None
    return table


def reference_rational(raw):
    """The Fraction that a cell string spells in the format's ASCII grammar
    (a sign, then digits with an optional "/digits", or a plain decimal,
    with surrounding whitespace), or None for a string it must refuse."""
    def digits(text):
        return text.isascii() and text.isdigit()

    body = raw.strip(" \t\n\r\x0b\x0c")
    unsigned = body[1:] if body[:1] in ("+", "-") else body
    numerator, slash, denominator = unsigned.partition("/")
    whole, point, decimals = unsigned.partition(".")
    if slash:
        spelled = digits(numerator) and digits(denominator) and int(denominator) != 0
    elif point:
        spelled = bool(whole or decimals) and all(digits(t) for t in (whole, decimals) if t)
    else:
        spelled = digits(unsigned)
    return F(body) if spelled else None


def reference_valid(s_a, s_b, table):
    """Normalised, nonnegative and no-signalling, checked cell by cell."""
    def p(i, j, x, y):
        return table.get((i, j, x, y), F(0))

    if any(v < 0 for v in table.values()):
        return False
    for i, j in product(range(s_a), range(s_b)):
        if sum(p(i, j, x, y) for x in OUTCOMES for y in OUTCOMES) != 1:
            return False
    alice = {(i, x): {sum(p(i, j, x, y) for y in OUTCOMES) for j in range(s_b)}
             for i in range(s_a) for x in OUTCOMES}
    bob = {(j, y): {sum(p(i, j, x, y) for x in OUTCOMES) for i in range(s_a)}
           for j in range(s_b) for y in OUTCOMES}
    return all(len(via) == 1 for via in list(alice.values()) + list(bob.values()))


@settings(max_examples=300, deadline=None)
@given(data=pair_box_json())
def test_fuzzed_pair_box_json_loads_exactly_or_is_refused(data):
    """Any parsed JSON either loads into the box its rows spell, whose
    validation verdict matches a cell-by-cell check, or is refused with
    ConstructionError, never a raw TypeError, KeyError or ValueError."""
    expected = reference_pair_box(data)
    try:
        box = PairBox.from_data(data)
    except ConstructionError:
        assert expected is None
        return
    assert expected is not None
    assert dict(box.table) == expected
    assert validate_pairbox(box).ok == reference_valid(box.s_a, box.s_b, expected)
    assert PairBox.from_json(box.to_json()) == box


class TestFrozenTable:
    def test_item_assignment_raises(self):
        box = make_pr_box()
        with pytest.raises(TypeError):
            box.table[(0, 0, 1, 1)] = F(1)
        with pytest.raises(TypeError):
            del box.table[(0, 0, 1, 1)]

    def test_mutation_after_model_build_cannot_be_written(self):
        box = make_isotropic_box(F(1, 2))
        model = independent_pairs(box, 1)
        before = list(macro_distribution_bruteforce(model, 0, 0).rows())
        with pytest.raises(TypeError):
            box.table[(0, 0, 1, 1)] = F(1)
        assert list(macro_distribution_bruteforce(model, 0, 0).rows()) == before

    def test_source_dict_is_copied(self):
        table = dict(make_pr_box().table)
        box = PairBox(s_a=2, s_b=2, table=table)
        table[(0, 0, 1, 1)] = F(1)
        assert box.prob(0, 0, 1, 1) == F(1, 2)

    def test_equality_is_by_value(self):
        assert make_pr_box() == make_pr_box()
        assert make_pr_box().table == make_pr_box().table
        assert make_pr_box() != make_isotropic_box(F(1, 2))

    def test_omitted_zero_cells_compare_equal(self):
        # Equality reads the complete integer grid, so a box that leaves
        # its zero cells out equals its to_json round trip, which lists them.
        box = omitted_zero_box()
        assert box.table != make_pr_box().table
        assert box == make_pr_box() == PairBox.from_json(box.to_json())
        assert box != PairBox(s_a=2, s_b=2, table=dict(box.table) | {(0, 0, 1, -1): F(0, 1),
                                                                       (0, 0, 1, 1): F(1, 3)})
