"""The joint-table loaders: every error text, and a fuzz of the JSON loader.

The pinned messages are the loaders' established reports, one case per
fault kind and per rule of precedence, for JSON entries and for tables of
Fraction blocks alike.
"""

import copy
import gc
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobox import (
    ConstructionError,
    DomainError,
    OUTCOMES,
    OutcomeAssignment,
    SettingAssignment,
    check_no_signalling,
    explicit_joint,
    explicit_joint_from_json,
    macro_distribution_bruteforce,
    marginal,
)
from macrobox import cli, ensemble
from macrobox.ensemble import explicit_joint_from_data
from tests.conftest import explicit_from_box, mixed_denominator_box

F = Fraction
HALF = "1/2"


def pr_entries():
    """The one-pair PR box as JSON entries, block by block."""
    return [{"settings_a": [i], "settings_b": [j], "outcomes_a": [x], "outcomes_b": [y],
             "p": HALF}
            for i, j in product((0, 1), repeat=2)
            for x, y in product(OUTCOMES, repeat=2) if (x * y == -1) == (i * j == 1)]


def pr_data(**header):
    return {"n": 1, "s_a": 2, "s_b": 2, "entries": pr_entries()} | header


def pr_table():
    """The one-pair PR box as a table of Fraction blocks."""
    table = {}
    for e in pr_entries():
        block = table.setdefault((tuple(e["settings_a"]), tuple(e["settings_b"])), {})
        block[(tuple(e["outcomes_a"]), tuple(e["outcomes_b"]))] = F(e["p"])
    return table


def edited(data, *edits):
    """A deep copy of ``data`` with each ``(entry index, field, value)``
    set; a value of ``None`` deletes the field."""
    data = copy.deepcopy(data)
    for index, name, value in edits:
        if value is None:
            del data["entries"][index][name]
        else:
            data["entries"][index][name] = value
    return data


def without_block(data, i, j):
    data = copy.deepcopy(data)
    data["entries"] = [e for e in data["entries"]
                       if (e["settings_a"], e["settings_b"]) != ([i], [j])]
    return data


def moved(data, source, target):
    """``data`` with entry ``source`` moved to position ``target``."""
    data = copy.deepcopy(data)
    data["entries"].insert(target, data["entries"].pop(source))
    return data


def table_with(*blocks):
    """:func:`pr_table` with each ``(setting key, block)`` replaced, a
    block of ``None`` deleted."""
    table = pr_table()
    for key, block in blocks:
        if block is None:
            del table[key]
        else:
            table[key] = block
    return table


# Entries 0-1 are block (0,);(0,), 2-3 (0,);(1,), 4-5 (1,);(0,), 6-7 (1,);(1,).
JSON_CASES = [
    ("entry-not-an-object", lambda: pr_data(entries=[5] + pr_entries()),
     ConstructionError, "malformed joint-table entry 5"),
    ("entry-without-p", lambda: edited(pr_data(), (3, "p", None)),
     ConstructionError, "malformed joint-table entry {'settings_a': [0], 'settings_b': [1], "
                        "'outcomes_a': [-1], 'outcomes_b': [-1]}"),
    ("list-not-a-list", lambda: edited(pr_data(), (1, "settings_b", 0)),
     ConstructionError, "malformed joint-table entry {'settings_a': [0], 'settings_b': 0, "
                        "'outcomes_a': [-1], 'outcomes_b': [-1], 'p': '1/2'}"),
    ("bool-in-a-list", lambda: edited(pr_data(), (2, "outcomes_a", [True])),
     ConstructionError, "malformed joint-table entry {'settings_a': [0], 'settings_b': [1], "
                        "'outcomes_a': [True], 'outcomes_b': [1], 'p': '1/2'}"),
    ("float-in-a-list", lambda: edited(pr_data(), (5, "settings_a", [1.0])),
     ConstructionError, "malformed joint-table entry {'settings_a': [1.0], 'settings_b': [0], "
                        "'outcomes_a': [-1], 'outcomes_b': [-1], 'p': '1/2'}"),
    ("p-bool", lambda: edited(pr_data(), (0, "p", True)),
     ConstructionError, "malformed joint-table entry {'settings_a': [0], 'settings_b': [0], "
                        "'outcomes_a': [1], 'outcomes_b': [1], 'p': True}"),
    ("p-float", lambda: edited(pr_data(), (0, "p", 0.5)),
     ConstructionError, "malformed joint-table entry {'settings_a': [0], 'settings_b': [0], "
                        "'outcomes_a': [1], 'outcomes_b': [1], 'p': 0.5}"),
    ("p-zero-denominator", lambda: edited(pr_data(), (0, "p", "1/0")),
     ConstructionError, "malformed joint-table entry {'settings_a': [0], 'settings_b': [0], "
                        "'outcomes_a': [1], 'outcomes_b': [1], 'p': '1/0'}"),
    ("p-junk", lambda: edited(pr_data(), (0, "p", "half")),
     ConstructionError, "malformed joint-table entry {'settings_a': [0], 'settings_b': [0], "
                        "'outcomes_a': [1], 'outcomes_b': [1], 'p': 'half'}"),
    ("header-without-n", lambda: {"s_a": 2, "s_b": 2, "entries": []},
     ConstructionError, "malformed joint-table JSON: 'n'"),
    ("header-bool-n", lambda: pr_data(n=True),
     ConstructionError, "malformed joint-table JSON: not an integer: True"),
    ("entries-not-a-list", lambda: pr_data(entries=5),
     ConstructionError, "malformed joint-table JSON: 'int' object is not iterable"),
    ("no-pairs", lambda: pr_data(n=0), DomainError, "need at least one pair, got n=0"),
    ("no-settings", lambda: pr_data(s_b=0), DomainError, "each side needs at least one setting"),
    ("no-entries", lambda: pr_data(entries=[]), ConstructionError, "empty joint table"),
    ("setting-key-length", lambda: edited(pr_data(), (4, "settings_a", [1, 0])),
     ConstructionError, "setting key (1, 0);(0,) does not list n=1 settings per side"),
    ("setting-out-of-range", lambda: edited(pr_data(), (6, "settings_b", [2])),
     ConstructionError, "setting key (1,);(2,) has a setting outside s_a=2, s_b=2"),
    ("outcome-zero", lambda: edited(pr_data(), (1, "outcomes_b", [0])),
     ConstructionError, "outcomes must be +1 or -1, got (-1,);(0,) at settings (0,);(0,)"),
    ("outcome-two", lambda: edited(pr_data(), (7, "outcomes_a", [2])),
     ConstructionError, "outcomes must be +1 or -1, got (2,);(1,) at settings (1,);(1,)"),
    ("outcome-tuple-length", lambda: edited(pr_data(), (3, "outcomes_a", [-1, 1])),
     ConstructionError, "outcome tuple length mismatch at settings (0,);(1,)"),
    ("negative", lambda: edited(pr_data(), (4, "p", "3/2"), (5, "p", "-1/2")),
     ConstructionError, "negative probability -1/2 at settings (1,);(0,), outcomes (-1,);(-1,)"),
    ("total", lambda: edited(pr_data(), (6, "p", "1/4")),
     ConstructionError, "outcomes for setting assignment (1,);(1,) sum to 3/4, not 1"),
    ("missing-block", lambda: without_block(pr_data(), 1, 0),
     ConstructionError, "outcomes for setting assignment (1,);(0,) sum to 0, not 1"),
    ("repeat-summed-to-a-wrong-total", lambda: pr_data(entries=pr_entries() + pr_entries()[:1]),
     ConstructionError, "outcomes for setting assignment (0,);(0,) sum to 3/2, not 1"),
    # Precedence: a malformed entry first, then the shape, then bad keys and
    # outcomes by the block first met, then the held faults in product order.
    ("malformed-after-a-bad-outcome",
     lambda: edited(pr_data(), (0, "outcomes_a", [2]), (7, "p", 0.5)),
     ConstructionError, "malformed joint-table entry {'settings_a': [1], 'settings_b': [1], "
                        "'outcomes_a': [-1], 'outcomes_b': [1], 'p': 0.5}"),
    ("malformed-before-the-shape", lambda: edited(pr_data(n=0), (7, "p", True)),
     ConstructionError, "malformed joint-table entry {'settings_a': [1], 'settings_b': [1], "
                        "'outcomes_a': [-1], 'outcomes_b': [1], 'p': True}"),
    ("shape-before-a-bad-outcome", lambda: edited(pr_data(s_a=0), (0, "outcomes_a", [2])),
     DomainError, "each side needs at least one setting"),
    ("bad-outcome-of-the-first-block-before-a-bad-key",
     lambda: edited(pr_data(s_a=1), (0, "outcomes_a", [2])),
     ConstructionError, "outcomes must be +1 or -1, got (2,);(1,) at settings (0,);(0,)"),
    ("block-met-first-wins",
     lambda: moved(edited(pr_data(), (1, "outcomes_b", [2]), (6, "settings_b", [5])), 6, 1),
     ConstructionError, "outcomes must be +1 or -1, got (-1,);(2,) at settings (0,);(0,)"),
    ("bad-outcome-before-held-faults",
     lambda: edited(pr_data(), (0, "p", "-1/2"), (7, "outcomes_b", [0])),
     ConstructionError, "outcomes must be +1 or -1, got (-1,);(0,) at settings (1,);(1,)"),
    ("held-faults-in-product-order",
     lambda: edited(moved(pr_data(), 7, 0), (0, "p", "-1/2"), (3, "p", "1/4")),
     ConstructionError, "outcomes for setting assignment (0,);(1,) sum to 3/4, not 1"),
    ("first-faulty-entry-of-a-block",
     lambda: edited(pr_data(), (2, "p", "-1/2"), (3, "outcomes_a", [-1, -1])),
     ConstructionError, "negative probability -1/2 at settings (0,);(1,), outcomes (1,);(1,)"),
    ("missing-block-in-product-order",
     lambda: edited(without_block(pr_data(), 0, 1), (5, "p", "1/4")),
     ConstructionError, "outcomes for setting assignment (0,);(1,) sum to 0, not 1"),
    # A list already met as ints, met again with a value that equals and
    # hashes as an int but is not one: still malformed, and the later entry
    # is named.
    ("cached-setting-then-false", lambda: edited(pr_data(), (2, "settings_a", [False])),
     ConstructionError, "malformed joint-table entry {'settings_a': [False], 'settings_b': [1], "
                        "'outcomes_a': [1], 'outcomes_b': [1], 'p': '1/2'}"),
    ("cached-setting-then-float",
     lambda: edited(pr_data(), (0, "settings_b", [-1]), (1, "settings_b", [-1.0])),
     ConstructionError, "malformed joint-table entry {'settings_a': [0], 'settings_b': [-1.0], "
                        "'outcomes_a': [-1], 'outcomes_b': [-1], 'p': '1/2'}"),
    ("cached-setting-then-true",
     lambda: edited(pr_data(), (0, "settings_a", [0, 1]), (3, "settings_a", [0, True])),
     ConstructionError, "malformed joint-table entry {'settings_a': [0, True], 'settings_b': [1], "
                        "'outcomes_a': [-1], 'outcomes_b': [-1], 'p': '1/2'}"),
    ("cached-outcome-then-false",
     lambda: edited(pr_data(), (1, "outcomes_a", [0]), (5, "outcomes_a", [False])),
     ConstructionError, "malformed joint-table entry {'settings_a': [1], 'settings_b': [0], "
                        "'outcomes_a': [False], 'outcomes_b': [-1], 'p': '1/2'}"),
    ("cached-outcome-then-float", lambda: edited(pr_data(), (3, "outcomes_b", [-1.0])),
     ConstructionError, "malformed joint-table entry {'settings_a': [0], 'settings_b': [1], "
                        "'outcomes_a': [-1], 'outcomes_b': [-1.0], 'p': '1/2'}"),
    ("cached-outcome-then-true",
     lambda: edited(pr_data(), (0, "outcomes_b", [0, 1]), (4, "outcomes_b", [0, True])),
     ConstructionError, "malformed joint-table entry {'settings_a': [1], 'settings_b': [0], "
                        "'outcomes_a': [1], 'outcomes_b': [0, True], 'p': '1/2'}"),
]

TABLE_CASES = [
    ("empty", lambda: {}, ConstructionError, "empty joint table"),
    ("table-not-a-mapping", lambda: None,
     ConstructionError, "a joint table is a mapping of blocks, got None"),
    ("block-not-a-mapping", lambda: table_with((((1,), (0,)), [])),
     ConstructionError, "block ((1,), (0,)) is not a mapping of outcomes: []"),
    ("setting-key-length", lambda: table_with((((0, 0), (0,)), {((1, 1), (1,)): F(1)})),
     ConstructionError, "setting key (0, 0);(0,) does not list n=1 settings per side"),
    ("setting-out-of-range", lambda: table_with((((0,), (-1,)), {((1,), (1,)): F(1)})),
     ConstructionError, "setting key (0,);(-1,) has a setting outside s_a=2, s_b=2"),
    # No setting assignment reaches this block, so only the key check can refuse it.
    ("setting-not-an-integer", lambda: table_with((((0,), (0.5,)), {((1,), (1,)): F(1)})),
     ConstructionError, "setting key (0,);(0.5,) has a setting outside s_a=2, s_b=2"),
    ("outcome-two", lambda: table_with((((1,), (0,)), {((2,), (1,)): F(1)})),
     ConstructionError, "outcomes must be +1 or -1, got (2,);(1,) at settings (1,);(0,)"),
    ("not-a-rational", lambda: table_with((((1,), (0,)), {((1,), (1,)): "half"})),
     DomainError, "not a rational: 'half'"),
    ("outcome-tuple-length", lambda: table_with((((0,), (1,)), {((1,), (1, 1)): F(1)})),
     ConstructionError, "outcome tuple length mismatch at settings (0,);(1,)"),
    ("negative", lambda: table_with((((1,), (1,)), {((1,), (-1,)): F(3, 2),
                                                    ((-1,), (1,)): F(-1, 2)})),
     ConstructionError, "negative probability -1/2 at settings (1,);(1,), outcomes (-1,);(1,)"),
    ("total", lambda: table_with((((0,), (0,)), {((1,), (1,)): F(1, 3)})),
     ConstructionError, "outcomes for setting assignment (0,);(0,) sum to 1/3, not 1"),
    ("missing-block", lambda: table_with((((1,), (1,)), None)),
     ConstructionError, "outcomes for setting assignment (1,);(1,) sum to 0, not 1"),
    # Bad keys and outcomes by the block first met, held faults in product order.
    ("bad-key-in-table-order", lambda: table_with((((0,), (0,)), {((1,), (2,)): F(1)}),
                                                  (((3,), (0,)), {})),
     ConstructionError, "outcomes must be +1 or -1, got (1,);(2,) at settings (0,);(0,)"),
    # A value that is not a rational raises where it is met, as a malformed
    # JSON entry is reported first.
    ("bad-value-first", lambda: table_with((((0,), (1,)), {((0,), (1,)): "half"})),
     DomainError, "not a rational: 'half'"),
    ("summed", lambda: table_with((((0,), (0,)), {((1,), (1,)): F(-1, 2),
                                                  (range(1, 2), (1,)): F(1, 4),
                                                  ((-1,), (-1,)): F(1, 2)})),
     ConstructionError, "negative probability -1/4 at settings (0,);(0,), outcomes (1,);(1,)"),
    # A key that is not a pair of sequences is refused where it is met.
    ("setting-key-not-a-pair", lambda: table_with((5, {((1,), (1,)): F(1)})),
     ConstructionError, "setting key 5 is not a pair of sequences"),
    ("setting-key-of-one-part", lambda: table_with((((0,),), {((1,), (1,)): F(1)})),
     ConstructionError, "setting key ((0,),) is not a pair of sequences"),
    ("setting-key-of-three-parts",
     lambda: table_with((((0,), (0,), (0,)), {((1,), (1,)): F(1)})),
     ConstructionError, "setting key ((0,), (0,), (0,)) is not a pair of sequences"),
    ("outcome-key-not-a-pair", lambda: table_with((((1,), (0,)), {5: F(1)})),
     ConstructionError, "outcome key 5 at settings (1,);(0,) is not a pair of sequences"),
    ("outcome-key-of-one-part", lambda: table_with((((1,), (0,)), {((1,),): F(1)})),
     ConstructionError, "outcome key ((1,),) at settings (1,);(0,) is not a pair of sequences"),
    ("outcome-key-of-three-parts",
     lambda: table_with((((1,), (0,)), {((1,), (1,), (1,)): F(1)})),
     ConstructionError,
     "outcome key ((1,), (1,), (1,)) at settings (1,);(0,) is not a pair of sequences"),
]


@pytest.mark.parametrize("build, error, message",
                         [case[1:] for case in JSON_CASES], ids=[case[0] for case in JSON_CASES])
def test_json_loader_error_text(build, error, message):
    data = build()
    with pytest.raises(error) as info:
        explicit_joint_from_data(data)
    assert type(info.value) is error and str(info.value) == message
    with pytest.raises(error) as info:
        explicit_joint_from_json(json.dumps(data))
    assert str(info.value) == message


def test_decimal_exponent_value_refused():
    with pytest.raises(ConstructionError, match="malformed joint-table entry") as info:
        explicit_joint_from_data(edited(pr_data(), (3, "p", "1e-1000000")))
    assert "has a decimal exponent" in str(info.value.__cause__)


def test_invalid_json_text():
    with pytest.raises(ConstructionError) as info:
        explicit_joint_from_json('{"n": 1,')
    assert str(info.value) == ("invalid joint-table JSON: Expecting property name enclosed "
                               "in double quotes: line 1 column 9 (char 8)")


@pytest.mark.parametrize("build, error, message",
                         [case[1:] for case in TABLE_CASES], ids=[case[0] for case in TABLE_CASES])
def test_table_error_text(build, error, message):
    with pytest.raises(error) as info:
        explicit_joint(1, 2, 2, build())
    assert type(info.value) is error and str(info.value) == message


def test_one_walk_parses_each_distinct_text_once_and_decodes_nothing(monkeypatch):
    source = explicit_from_box(mixed_denominator_box(), 2)
    data = {"n": 2, "s_a": 2, "s_b": 2, "entries": [
        {"settings_a": list(sa), "settings_b": list(sb), "outcomes_a": list(oa),
         "outcomes_b": list(ob), "p": f"{p.numerator}/{p.denominator}"}
        for (sa, sb), block in source.table.items() for (oa, ob), p in block.items()]}
    parsed = []
    as_rational = ensemble.as_rational
    monkeypatch.setattr(ensemble, "as_rational", lambda value: parsed.append(value)
                        or as_rational(value))

    def decoded(*args):
        raise AssertionError("a scan decoded the Fraction table")

    monkeypatch.setattr(ensemble, "_outcomes_of", decoded)
    model = explicit_joint_from_data(data)
    assert sorted(parsed) == sorted({entry["p"] for entry in data["entries"]})
    assert check_no_signalling(model).ok
    assert marginal(model, [("A", 0, 1), ("B", 1, 0)])
    assert macro_distribution_bruteforce(model, 1, 0).total() == 1
    monkeypatch.undo()
    assert model == source and model.table == source.table


# ---------------------------------------------------------------------------
# The collector pause around decoding and the walk
# ---------------------------------------------------------------------------

@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector as the caller leaves it, on or off; the test's
    own state is restored after it."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


LOADS = [
    ("table", lambda: explicit_joint_from_json(json.dumps(pr_data())), None),
    ("data", lambda: explicit_joint_from_data(pr_data()), None),
    ("invalid-text", lambda: explicit_joint_from_json('{"n": 1,'), "invalid joint-table JSON"),
    ("deep-nesting", lambda: explicit_joint_from_json("[" * 100000 + "]" * 100000),
     "invalid joint-table JSON"),
    ("long-integer", lambda: explicit_joint_from_json('{"n": ' + "1" * 5000 + "}"),
     "invalid joint-table JSON"),
    ("malformed-entry", lambda: explicit_joint_from_data(edited(pr_data(), (0, "p", 0.5))),
     "malformed joint-table entry"),
    ("bad-total", lambda: explicit_joint_from_data(edited(pr_data(), (0, "p", "1/3"))),
     "sum to 5/6, not 1"),
]


@pytest.mark.parametrize("load, refusal", [case[1:] for case in LOADS],
                         ids=[case[0] for case in LOADS])
def test_collector_left_as_the_caller_had_it(collector, load, refusal):
    if refusal is None:
        assert load() == explicit_joint(1, 2, 2, pr_table())
    else:
        with pytest.raises(ConstructionError, match=refusal):
            load()
    assert gc.isenabled() is collector


def noting_the_collector(states, name, function):
    """``function``, wrapped to note (``name``, collector on) at each call."""
    def noted(*args, **kwargs):
        states.append((name, gc.isenabled()))
        return function(*args, **kwargs)
    return noted


def test_collector_paused_while_decoding_and_walking(monkeypatch, collector):
    states = []
    monkeypatch.setattr(json, "loads", noting_the_collector(states, "decode", json.loads))
    monkeypatch.setattr(ensemble, "explicit_joint_from_data", noting_the_collector(
        states, "build", ensemble.explicit_joint_from_data))
    monkeypatch.setattr(ensemble, "_joint_blocks", noting_the_collector(
        states, "walk", ensemble._joint_blocks))
    explicit_joint_from_json(json.dumps(pr_data()))
    assert states == [("decode", False), ("build", False), ("walk", False)]
    assert gc.isenabled() is collector


def test_one_pause_from_decode_to_walk_through_the_cli(monkeypatch, tmp_path, collector):
    path = tmp_path / "pr-table.json"
    path.write_text(json.dumps(pr_data()), encoding="utf-8")
    states = []
    monkeypatch.setattr(json, "loads", noting_the_collector(states, "decode", json.loads))
    monkeypatch.setattr(cli, "explicit_joint_from_data", noting_the_collector(
        states, "build", cli.explicit_joint_from_data))
    monkeypatch.setattr(ensemble, "_joint_blocks", noting_the_collector(
        states, "walk", ensemble._joint_blocks))
    box, joint = cli._load_box_spec(f"file:{path}", cli.build_parser())
    assert states == [("decode", False), ("build", False), ("walk", False)]
    assert box is None and joint == explicit_joint(1, 2, 2, pr_table())
    assert gc.isenabled() is collector


def every_entry(model):
    """JSON data listing every outcome of every block of ``model``, zeros
    included: 4^N entries per setting assignment."""
    n = model.n
    entries = []
    for sa, sb in product(product(range(model.s_a), repeat=n),
                          product(range(model.s_b), repeat=n)):
        for oa, ob in product(product(OUTCOMES, repeat=n), repeat=2):
            p = model.joint_probability(SettingAssignment(sa, sb), OutcomeAssignment(oa, ob))
            entries.append({"settings_a": list(sa), "settings_b": list(sb),
                            "outcomes_a": list(oa), "outcomes_b": list(ob),
                            "p": f"{p.numerator}/{p.denominator}"})
    return {"n": n, "s_a": model.s_a, "s_b": model.s_b, "entries": entries}


def test_no_collection_from_decode_until_the_model_is_returned(monkeypatch, collector):
    source = explicit_from_box(mixed_denominator_box(), 3)
    data = every_entry(source)
    assert len(data["entries"]) == 4096
    text = json.dumps(data)
    events = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *args: events.append("decode") or loads(*args))

    def on_collection(phase, info):
        if phase == "start":
            events.append(f"collection of generation {info['generation']}")

    gc.callbacks.append(on_collection)
    try:
        model = explicit_joint_from_json(text)
        events.append("returned")
    finally:
        gc.callbacks.remove(on_collection)
    assert events[events.index("decode"):] == ["decode", "returned"]
    assert model._supports == source._supports
    assert gc.isenabled() is collector


def test_stored_supports_are_not_tracked_by_the_collector():
    # Each support is a dict of ints, so the first collection after a load
    # has no per-entry container of the table to scan.
    model = explicit_joint_from_json(json.dumps(every_entry(
        explicit_from_box(mixed_denominator_box(), 2))))
    supports = [support for _, support in model._supports.values()]
    assert len(supports) == 16
    assert all(type(support) is dict and not gc.is_tracked(support) for support in supports)


@pytest.mark.parametrize("text, code", [
    (json.dumps(pr_data()), 0),
    ('{"n": 1,', 2),
    (json.dumps(edited(pr_data(), (0, "p", 0.5))), 2),
    (json.dumps(edited(pr_data(), (0, "p", "1/3"))), 2),
], ids=["table", "invalid-text", "malformed-entry", "bad-total"])
def test_cli_leaves_the_collector_as_the_caller_had_it(tmp_path, collector, text, code):
    path = tmp_path / "table.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = cli.main(["verify", "--box", f"file:{path}"])
        except SystemExit as exc:
            result = exc.code
    assert result == code, err.getvalue()
    assert gc.isenabled() is collector


# ---------------------------------------------------------------------------
# Fuzz: valid tables, then faults of every kind the loader checks
# ---------------------------------------------------------------------------

LISTS = ("settings_a", "settings_b", "outcomes_a", "outcomes_b")


@st.composite
def valid_tables(draw):
    """JSON data of a normalized, nonnegative joint table, zeros sometimes
    listed, entries sometimes shuffled."""
    n = draw(st.integers(1, 2))
    s_a, s_b = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    entries = []
    for sa in product(range(s_a), repeat=n):
        for sb in product(range(s_b), repeat=n):
            cells = list(product(product(OUTCOMES, repeat=n), repeat=2))
            weights = draw(st.lists(st.integers(0, 3), min_size=len(cells),
                                    max_size=len(cells)).filter(any))
            for (oa, ob), w in zip(cells, weights):
                if w or draw(st.booleans()):
                    p = F(w, sum(weights))
                    entries.append({"settings_a": list(sa), "settings_b": list(sb),
                                    "outcomes_a": list(oa), "outcomes_b": list(ob),
                                    "p": f"{p.numerator}/{p.denominator}"})
    if draw(st.booleans()):
        entries = draw(st.permutations(entries))
    return {"n": n, "s_a": s_a, "s_b": s_b, "entries": entries}


@st.composite
def mutated_tables(draw):
    data = copy.deepcopy(draw(valid_tables()))
    entries = data["entries"]
    for _ in range(draw(st.integers(0, 3))):
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        name = draw(st.sampled_from(LISTS))
        kind = draw(st.sampled_from(
            ["list-type", "p", "setting", "outcome", "length", "drop-block", "negative",
             "split", "repeat", "total"]))
        if kind == "list-type":
            entry[name] = entry[name] + [draw(st.sampled_from([True, False, 1.0, -1.0, 0.5]))]
            entry[name] = entry[name][1:]
        elif kind == "p":
            entry["p"] = draw(st.sampled_from([True, False, 0.5, 1.0, "1/0", "half", None]))
        elif kind == "setting":
            entry[draw(st.sampled_from(LISTS[:2]))][0] = draw(st.sampled_from([2, -1]))
        elif kind == "outcome":
            entry[draw(st.sampled_from(LISTS[2:]))][0] = draw(st.sampled_from([0, 2]))
        elif kind == "length":
            entry[name] = entry[name] + [1] if draw(st.booleans()) else entry[name][1:]
        elif kind == "drop-block":
            key = (entry["settings_a"], entry["settings_b"])
            entries[:] = [e for e in entries if (e["settings_a"], e["settings_b"]) != key]
            if not entries:
                break
        elif kind in ("negative", "split", "repeat", "total") and isinstance(entry["p"], str):
            try:
                p = F(entry["p"])
            except (ValueError, ZeroDivisionError):
                continue
            if kind == "negative":
                entry["p"] = str(-p - 1)
                twin = copy.deepcopy(entry)
                twin["p"] = str(2 * p + 1)
                twin["outcomes_a"] = [-o for o in twin["outcomes_a"]]
                entries.append(twin)
            elif kind == "split":
                part = F(draw(st.integers(-2, 3)), 4) * p
                twin = copy.deepcopy(entry)
                entry["p"], twin["p"] = str(part), str(p - part)
                entries.insert(draw(st.integers(0, len(entries))), twin)
            elif kind == "repeat":
                entries.insert(draw(st.integers(0, len(entries))), copy.deepcopy(entry))
            else:
                entry["p"] = str(p + F(1, 7))
    return data


def reference(data):
    """The summed Fraction table of valid JSON data, checked by the rules
    of the format from scratch, or None for data that must be refused."""
    n, s_a, s_b = data["n"], data["s_a"], data["s_b"]
    table = {}
    for entry in data["entries"]:
        lists = [entry[name] for name in LISTS]
        if not all(type(v) is int for values in lists for v in values):
            return None
        raw = entry["p"]
        if type(raw) is not str:
            return None
        try:
            p = F(raw)
        except (ValueError, ZeroDivisionError):
            return None
        sa, sb, oa, ob = map(tuple, lists)
        if not all(len(t) == n for t in (sa, sb, oa, ob)):
            return None
        if not (all(0 <= i < s_a for i in sa) and all(0 <= j < s_b for j in sb)
                and all(o in OUTCOMES for o in oa + ob)):
            return None
        block = table.setdefault((sa, sb), {})
        block[(oa, ob)] = block.get((oa, ob), 0) + p
    for key in product(product(range(s_a), repeat=n), product(range(s_b), repeat=n)):
        block = table.get(key, {})
        if sum(block.values()) != 1 or any(p < 0 for p in block.values()):
            return None
    return table


def reference_support(n, block):
    """``(D, sorted (code, D p))`` of one block, codes spelled out bit by bit."""
    scale = lcm(*(p.denominator for p in block.values()))
    pairs = []
    for (oa, ob), p in block.items():
        if p:
            code = int("".join("1" if o < 0 else "0" for o in oa + ob), 2)
            pairs.append((code, p.numerator * (scale // p.denominator)))
    return scale, tuple(sorted(pairs))


@settings(max_examples=150, deadline=None)
@given(data=mutated_tables())
def test_fuzzed_json_loads_exactly_or_is_refused(data):
    expected = reference(data)
    try:
        model = explicit_joint_from_data(data)
    except ConstructionError:
        assert expected is None
        return
    assert expected is not None
    assert model.table == expected
    assert list(model.table) == list(expected)
    for (sa, sb), block in expected.items():
        assert model.table[(sa, sb)] == block
        scale, support = model._support(SettingAssignment(sa, sb))
        assert (scale, tuple(support)) == reference_support(model.n, block)


def rational_text(raw):
    if type(raw) is not str:
        return False
    try:
        F(raw)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def dict_inputs(data):
    """Whether every entry of ``data`` holds int lists and a rational text,
    so the same entries can be written as a table of Fraction blocks."""
    return all(type(v) is int for entry in data["entries"] for name in LISTS
               for v in entry[name]) and all(rational_text(entry["p"])
                                             for entry in data["entries"])


def summed_table(entries):
    """The entries as a table of Fraction blocks, in first-seen order,
    repeats summed."""
    table = {}
    for entry in entries:
        sa, sb, oa, ob = (tuple(entry[name]) for name in LISTS)
        block = table.setdefault((sa, sb), {})
        block[(oa, ob)] = block.get((oa, ob), 0) + F(entry["p"])
    return table


def outcome(build):
    """The model ``build()`` returns, or the class and text of its error."""
    try:
        return build()
    except (ConstructionError, DomainError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(data=mutated_tables().filter(dict_inputs))
def test_dict_and_json_follow_one_rule_set(data):
    n, s_a, s_b = data["n"], data["s_a"], data["s_b"]
    from_json = outcome(lambda: explicit_joint_from_data(data))
    from_dict = outcome(lambda: explicit_joint(n, s_a, s_b, summed_table(data["entries"])))
    assert from_dict == from_json
    if not isinstance(from_json, tuple):
        assert list(from_dict.table) == list(from_json.table)
        assert from_dict._supports == from_json._supports
