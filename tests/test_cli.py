"""Command line surface: exit codes, report shapes, schema, determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from poset_builders import levels_poset

from posetdeform import cli, deform, linalg, posets, simplicial
from posetdeform.deform import MAX_ORDER, MCElement, moduli
from posetdeform.posets import CHAIN_BUDGET, diamond_poset, sphere_poset
from posetdeform.simplicial import SimpCochain
from posetdeform.suites import SUITES

ROOT = Path(__file__).resolve().parents[1]
POSETS = ROOT / "posets"
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())
SCHEMA = json.loads(
    (Path(cli.__file__).parent / "schemas" / "report.schema.json").read_text()
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc, err


def poset_path(name):
    return str(POSETS / ("%s.json" % name))


@pytest.fixture(scope="module")
def sphere_z(tmp_path_factory):
    """Element files for gauge tests: z, 2z, and z plus a coboundary."""
    p = sphere_poset()
    z = moduli(p, 1)[1][0].term(1)
    d = tmp_path_factory.mktemp("elems")
    paths = {}
    for name, cochain in (
        ("z", z),
        ("2z", z.scale(Fraction(2))),
    ):
        e = MCElement(1, {1: cochain})
        path = d / ("%s.json" % name)
        path.write_text(json.dumps(e.to_dict(p)))
        paths[name] = str(path)
    return paths


def test_validate_reports_counts(capsys):
    code, doc, _ = run_json(capsys, "validate", poset_path("cr4"))
    assert code == 0
    assert doc["verb"] == "validate"
    assert doc["poset"] == "cr4"
    assert doc["elements"] == 4
    assert doc["intervals"] == 8


def test_validate_counts_intervals_without_enumerating_them(capsys, tmp_path, monkeypatch):
    """chain150 has 11,325 intervals; validate counts them from the
    up-sets, and here enumerating any weak 1-chain fails the test."""
    path = tmp_path / "chain150.json"
    path.write_text(json.dumps(posets.chain_poset(150).to_dict()))
    chains = posets.Poset.chains

    def no_intervals(self, n, strict=False):
        if n >= 1:
            raise AssertionError("validate enumerated the %d-chains" % n)
        return chains(self, n, strict)

    monkeypatch.setattr(posets.Poset, "chains", no_intervals)
    code, doc, _ = run_json(capsys, "validate", str(path))
    assert code == 0 and doc["intervals"] == 11325


def test_validate_table_output(capsys):
    code, out, _ = run(capsys, "validate", poset_path("cr4"))
    assert code == 0
    assert "elements" in out and "4" in out


def test_table_lines_of_mixed_lists_in_either_format(capsys):
    """A list of scalars is one table line, each entry as _scalar writes
    it (None as -, bools as yes and no, an int as str), a list of ints and
    strs only included; a list holding an empty list or dict is written
    entry by entry instead, and an empty list or dict as a value reads
    (none).  JSON writes what json.dumps does."""
    report = {
        "flat": [None, True, False, 0, -3, 10**20],
        "ints": [3, -1, 0, 10**30],
        "words": ["x", 2, "", -7],
        "bools": [True, 1, False, 0],
        "mixed": [None, True, [], {}, 0],
        "nested": [None, True, [], 5],
        "empty": [],
        "none": {},
    }
    want = [
        "flat:", "  - yes no 0 -3 100000000000000000000",
        "ints:", "  3 -1 0 1000000000000000000000000000000",
        "words:", "  x 2  -7", "bools:", "  yes 1 no 0",
        "mixed:", "    -", "  -", "    yes", "  -", "    ", "  -", "  -", "    0", "  -",
        "nested:", "    -", "  -", "    yes", "  -", "    ", "  -", "    5", "  -",
        "empty: (none)", "none: (none)",
    ]
    assert list(cli._table_lines(report)) == want
    for fmt, out in (("table", "\n".join(want) + "\n"),
                     ("json", json.dumps(report, indent=2, sort_keys=True) + "\n")):
        cli._emit(report, argparse.Namespace(no_meta=True, format=fmt))
        assert capsys.readouterr().out == out


def test_cohomology_strict_and_weak(capsys):
    code, doc, _ = run_json(capsys, "cohomology", poset_path("cr4"))
    assert code == 0 and doc["betti"] == [1, 1, 0] and doc["mode"] == "strict"
    code, doc, _ = run_json(
        capsys, "cohomology", poset_path("cr4"), "--unnormalized"
    )
    assert code == 0 and doc["betti"] == [1, 1, 0] and doc["mode"] == "weak"
    code, doc, _ = run_json(
        capsys, "cohomology", poset_path("sphere14"), "--max-degree", "2"
    )
    assert code == 0 and doc["betti"] == [1, 0, 1]


def test_hochschild_agreement(capsys):
    code, doc, _ = run_json(
        capsys, "hochschild", poset_path("chain2"), "--max-degree", "2"
    )
    assert code == 0
    assert doc["agree"] is True
    assert doc["simplicial"] == doc["relative"] == doc["full"] == [1, 0, 0]


def test_hochschild_degree_cap(capsys):
    code, _, err = run(
        capsys, "hochschild", poset_path("chain2"), "--max-degree", "3"
    )
    assert code == 2
    assert "0..2" in err


def test_hochschild_refuses_past_the_full_cap_before_computing(
    capsys, tmp_path, monkeypatch
):
    """Four levels of eight elements have 416 intervals, past the full
    complex's cap at degree 2.  The full dimensions are asked for first,
    so the refusal comes before the simplicial and relative ones are
    computed: here computing them at all fails the test."""
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(levels_poset(4, 8).to_dict()))

    def refuse(*args, **kwargs):
        raise AssertionError("cohomology_dims ran before the full-complex cap")

    monkeypatch.setattr(cli, "cohomology_dims", refuse)
    code, out, err = run(capsys, "hochschild", str(path), "--max-degree", "2")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_verify_single_suite(capsys):
    code, doc, _ = run_json(
        capsys,
        "verify",
        poset_path("chain2"),
        "--suite",
        "operad",
        "--samples",
        "3",
    )
    assert code == 0
    assert doc["suite"] == "operad" and doc["ok"] is True and doc["failed"] == 0


def test_verify_all_suites(capsys):
    code, doc, _ = run_json(
        capsys, "verify", poset_path("chain2"), "--samples", "2"
    )
    assert code == 0 and doc["ok"] is True
    assert [r["suite"] for r in doc["reports"]] == [
        "operad",
        "brace",
        "hga",
        "dgla",
        "iso",
    ]


def test_verify_rejects_bad_sample_count(capsys):
    code, _, err = run(capsys, "verify", poset_path("chain2"), "--samples", "0")
    assert code == 2 and "samples" in err


def test_deform_dimensions(capsys):
    code, doc, _ = run_json(capsys, "deform", poset_path("cr4"), "--order", "2")
    assert code == 0 and doc["dimension"] == 0 and doc["basis"] == []
    code, doc, _ = run_json(
        capsys, "deform", poset_path("sphere14"), "--order", "2"
    )
    assert code == 0 and doc["dimension"] == 2 and len(doc["basis"]) == 2


def test_mc_check_positive(capsys, tmp_path, sphere_z):
    code, doc, _ = run_json(
        capsys, "mc-check", poset_path("sphere14"), sphere_z["z"]
    )
    assert code == 0 and doc["ok"] is True and doc["witness"] is None


def test_mc_check_negative(capsys, tmp_path, cr4):
    e = MCElement(
        1, {1: SimpCochain(2, {(cr4.index("a"), cr4.index("a"), cr4.index("c")): 1})}
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(e.to_dict(cr4)))
    code, doc, _ = run_json(capsys, "mc-check", poset_path("cr4"), str(path))
    assert code == 1
    assert doc["ok"] is False
    assert doc["witness"] == {"layer": 1, "chain": ["a", "a", "a", "c"]}


def test_gauge_equiv_negative(capsys, sphere_z):
    code, doc, _ = run_json(
        capsys,
        "gauge-equiv",
        poset_path("sphere14"),
        sphere_z["z"],
        sphere_z["2z"],
    )
    assert code == 1
    assert doc["equivalent"] is False and doc["witness"] is None


def test_gauge_equiv_positive(capsys, sphere_z):
    code, doc, _ = run_json(
        capsys,
        "gauge-equiv",
        poset_path("sphere14"),
        sphere_z["z"],
        sphere_z["z"],
    )
    assert code == 0
    assert doc["equivalent"] is True and doc["witness"] is not None


def test_gauge_equiv_rejects_non_mc(capsys, tmp_path, cr4):
    e = MCElement(
        1, {1: SimpCochain(2, {(cr4.index("a"), cr4.index("a"), cr4.index("c")): 1})}
    )
    z = MCElement(1)
    p1 = tmp_path / "e.json"
    p2 = tmp_path / "z.json"
    p1.write_text(json.dumps(e.to_dict(cr4)))
    p2.write_text(json.dumps(z.to_dict(cr4)))
    code, _, err = run(
        capsys, "gauge-equiv", poset_path("cr4"), str(p1), str(p2)
    )
    assert code == 2 and err != ""


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert "file.json" in err


def test_bad_json_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 1" in err


def test_cyclic_poset_rejected(capsys, tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text(
        json.dumps(
            {"name": "bad", "elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]}
        )
    )
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and err != ""


def test_repeated_key_in_poset_rejected(capsys, tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(
        '{"name": "first", "elements": ["a"], "relations": [], "name": "second"}'
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert '"name"' in lines[0]


def test_usage_errors(capsys):
    assert run(capsys, "no-such-verb", "x")[0] == 2
    assert run(capsys)[0] == 2


def test_meta_block_and_byte_determinism(capsys):
    code, out1, _ = run(capsys, "validate", poset_path("cr4"), "--format", "json")
    doc = json.loads(out1)
    assert "meta" in doc and "version" in doc["meta"] and "generated" in doc["meta"]
    code, plain1, _ = run(
        capsys, "validate", poset_path("cr4"), "--format", "json", "--no-meta"
    )
    code, plain2, _ = run(
        capsys, "validate", poset_path("cr4"), "--format", "json", "--no-meta"
    )
    assert plain1 == plain2
    assert "meta" not in json.loads(plain1)


def test_json_output_is_a_single_document(capsys):
    _, out, _ = run_json(
        capsys, "cohomology", poset_path("diamond"), "--max-degree", "1"
    )
    # run_json already parsed the full stream as one document; spot-check
    # the table path prints more than one line instead
    _, table, _ = run(capsys, "cohomology", poset_path("diamond"))
    assert len(table.splitlines()) > 1


def _element(entry):
    return {"order": 1, "terms": {"1": {"degree": 2, "entries": [entry]}}}


def _layer(cochain):
    return {"order": 1, "terms": {"1": cochain}}


def _two_layers(*extra):
    """Layer 1 on the chain (bot, a, top); layer 2 on it too, then extra."""
    entry = {"chain": ["bot", "a", "top"], "value": "1"}
    layers = {"1": [entry], "2": [{**entry, "value": "1/2"}, *extra]}
    return {"order": 2, "terms": {n: {"degree": 2, "entries": es} for n, es in layers.items()}}


BAD_ELEMENTS = {
    "non-chain": _element({"chain": ["top", "bot", "a"], "value": "1"}),
    "zero-denominator": _element({"chain": ["bot", "a", "top"], "value": "1/0"}),
    "float": _element({"chain": ["bot", "a", "top"], "value": 1.5}),
    "list": [],
    # read as the last value, "0", this answered ok: yes
    "duplicate-chain": {
        "order": 1,
        "terms": {
            "1": {
                "degree": 2,
                "entries": [
                    {"chain": ["bot", "a", "top"], "value": "1"},
                    {"chain": ["bot", "a", "top"], "value": "0"},
                ],
            }
        },
    },
    # both keys are layer 1; keeping "01" dropped the nonzero layer
    "duplicate-layer": {
        "order": 1,
        "terms": {
            "1": {
                "degree": 2,
                "entries": [{"chain": ["bot", "a", "top"], "value": "1"}],
            },
            "01": {"degree": 2, "entries": []},
        },
    },
    # a string is not a list of labels, though "aaa" spells a, a, a
    "string-chain": _element({"chain": "aaa", "value": "1"}),
    # documents as text, since a dict cannot repeat a key: json.load kept
    # the last of the two, the empty layer 1, and this answered ok: yes
    "repeated-layer-key": (
        '{"order": 1, "terms": {"1": {"degree": 2, "entries": '
        '[{"chain": ["bot", "bot", "a"], "value": "1"}]}, '
        '"1": {"degree": 2, "entries": []}}}'
    ),
    "repeated-value-key": (
        '{"order": 1, "terms": {"1": {"degree": 2, "entries": '
        '[{"chain": ["bot", "bot", "a"], "value": "1", "value": "0"}]}}}'
    ),
    # died with a TypeError traceback in opcore
    "float-degree": _layer(
        {"degree": 2.0, "entries": [{"chain": ["bot", "a", "top"], "value": "1"}]}
    ),
    # true == 1, read as degree 1
    "bool-degree": _layer(
        {"degree": True, "entries": [{"chain": ["bot", "a"], "value": "1"}]}
    ),
    # these three exited 2 with a Python message for the text
    "string-entries": _layer({"degree": 2, "entries": "ab"}),
    "int-entry": _layer({"degree": 2, "entries": [5]}),
    "entry-without-value": _layer(
        {"degree": 2, "entries": [{"chain": ["bot", "a", "top"]}]}
    ),
    # these two exited 2 with "'order'" and "invalid literal for int()"
    "missing-order": {"terms": {}},
    "non-integer-layer-key": {"order": 1, "terms": {"x": {"degree": 2, "entries": []}}},
    # layer 1 is valid and layer 2 reads its chain again: each distinct
    # chain is checked once per element, and these faults come after
    "layer-2-unknown-label": _two_layers({"chain": ["bot", "zz", "top"], "value": "1"}),
    "layer-2-repeated-chain": _two_layers({"chain": ["bot", "a", "top"], "value": "2"}),
    "layer-2-unhashable-label": _two_layers({"chain": [["a"], "a", "top"], "value": "1"}),
}

# the error line names what is wrong
BAD_ELEMENT_WORDS = {
    "float-degree": "degree",
    "bool-degree": "degree",
    "string-entries": "entries",
    "int-entry": "entries",
    "entry-without-value": "value",
    "missing-order": "order is missing",
    "non-integer-layer-key": "layer key 'x' is not an integer",
    "layer-2-unknown-label": "zz",
    "layer-2-repeated-chain": "listed twice",
    "layer-2-unhashable-label": "unhashable",
}


@pytest.mark.parametrize(
    "verb,bad",
    [
        ("mc-check", "non-chain"),
        ("gauge-equiv", "non-chain"),
        ("mc-check", "zero-denominator"),
        ("mc-check", "float"),
        ("mc-check", "list"),
        ("mc-check", "duplicate-chain"),
        ("mc-check", "duplicate-layer"),
        ("mc-check", "string-chain"),
        ("mc-check", "repeated-layer-key"),
        ("mc-check", "repeated-value-key"),
        ("mc-check", "float-degree"),
        ("mc-check", "bool-degree"),
        ("mc-check", "string-entries"),
        ("mc-check", "int-entry"),
        ("mc-check", "entry-without-value"),
        ("mc-check", "missing-order"),
        ("mc-check", "non-integer-layer-key"),
        ("mc-check", "layer-2-unknown-label"),
        ("mc-check", "layer-2-repeated-chain"),
        ("mc-check", "layer-2-unhashable-label"),
    ],
)
def test_malformed_element_is_an_input_error(capsys, tmp_path, verb, bad):
    path = tmp_path / "bad.json"
    doc = BAD_ELEMENTS[bad]
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    elements = [str(path)]
    if verb == "gauge-equiv":
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"order": 1, "terms": {}}))
        elements.append(str(zero))
    code, out, err = run(capsys, verb, poset_path("diamond"), *elements)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err
    assert BAD_ELEMENT_WORDS.get(bad, "") in lines[0]


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 10**8])
def test_order_over_the_cap_is_an_input_error(capsys, tmp_path, order):
    """An element of order 10**8 with no terms kept mc-check busy for
    many seconds; over MAX_ORDER the CLI refuses it before building any
    series, and refuses deform --order alike."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"order": order, "terms": {}}))
    for argv in (
        ["mc-check", poset_path("diamond"), str(path)],
        ["gauge-equiv", poset_path("diamond"), str(path), str(path)],
        ["deform", poset_path("diamond"), "--order", str(order)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(MAX_ORDER) in lines[0]


@pytest.mark.parametrize("degree", [400, 10**6])
def test_weak_degree_over_the_chain_budget_is_an_input_error(capsys, degree):
    """The weak chains of sphere14 grow with the degree; degree 400 once
    kept allocating until a MemoryError.  They are counted first, and a
    request past the chain budget exits 2 at once."""
    code, out, err = run(
        capsys, "cohomology", poset_path("sphere14"), "--unnormalized",
        "--max-degree", str(degree),
    )
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(CHAIN_BUDGET) in lines[0]


def test_verify_past_the_chain_budget_is_an_input_error(capsys, monkeypatch):
    """sphere14's weak chains to degree 3 hold 1,220 vertices.  With that
    as the budget, the operad suite's compositions up to degree 6 are
    refused before their chains are enumerated: exit 2 and one line that
    names the budget.  At --max-degree 1 every level stays within it."""
    monkeypatch.setattr(posets, "CHAIN_BUDGET", 1220)
    argv = ["verify", poset_path("sphere14"), "--suite", "operad", "--samples", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "1220" in lines[0]
    code, _, err = run(capsys, *argv, "--max-degree", "1")
    assert code == 0 and err == ""


def test_verify_counts_its_top_level_before_it_samples(capsys, monkeypatch):
    """At --max-degree 3 the operad suite can read chains up to degree 6
    ((f o_i g) o_j h), far past a budget of 1,220 vertices on sphere14:
    verify counts that top level first and refuses with exit 2 before it
    draws one element."""
    def no_sampling(*args):
        raise AssertionError("random_elem called past the chain budget")

    monkeypatch.setattr(posets, "CHAIN_BUDGET", 1220)
    monkeypatch.setattr(simplicial.SimplicialCarrier, "random_elem", no_sampling)
    code, out, err = run(
        capsys, "verify", poset_path("sphere14"), "--suite", "operad", "--samples", "1"
    )
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "1220" in lines[0]


def test_verify_on_a_long_chain_is_refused_before_it_samples(capsys, tmp_path, monkeypatch):
    """chain20's weak chains to degree 5 hold 1,315,600 vertices, within
    the budget, but hga at --max-degree 3 reads up to degree 8, and those
    to degree 6 alone hold 5,920,200.  verify counts them first: exit 2,
    one line, and no element drawn."""
    def no_sampling(*args):
        raise AssertionError("random_elem called past the chain budget")

    path = tmp_path / "chain20.json"
    path.write_text(json.dumps(posets.chain_poset(20).to_dict()))
    monkeypatch.setattr(simplicial.SimplicialCarrier, "random_elem", no_sampling)
    code, out, err = run(
        capsys, "verify", str(path), "--suite", "hga", "--samples", "1", "--max-degree", "3"
    )
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "degrees 0..6" in lines[0] and str(CHAIN_BUDGET) in lines[0]


def record_levels(monkeypatch):
    """Lists of the levels verify counts ahead, before any trial (a
    chain_counts call from outside Poset.chains), and of the weak levels
    Poset.chains is asked for."""
    chains, chain_counts = posets.Poset.chains, posets.Poset.chain_counts
    ahead, read, inside = [], [], []

    def reading(self, n, strict=False):
        read.append(n)
        inside.append(n)
        try:
            return chains(self, n, strict)
        finally:
            inside.pop()

    def counting(self, n, strict=False):
        if not inside:
            ahead.append(n)
        return chain_counts(self, n, strict)

    monkeypatch.setattr(posets.Poset, "chains", reading)
    monkeypatch.setattr(posets.Poset, "chain_counts", counting)
    return ahead, read


@pytest.mark.parametrize("max_degree", [0, 1, 2, 3])
def test_verify_counts_every_level_its_suites_read(capsys, monkeypatch, max_degree):
    """verify's one count of its own, before any trial, reaches every weak
    level the five suites then read: 3, 3, 6 and 8 at --max-degree 0..3."""
    ahead, read = record_levels(monkeypatch)
    code, _, _ = run(
        capsys, "verify", poset_path("diamond"), "--samples", "2",
        "--max-degree", str(max_degree),
    )
    assert code == 0
    assert ahead == [{0: 3, 1: 3, 2: 6, 3: 8}[max_degree]]
    assert max(read) <= ahead[0]


@pytest.mark.parametrize("max_degree", [0, 1, 2, 3])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_suite_reads_within_its_declared_bound(capsys, monkeypatch, suite, max_degree):
    """A one-suite verify counts ahead to that suite's own bound,
    SUITES[suite].reads(max_degree), and every level the suite then reads
    lies within it, on diamond, chain2 and cr4 for seeds 0..2; some run
    reads the bound itself.  At --max-degree 3 operad reads at most 6,
    brace 5, hga 8, dgla 6, iso 7."""
    bound = SUITES[suite].reads(max_degree)
    if max_degree == 3:
        assert bound == {"operad": 6, "brace": 5, "hga": 8, "dgla": 6, "iso": 7}[suite]
    ahead, read = record_levels(monkeypatch)
    top = 0
    for name in ("diamond", "chain2", "cr4"):
        for seed in range(3):
            ahead.clear()
            read.clear()
            code, _, _ = run(
                capsys, "verify", poset_path(name), "--suite", suite, "--samples", "2",
                "--seed", str(seed), "--max-degree", str(max_degree),
            )
            assert code == 0
            assert ahead == [bound]
            assert max(read) <= bound, (name, seed)
            top = max(top, *read)
    assert top == bound


@pytest.mark.parametrize("verb", ["mc-check", "gauge-equiv"])
def test_mc_verbs_on_a_long_chain_are_input_errors(capsys, tmp_path, verb):
    """chain450's weak 2-chains alone hold 45 million vertices.  mult(),
    the constant 1 on them, is read from Poset.chains, which counts them
    first: exit 2 and one line, where building them once ran out of
    memory."""
    n = [str(i) for i in range(450)]
    poset = tmp_path / "chain450.json"
    poset.write_text(json.dumps({"elements": n, "relations": [list(r) for r in zip(n, n[1:])]}))
    elem = tmp_path / "zero.json"
    elem.write_text(json.dumps({"order": 1, "terms": {}}))
    elems = [str(elem)] * (2 if verb == "gauge-equiv" else 1)
    code, out, err = run(capsys, verb, str(poset), *elems)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(CHAIN_BUDGET) in lines[0]


def test_deform_past_the_chain_budget_is_an_input_error(capsys, monkeypatch):
    """sphere14's strict chains to degree 2 hold 14 + 36*2 + 24*3 = 158
    vertices.  With one fewer as the budget, deform counts the strict
    chains its coboundaries read and exits 2 with one line naming them,
    before any elimination."""
    def no_elimination(*args):
        raise AssertionError("class_basis called past the chain budget")

    monkeypatch.setattr(posets, "CHAIN_BUDGET", 157)
    monkeypatch.setattr(deform, "class_basis", no_elimination)
    code, out, err = run(capsys, "deform", poset_path("sphere14"), "--order", "1")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "strict chains" in lines[0] and "157" in lines[0]


def test_fill_past_the_budget_is_an_input_error(capsys, tmp_path, monkeypatch):
    """Four levels of twenty elements have few enough chains for the chain
    budget, but eliminating their d_2 fills in heavily.  With the fill
    budget lowered the request exits 2 at once, with one line that names
    the budget."""
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(levels_poset(4, 20).to_dict()))
    monkeypatch.setattr(linalg, "FILL_BUDGET", 1000)
    code, out, err = run(capsys, "cohomology", str(path), "--max-degree", "2")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "past 1000 entries" in lines[0]


def test_strict_degree_past_the_top_chain_is_accepted(capsys):
    """Strict chains of sphere14 stop at degree 2, so degree 3000 costs
    nothing, and the chains are enumerated bottom-up, so no recursion runs
    3000 levels deep."""
    code, doc, _ = run_json(
        capsys, "cohomology", poset_path("sphere14"), "--max-degree", "3000"
    )
    assert code == 0 and doc["betti"] == [1, 0, 1] + [0] * 2998


def test_order_at_the_cap_is_accepted(capsys, tmp_path):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"order": MAX_ORDER, "terms": {}}))
    code, doc, _ = run_json(capsys, "mc-check", poset_path("diamond"), str(path))
    assert code == 0 and doc["ok"] is True and doc["order"] == MAX_ORDER


@pytest.mark.parametrize("verb", ["validate", "mc-check"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, verb):
    """json.load raises RecursionError on deep nesting; that is bad
    input, not a negative answer."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    if verb == "validate":
        argv = [verb, str(path)]
    else:
        argv = [verb, poset_path("diamond"), str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["validate", "mc-check"])
def test_non_utf8_file_is_an_input_error(capsys, tmp_path, verb):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xff", "elements": []}')
    if verb == "validate":
        argv = [verb, str(path)]
    else:
        argv = [verb, poset_path("diamond"), str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["validate", "mc-check"])
def test_integer_past_the_digit_limit_is_an_input_error(capsys, tmp_path, verb):
    """json.load raises a plain ValueError on an integer literal longer
    than sys.get_int_max_str_digits(); that is bad input naming the file,
    not a traceback."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer string conversion is unlimited")
    path = tmp_path / "long.json"
    path.write_text('{"name": "n", "elements": [], "order": %s}' % ("9" * (limit + 1)))
    if verb == "validate":
        argv = [verb, str(path)]
    else:
        argv = [verb, poset_path("diamond"), str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(path) in lines[0] and "Traceback" not in err


BAD_POSETS = {
    # each of these was read without a word, and validate answered ok
    # the string "ab" unpacked as the relation a <= b
    "string-relation": {"elements": ["a", "b"], "relations": ["ab"]},
    # a string of elements iterated as the labels a and b
    "string-elements": {"elements": "ab", "relations": []},
    "int-label": {"elements": ["a", 1], "relations": []},
    # true == 1, reported as a "duplicate label 1"
    "bool-label": {"elements": [True, 1], "relations": []},
    # iterating an object gives its keys, so "ab" read as a <= b again
    "object-relations": {"elements": ["a", "b"], "relations": {"ab": 1}},
    "three-item-relation": {"elements": ["a", "b"], "relations": [["a", "b", "a"]]},
}


@pytest.mark.parametrize("bad", sorted(BAD_POSETS))
def test_malformed_poset_is_an_input_error(capsys, tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BAD_POSETS[bad], name="bad")))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err and "duplicate" not in err


def test_non_string_poset_name_is_an_input_error(capsys, tmp_path):
    """validate answered ok on this, and its JSON report failed the
    schema (the name is reported as the poset)."""
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"name": ["x", 1], "elements": ["a"]}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "name" in lines[0]


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_no_meta_output_matches_golden(capsys, case):
    """--format json --no-meta stdout and the exit code, byte for byte,
    against files captured before the simplicial and relative cochain
    types were merged.  Regenerate a file only for an intended change of
    output."""
    spec = GOLDEN_CASES[case]
    argv = [str(ROOT / a) if a.endswith(".json") else a for a in spec["argv"]]
    code, out, _ = run(capsys, *argv, "--format", "json", "--no-meta")
    assert code == spec["exit"]
    assert out.encode() == (GOLDEN / ("%s.json" % case)).read_bytes()


def test_one_parser_per_process_prints_what_a_fresh_process_prints(capsys):
    """main builds its parser once per process and reuses it: a bad flag
    (exit 2), then --version, then a good verb, each in this process,
    give the exit code and output that each gives in a new process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cases = [
        ("verify", poset_path("diamond"), "--bogus"),
        ("--version",),
        ("verify", poset_path("diamond"), "--samples", "1", "--max-degree", "1", "--no-meta"),
    ]
    for argv in cases:
        fresh = subprocess.run(
            [sys.executable, "-m", "posetdeform", *argv],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [run(capsys, *argv)[0] for argv in cases] == [2, 0, 0]
    assert cli._parser() is cli._parser()


def test_the_cli_imports_no_dataclasses():
    """import posetdeform.cli in an isolated interpreter (no site, no
    PYTHONPATH) leaves dataclasses, and the inspect, ast and dis it
    loads, out of sys.modules."""
    code = (
        "import sys; sys.path.insert(0, 'src'); import posetdeform.cli; "
        "sys.exit('dataclasses' in sys.modules)"
    )
    fresh = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, cwd=ROOT
    )
    assert fresh.returncode == 0, fresh.stderr


# Loader fuzzing: random JSON documents through every verb that reads a
# poset or an element file.  A document is arbitrary nested JSON, or a
# poset or an element built mostly right, each part of it wrong one time
# in sixteen.  Objects are written from their (key, value) pairs, so a key
# can be missing, repeated or unknown.


class Obj(list):
    """A JSON object as its (key, value) pairs, repeats allowed."""


def dump(x):
    if isinstance(x, dict):
        x = Obj(x.items())
    if isinstance(x, Obj):
        return "{%s}" % ", ".join("%s: %s" % (json.dumps(k), dump(v)) for k, v in x)
    if isinstance(x, list):
        return "[%s]" % ", ".join(map(dump, x))
    return json.dumps(x)


def mostly(good, bad):
    """good fifteen times in sixteen, else bad."""
    return st.integers(0, 15).flatmap(lambda r: bad if r == 0 else good)


@st.composite
def objects(draw, fields):
    """Objects with each of fields, (key, value strategy) pairs, once and
    in order, mostly; a field may also be missing or repeated, and a key
    no reader knows may follow."""
    pairs = []
    for key, value in fields:
        pairs += [(key, draw(value)) for _ in range(draw(mostly(st.just(1), st.integers(0, 2))))]
    if draw(mostly(st.just(False), st.just(True))):
        pairs.append((draw(st.text(max_size=3)), draw(NESTED)))
    return Obj(pairs)


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
NESTED = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
LABEL = mostly(st.sampled_from("abcde"), SCALARS | st.just("a\nb"))
# pairs in label order: a relation list with no fault has no cycle
RELATION = mostly(st.lists(st.sampled_from("abcde"), min_size=2, max_size=2).map(sorted),
                  st.lists(LABEL, max_size=3) | NESTED)
POSET_DOCS = mostly(objects([
    ("elements", mostly(st.permutations("abcde"), st.lists(LABEL, max_size=6) | NESTED)),
    ("relations", mostly(st.lists(RELATION, max_size=6), NESTED)),
    ("name", mostly(st.text(max_size=4), NESTED)),
]), NESTED)

DIAMOND = diamond_poset()
DIAMOND_2_CHAINS = [list(DIAMOND.chain_labels(c)) for c in DIAMOND.chains(2)]
VALUE = mostly(st.sampled_from(["1", "-1/2", "2", 3, -1, "0"]),
               st.sampled_from(["1/0", "1.5", "x", " 1", "", 1.5, True]) | SCALARS)
CHAIN = mostly(st.sampled_from(DIAMOND_2_CHAINS),
               st.lists(st.sampled_from(["bot", "a", "b", "top"]) | LABEL, max_size=4) | NESTED)
COCHAIN = objects([
    ("degree", mostly(st.just(2), st.integers(-1, 4) | SCALARS)),
    ("entries", mostly(st.lists(objects([("chain", CHAIN), ("value", VALUE)]), max_size=4,
                                unique_by=str), NESTED)),
])
LAYER = mostly(st.sampled_from(["1", "2", "3"]),
               st.sampled_from(["01", "0", "-1", "101", "x", " 1"]) | st.text(max_size=2))
ELEMENT_DOCS = mostly(objects([
    ("order", mostly(st.integers(1, 3), st.integers(-1, 102) | st.sampled_from(["1", 1.0]) | SCALARS)),
    ("terms", mostly(st.lists(st.tuples(LAYER, mostly(COCHAIN, NESTED)), max_size=3,
                              unique_by=lambda t: t[0]).map(Obj), NESTED)),
]), NESTED)


def check_exit(*argv):
    """cli.main on argv raises nothing and exits 0, 1 or 2; exit 2 writes
    exactly one line to stderr, starting with "error: ", and 0 or 1 none."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == "", err


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(POSET_DOCS)
def test_fuzzed_poset_documents_exit_cleanly(fuzz_path, doc):
    fuzz_path.write_text(dump(doc))
    for argv in (["validate"], ["cohomology"], ["hochschild", "--max-degree", "1"]):
        check_exit(argv[0], str(fuzz_path), *argv[1:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ELEMENT_DOCS)
def test_fuzzed_element_documents_exit_cleanly(fuzz_path, doc):
    fuzz_path.write_text(dump(doc))
    check_exit("mc-check", poset_path("diamond"), str(fuzz_path))
    check_exit("gauge-equiv", poset_path("diamond"), str(fuzz_path), str(fuzz_path))
