"""JSON encoding and decoding of kernels, experiments and reports."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semistoch import (
    FinDist,
    FiniteSet,
    Kernel,
    bss_check,
    decimal_str,
    find_dilation,
    load_experiment,
    product_set,
    standard_measure,
)
from semistoch.conditioning import Point
from semistoch.errors import LoadError
from semistoch.semiring import PAIR_RATIONAL, RATIONAL, TRILATTICE, TRI_EPS, TRI_ONE
from semistoch.serialize import (
    bss_report_to_json,
    dist_from_json,
    dist_to_json,
    dilation_to_json,
    kernel_from_json,
    kernel_to_json,
    metadist_to_json,
    point_to_json,
)

from conftest import fr, rod_path


class TestDecimalStr:
    def test_six_places_default(self):
        assert decimal_str(Fraction(39, 83)) == "0.469880"
        assert decimal_str(Fraction(117, 200)) == "0.585000"
        assert decimal_str(Fraction(83, 200)) == "0.415000"
        assert decimal_str(Fraction(0)) == "0.000000"
        assert decimal_str(Fraction(2)) == "2.000000"

    def test_two_places(self):
        assert decimal_str(Fraction(39, 83), 2) == "0.47"
        table = {
            Fraction(39, 50): "0.78",
            Fraction(11, 50): "0.22",
            Fraction(8, 13): "0.62",
            Fraction(5, 13): "0.38",
            Fraction(28, 83): "0.34",
            Fraction(55, 83): "0.66",
            Fraction(1, 11): "0.09",
            Fraction(10, 11): "0.91",
        }
        for value, text in table.items():
            assert decimal_str(value, 2) == text

    def test_half_up_not_bankers(self):
        # ties round away from zero at every scale
        assert decimal_str(Fraction(1, 8), 2) == "0.13"
        assert decimal_str(Fraction(1, 200), 2) == "0.01"
        assert decimal_str(Fraction(3, 2), 0) == "2"
        assert decimal_str(Fraction(5, 2), 0) == "3"

    def test_leading_zero_padding(self):
        assert decimal_str(Fraction(1, 1000)) == "0.001000"
        assert decimal_str(Fraction(1, 10**6)) == "0.000001"


AB = FiniteSet(["a", "b"])
CD = FiniteSet(["c", "d"])


class TestDistJson:
    def test_atoms_round_trip(self, rod_m):
        dist = rod_m.column(())
        doc = dist_to_json(dist)
        assert doc == {"safe": "1/2", "faulty": "1/2"}
        back = dist_from_json(doc, RATIONAL, dist.base, "prior")
        assert back == dist

    def test_pair_labels_comma_joined(self):
        base = product_set(AB, CD)
        dist = FinDist(RATIONAL, base, {("a", "c"): fr("1/4"), ("b", "d"): fr("3/4")})
        doc = dist_to_json(dist)
        assert doc == {"a,c": "1/4", "b,d": "3/4"}
        assert dist_from_json(doc, RATIONAL, base, "joint") == dist

    def test_trilattice_literals(self):
        dist = FinDist(TRILATTICE, AB, {"a": TRI_ONE, "b": TRI_EPS})
        doc = dist_to_json(dist)
        assert doc == {"a": "1", "b": "eps"}
        assert dist_from_json(doc, TRILATTICE, AB, "d") == dist

    def test_pair_semiring_literals(self):
        dist = FinDist(PAIR_RATIONAL, AB,
                       {"a": (fr(1), fr("1/3")), "b": (fr(0), fr("2/3"))})
        doc = dist_to_json(dist)
        assert dist_from_json(doc, PAIR_RATIONAL, AB, "d") == dist

    def test_unknown_label_rejected(self):
        with pytest.raises(LoadError):
            dist_from_json({"z": "1"}, RATIONAL, AB, "d")

    def test_non_string_weight_rejected(self):
        with pytest.raises(LoadError):
            dist_from_json({"a": 1.0}, RATIONAL, AB, "d")

    def test_non_normalized_rejected(self):
        with pytest.raises(LoadError):
            dist_from_json({"a": "1/2", "b": "1/3"}, RATIONAL, AB, "d")

    def test_not_an_object_rejected(self):
        with pytest.raises(LoadError):
            dist_from_json(["a", "b"], RATIONAL, AB, "d")

    @pytest.mark.parametrize("semiring, text, cause", [
        (RATIONAL, "-1/2", "negative weight -1/2 outside the carrier"),
        (RATIONAL, "1//2", "bad rational literal '1//2'"),
        (RATIONAL, "eps", "bad rational literal 'eps'"),
        (TRILATTICE, "1/2", "bad trilattice literal '1/2'"),
        (PAIR_RATIONAL, "(1/2)", "bad pair literal '(1/2)'"),
        (RATIONAL, "1e-3", "bad rational literal '1e-3'"),
        (RATIONAL, "1E5", "bad rational literal '1E5'"),
        (PAIR_RATIONAL, "(1e5,1)", "bad rational literal '1e5'"),
        (RATIONAL, "1_000", "bad rational literal '1_000'"),
        (RATIONAL, " 1/2 ", "bad rational literal ' 1/2 '"),
        (RATIONAL, "\u0661/\u0662", "bad rational literal '\u0661/\u0662'"),
        (RATIONAL, "1/0", "bad rational literal '1/0'"),
        (RATIONAL, "7" * 5000, f"bad rational literal {'7' * 5000!r}"),
    ], ids=["negative", "malformed", "trilattice-under-rational", "rational-under-trilattice",
            "short-pair", "exponent", "upper-exponent", "exponent-in-pair",
            "underscore", "padded", "arabic-indic-digits", "zero-denominator", "too-many-digits"])
    def test_bad_weight_literal_names_its_key(self, semiring, text, cause):
        doc = {"x": semiring.format(semiring.one), "y": text}
        with pytest.raises(LoadError) as exc:
            dist_from_json(doc, semiring, FiniteSet(["x", "y", "z"]), "f.columns['a']")
        assert str(exc.value) == f"f.columns['a'] weight for 'y': {cause}"


class TestKernelJson:
    def test_columns_round_trip(self, rod_f):
        doc = kernel_to_json(rod_f)
        assert doc["dom"] == ["safe", "faulty"]
        assert doc["cod"] == ["pass", "fail"]
        assert doc["columns"]["safe"] == {"pass": "24/25", "fail": "1/25"}
        assert kernel_from_json(doc, RATIONAL) == rod_f

    def test_function_form_loads_point_columns(self):
        doc = {"dom": ["a", "b"], "cod": ["c", "d"],
               "function": {"a": "c", "b": "d"}}
        k = kernel_from_json(doc, RATIONAL)
        assert k.weight("c", "a") == 1
        assert k.weight("d", "a") == 0
        assert k.weight("d", "b") == 1

    def test_pair_domain_round_trip(self):
        base = product_set(AB, CD)
        columns = {lab: FinDist(RATIONAL, AB, {"a": fr("1/2"), "b": fr("1/2")})
                   for lab in base.labels}
        k = Kernel(RATIONAL, base, AB, columns)
        doc = kernel_to_json(k)
        assert doc["dom"] == [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]
        assert set(doc["columns"]) == {"a,c", "a,d", "b,c", "b,d"}
        back = kernel_from_json(doc, RATIONAL)
        assert back == k
        assert back.dom.factors is not None

    def test_pair_labels_must_be_row_major(self):
        doc = {"dom": [["a", "c"], ["b", "c"], ["a", "d"], ["b", "d"]],
               "cod": ["y"], "function": {}}
        with pytest.raises(LoadError):
            kernel_from_json(doc, RATIONAL)

    def test_missing_parts_rejected(self):
        with pytest.raises(LoadError):
            kernel_from_json({"cod": ["y"], "columns": {}}, RATIONAL)
        with pytest.raises(LoadError):
            kernel_from_json({"dom": ["x"], "cod": ["y"]}, RATIONAL)
        with pytest.raises(LoadError):
            kernel_from_json({"dom": ["x"], "cod": ["y"], "columns": {}}, RATIONAL)

    def test_extra_column_rejected(self):
        doc = {"dom": ["a"], "cod": ["y"],
               "columns": {"a": {"y": "1"}, "zz": {"y": "1"}}}
        with pytest.raises(LoadError):
            kernel_from_json(doc, RATIONAL)

    def test_function_target_outside_codomain(self):
        doc = {"dom": ["a"], "cod": ["y"], "function": {"a": "z"}}
        with pytest.raises(LoadError):
            kernel_from_json(doc, RATIONAL)

    @pytest.mark.parametrize("form, body", [
        ("function", {"a": "x", "b": "y", "zzz": "x"}),
        ("columns", {"a": {"x": "1"}, "b": {"y": "1"}, "zzz": {"x": "1"}}),
    ], ids=["function", "columns"])
    def test_unknown_input_rejected_in_either_form(self, form, body):
        doc = {"dom": ["a", "b"], "cod": ["x", "y"], form: body}
        with pytest.raises(LoadError) as exc:
            kernel_from_json(doc, RATIONAL)
        assert str(exc.value) == f"kernel.{form} has unknown inputs ['zzz']"


class TestReportJson:
    def test_point(self):
        point = Point(("safe", "faulty"), (fr("8/13"), fr("5/13")))
        assert point_to_json(point) == ["8/13", "5/13"]

    def test_metadist(self, rod_f, rod_m):
        doc = metadist_to_json(standard_measure(rod_f, rod_m))
        assert doc["base"] == ["safe", "faulty"]
        assert doc["points"] == [["1/11", "10/11"], ["8/13", "5/13"]]
        assert doc["weights"] == ["11/50", "39/50"]
        assert doc["weights_approx"] == ["0.220000", "0.780000"]

    def test_dilation(self, rod_f, rod_g, rod_m):
        ghat = standard_measure(rod_g, rod_m)
        fhat = standard_measure(rod_f, rod_m)
        doc = dilation_to_json(find_dilation(fhat, ghat))
        assert len(doc["sources"]) == 2
        assert len(doc["rows"]) == 2
        for row in doc["rows"]:
            assert sum(Fraction(cell) for cell in row) == 1
        flat = [cell for row in doc["rows"] for cell in row]
        assert "39/83" in flat and "44/83" in flat

    def test_bss_report(self, rod_f, rod_g, rod_m):
        report = bss_check(rod_f, rod_g, rod_m)
        doc = bss_report_to_json(report)
        assert doc["garbling_feasible"] is True
        assert doc["dilation_feasible"] is True
        assert doc["verdicts_agree"] is True
        assert doc["full_support_prior"] is True
        assert doc["plain_garbling_feasible"] is True
        assert doc["garbling"]["dom"] == ["pass", "fail"]
        assert doc["dilation"] is not None
        # byte-stable rendering
        first = json.dumps(doc, indent=2, sort_keys=True)
        second = json.dumps(bss_report_to_json(bss_check(rod_f, rod_g, rod_m)),
                            indent=2, sort_keys=True)
        assert first == second


class TestLoadExperiment:
    def test_bundled_file(self, rod):
        assert rod.semiring.name == "rational"
        assert set(rod.kernels) == {"f", "g", "c"}
        assert set(rod.priors) == {"uniform"}
        assert rod.theta.labels == ("safe", "faulty")

    def test_accepts_decoded_dict(self):
        doc = {"semiring": "rational", "theta": ["t"],
               "kernels": {"k": {"dom": ["t"], "cod": ["y"],
                                 "columns": {"t": {"y": "1"}}}},
               "priors": {"point": {"t": "1"}}}
        exp = load_experiment(doc)
        assert exp.kernel("k").weight("y", "t") == 1
        assert exp.prior("point").column(()).weight("t") == 1

    def test_unknown_semiring(self):
        with pytest.raises(LoadError):
            load_experiment({"semiring": "booleanish", "theta": ["t"]})

    def test_missing_theta(self):
        with pytest.raises(LoadError):
            load_experiment({"semiring": "rational"})

    def test_bad_theta_labels(self):
        with pytest.raises(LoadError):
            load_experiment({"theta": [1, 2]})
        with pytest.raises(LoadError):
            load_experiment({"theta": []})

    def test_non_normalized_kernel(self):
        doc = {"theta": ["t"],
               "kernels": {"k": {"dom": ["t"], "cod": ["y", "z"],
                                 "columns": {"t": {"y": "1/2", "z": "1/3"}}}}}
        with pytest.raises(LoadError):
            load_experiment(doc)

    def test_prior_with_unknown_hypothesis(self):
        doc = {"theta": ["t"], "priors": {"m": {"t": "1/2", "u": "1/2"}}}
        with pytest.raises(LoadError):
            load_experiment(doc)

    def test_unknown_names_rejected(self, rod):
        with pytest.raises(LoadError):
            rod.kernel("nope")
        with pytest.raises(LoadError):
            rod.prior("nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            load_experiment(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(LoadError):
            load_experiment(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(LoadError):
            load_experiment(path)

    def test_trilattice_experiment(self):
        doc = {"semiring": "trilattice", "theta": ["a", "b"],
               "kernels": {"k": {"dom": ["a", "b"], "cod": ["a", "b"],
                                 "columns": {"a": {"a": "1"},
                                             "b": {"a": "eps", "b": "1"}}}}}
        exp = load_experiment(doc)
        assert exp.kernel("k").weight("a", "b") == TRI_EPS


# Atoms mix commas, the key separator, with non-ASCII text.
ATOMS = st.text(alphabet=st.sampled_from("a1,é λ→😀"), max_size=4)


@st.composite
def label_sets(draw):
    """A finite set of atoms (arity 1) or of atom pairs (arity 2)."""
    atoms = st.lists(ATOMS, min_size=1, max_size=3, unique=True).map(FiniteSet)
    if draw(st.booleans()):
        return draw(atoms)
    return product_set(draw(atoms), draw(atoms))


@st.composite
def rational_kernels(draw):
    dom, cod = draw(label_sets()), draw(label_sets())
    columns = {}
    for a in dom.labels:
        counts = draw(st.lists(st.integers(0, 3), min_size=len(cod), max_size=len(cod))
                      .filter(any))
        columns[a] = FinDist(RATIONAL, cod, {y: Fraction(n, sum(counts))
                                             for y, n in zip(cod.labels, counts)})
    return Kernel(RATIONAL, dom, cod, columns)


def has_unique_keys(base: FiniteSet) -> bool:
    keys = [label if isinstance(label, str) else ",".join(label) for label in base.labels]
    return len(set(keys)) == len(keys)


class TestRoundTrip:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(rational_kernels())
    def test_load_inverts_kernel_to_json(self, k):
        # Two labels with one key, such as ("a,b", "c") and ("a", "b,c"), are
        # a genuine ambiguity of the format; those are tested below.
        assume(has_unique_keys(k.dom) and has_unique_keys(k.cod))
        doc = kernel_to_json(k)
        text = json.dumps({"theta": doc["dom"], "kernels": {"k": doc}}, ensure_ascii=False)
        assert load_experiment(json.loads(text)).kernel("k") == k

    def test_pair_label_with_comma_loads_back(self):
        cod = product_set(FiniteSet(["x,1", "x"]), FiniteSet(["y"]))
        k = Kernel(RATIONAL, AB, cod,
                   {"a": FinDist(RATIONAL, cod, {("x,1", "y"): fr(1)}),
                    "b": FinDist(RATIONAL, cod, {("x", "y"): fr("1/3"),
                                                 ("x,1", "y"): fr("2/3")})})
        doc = kernel_to_json(k)
        assert doc["columns"]["a"] == {"x,1,y": "1"}
        assert kernel_from_json(doc, RATIONAL) == k

    def test_ambiguous_pair_key_rejected(self):
        base = product_set(FiniteSet(["a,b", "a"]), FiniteSet(["c", "b,c"]))
        with pytest.raises(LoadError, match="ambiguous"):
            dist_from_json({"a,b,c": "1"}, RATIONAL, base, "d")

    def test_inputs_sharing_a_key_rejected(self):
        dom = product_set(FiniteSet(["a,b", "a"]), FiniteSet(["c", "b,c"]))
        doc = {"dom": [list(label) for label in dom.labels], "cod": ["y"],
               "columns": {"a,b,c": {"y": "1"}, "a,b,b,c": {"y": "1"},
                           "a,c": {"y": "1"}}}
        with pytest.raises(LoadError, match="share the key"):
            kernel_from_json(doc, RATIONAL)
