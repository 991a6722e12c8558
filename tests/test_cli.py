"""End-to-end CLI behavior: parsing, exit codes, report rendering."""

import json
import random

import pytest

from semistoch.cli import main

from conftest import rod_path


def write_doc(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestCompare:
    def test_feasible_direction_exits_zero(self, capsys):
        code = main(["compare", rod_path(), "f", "g"])
        out = capsys.readouterr().out
        assert code == 0
        assert "f >= g" in out
        assert "3/4" in out and "1/4" in out

    def test_reverse_direction_exits_one(self, capsys):
        code = main(["compare", rod_path(), "g", "f"])
        out = capsys.readouterr().out
        assert code == 1
        assert "not more informative" in out

    def test_as_mode_with_uniform(self):
        assert main(["compare", rod_path(), "f", "g", "--mode", "as", "--uniform"]) == 0

    def test_as_mode_with_named_prior(self):
        assert main(["compare", rod_path(), "f", "g",
                     "--mode", "as", "--prior", "uniform"]) == 0

    def test_bayes_mode(self):
        assert main(["compare", rod_path(), "f", "g", "--mode", "bayes"]) == 0

    def test_as_mode_without_prior_is_input_error(self, capsys):
        code = main(["compare", rod_path(), "f", "g", "--mode", "as"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_kernel_name(self, capsys):
        assert main(["compare", rod_path(), "f", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["compare", "/no/such/file.json", "f", "g"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_output(self, capsys):
        code = main(["compare", rod_path(), "f", "g", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["feasible"] is True
        assert doc["mode"] == "plain"
        assert doc["witness"]["columns"]["pass"] == {"pass": "3/4", "fail": "1/4"}
        assert doc["witness"]["columns"]["fail"] == {"fail": "1"}

    def test_json_infeasible(self, capsys):
        code = main(["compare", rod_path(), "g", "f", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["feasible"] is False
        assert doc["witness"] is None


class TestStandardMeasure:
    def test_exact_and_decimal_rendering(self, capsys):
        code = main(["standard-measure", rod_path(), "g", "--uniform"])
        out = capsys.readouterr().out
        assert code == 0
        assert "117/200" in out and "~0.585000" in out
        assert "83/200" in out and "~0.415000" in out
        assert "28/83" in out and "55/83" in out

    def test_f_measure(self, capsys):
        main(["standard-measure", rod_path(), "f", "--uniform"])
        out = capsys.readouterr().out
        assert "39/50" in out and "~0.780000" in out
        assert "11/50" in out and "~0.220000" in out
        assert "1/11" in out and "10/11" in out

    def test_needs_prior(self, capsys):
        assert main(["standard-measure", rod_path(), "f"]) == 2

    def test_json(self, capsys):
        code = main(["standard-measure", rod_path(), "g", "--prior", "uniform",
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["weights"] == ["83/200", "117/200"]
        assert doc["points"] == [["28/83", "55/83"], ["8/13", "5/13"]]


class TestBss:
    def test_report_text(self, capsys):
        code = main(["bss", rod_path(), "f", "g", "--uniform"])
        out = capsys.readouterr().out
        assert code == 0
        assert "garbling (f -> g almost surely): feasible" in out
        assert "dilation (transport of standard measures): feasible" in out
        assert "plain garbling (full-support prior): feasible" in out
        assert "verdicts agree: yes" in out

    def test_reverse_agrees_on_infeasibility(self, capsys):
        code = main(["bss", rod_path(), "g", "f", "--uniform"])
        out = capsys.readouterr().out
        assert code == 1
        assert "garbling (g -> f almost surely): infeasible" in out
        assert "dilation (transport of standard measures): infeasible" in out
        assert "verdicts agree: yes" in out

    def test_json_bit_stable(self, capsys):
        code = main(["bss", rod_path(), "f", "g", "--uniform", "--json"])
        first = capsys.readouterr().out
        assert code == 0
        main(["bss", rod_path(), "f", "g", "--uniform", "--json"])
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["verdicts_agree"] is True
        assert doc["garbling_feasible"] is True
        assert doc["dilation_feasible"] is True

    def test_needs_prior(self):
        assert main(["bss", rod_path(), "f", "g"]) == 2


class TestCheck:
    def test_noisy_kernel_not_deterministic(self, capsys):
        code = main(["check", rod_path(), "f", "deterministic"])
        out = capsys.readouterr().out
        assert code == 1
        assert "f deterministic: no" in out

    def test_function_kernel_deterministic(self, tmp_path, capsys):
        path = write_doc(tmp_path, {
            "theta": ["a", "b"],
            "kernels": {"swapper": {"dom": ["a", "b"], "cod": ["a", "b"],
                                    "function": {"a": "b", "b": "a"}}}})
        code = main(["check", path, "swapper", "deterministic"])
        assert code == 0
        assert "swapper deterministic: yes" in capsys.readouterr().out

    def test_dirac_state(self, tmp_path):
        path = write_doc(tmp_path, {
            "theta": ["u"],
            "kernels": {
                "sharp": {"dom": ["u"], "cod": ["a", "b"],
                          "columns": {"u": {"a": "1"}}},
                "coin": {"dom": ["u"], "cod": ["a", "b"],
                         "columns": {"u": {"a": "1/2", "b": "1/2"}}}}})
        assert main(["check", path, "sharp", "dirac"]) == 0
        assert main(["check", path, "coin", "dirac"]) == 1

    def test_dirac_needs_single_input(self, capsys):
        assert main(["check", rod_path(), "f", "dirac"]) == 2

    def test_det_given_sides(self, tmp_path):
        # x -> 1/2 (y1,z1) + 1/2 (y1,z2): right determines left, not vice versa
        path = write_doc(tmp_path, {
            "theta": ["x"],
            "kernels": {"j": {
                "dom": ["x"],
                "cod": [["y1", "z1"], ["y1", "z2"], ["y2", "z1"], ["y2", "z2"]],
                "columns": {"x": {"y1,z1": "1/2", "y1,z2": "1/2"}}}}})
        assert main(["check", path, "j", "det-given-right"]) == 0
        assert main(["check", path, "j", "det-given-left"]) == 1

    def test_det_given_needs_pair_codomain(self, capsys):
        assert main(["check", rod_path(), "f", "det-given-left"]) == 2
        assert "pair labels" in capsys.readouterr().err

    def test_unknown_property_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", rod_path(), "f", "sideways"])
        assert exc.value.code == 2


class TestParser:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_prior_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["bss", rod_path(), "f", "g", "--uniform", "--prior", "uniform"])
        assert exc.value.code == 2

    def test_malformed_file_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["compare", str(path), "f", "g"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bytes_that_are_not_utf8_report_the_file(self, tmp_path, capsys):
        data = random.Random(300).randbytes(300)
        with pytest.raises(UnicodeDecodeError):
            data.decode("utf-8")
        path = tmp_path / "noise.json"
        path.write_bytes(data)
        assert main(["compare", str(path), "f", "g"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not UTF-8 text")

    def test_deep_nesting_reports_the_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["bss", str(path), "f", "g", "--uniform"]) == 2
        assert capsys.readouterr().err == f"error: JSON in {path} is nested too deeply\n"

    def test_weight_outside_carrier_reports_its_location(self, tmp_path, capsys):
        path = write_doc(tmp_path, {
            "theta": ["s", "t"],
            "kernels": {"f": {"dom": ["s", "t"], "cod": ["p", "q"],
                              "columns": {"s": {"p": "3/2", "q": "-1/2"},
                                          "t": {"p": "1"}}}}})
        assert main(["compare", path, "f", "f"]) == 2
        assert capsys.readouterr().err == (
            "error: f.columns['s'] weight for 'q': negative weight -1/2 outside the carrier\n")

    def test_exponent_literal_is_refused_with_its_location(self, tmp_path, capsys):
        path = write_doc(tmp_path, {
            "theta": ["s", "t"],
            "kernels": {"f": {"dom": ["s", "t"], "cod": ["x", "y"],
                              "columns": {"s": {"x": "5e-1", "y": "1/2"},
                                          "t": {"x": "1"}}}}})
        assert main(["compare", path, "f", "f"]) == 2
        assert capsys.readouterr().err == (
            "error: f.columns['s'] weight for 'x': bad rational literal '5e-1'\n")
