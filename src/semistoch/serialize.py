"""JSON encoding of kernels, experiments, measures and reports.

Weights travel as exact literals ("p/q", "0"/"eps"/"1", "(p/q,p/q)").
Posterior points serialize as arrays of rational strings aligned with the
hypothesis order.  Decimal renderings are derived from the exact values by
half-up rounding, so emitted documents are byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Union

from .blackwell import BssReport, Dilation, MetaDist
from .conditioning import Point
from .errors import LoadError, ShapeError
from .findist import FinDist, FiniteSet, product_set
from .kernel import Kernel, state
from .semiring import Semiring, semiring_by_name


def decimal_str(value: Fraction, places: int = 6) -> str:
    """Fixed-point decimal of a nonnegative rational, rounded half up."""
    value = Fraction(value)
    scale = 10 ** places
    scaled = value * scale
    units = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    whole, frac = divmod(units, scale)
    return f"{whole}.{frac:0{places}d}" if places else str(whole)


def _label_from_json(obj: Any):
    if isinstance(obj, str):
        return obj
    if isinstance(obj, list):
        if not all(isinstance(part, str) for part in obj):
            raise LoadError(f"label parts must be strings: {obj!r}")
        return tuple(obj)
    raise LoadError(f"bad label {obj!r}")


def _label_to_json(label) -> Any:
    if isinstance(label, str):
        return label
    if isinstance(label, tuple):
        return list(label)
    raise LoadError(f"label {label!r} has no file representation")


def _set_from_json(obj: Any, what: str) -> FiniteSet:
    if not isinstance(obj, list) or not obj:
        raise LoadError(f"{what} must be a nonempty array of labels")
    labels = [_label_from_json(entry) for entry in obj]
    arities = {len(l) if isinstance(l, tuple) else 1 for l in labels}
    if arities == {1}:
        return FiniteSet(labels)
    if arities == {2}:
        lefts, rights = [], []
        for a, b in labels:
            if a not in lefts:
                lefts.append(a)
            if b not in rights:
                rights.append(b)
        found = product_set(FiniteSet(lefts), FiniteSet(rights))
        if list(found.labels) != labels:
            raise LoadError(f"{what} pair labels must enumerate a product in row-major order")
        return found
    raise LoadError(f"{what} labels must be atoms or pairs")


def _label_key(label) -> str:
    """Object key for a label: atoms verbatim, tuples comma-joined."""
    if isinstance(label, str):
        return label
    if isinstance(label, tuple) and all(isinstance(part, str) for part in label):
        return ",".join(label)
    raise LoadError(f"label {label!r} has no file representation")


def _key_label(key: str, base: FiniteSet):
    if key in base:
        return key
    if base.arity == 2:
        # Atoms may contain commas, so try every split of the key into two.
        parts = key.split(",")
        found = [pair for pair in ((",".join(parts[:i]), ",".join(parts[i:]))
                                   for i in range(1, len(parts)))
                 if pair in base]
        if len(found) == 1:
            return found[0]
        if found:
            raise LoadError(f"label key {key!r} is ambiguous: it names the pairs "
                            f"{', '.join(map(repr, found))}")
    raise LoadError(f"unknown label {key!r}")


def _input_keys(dom: FiniteSet, what: str) -> Dict[str, Any]:
    """Object key -> label for every input; no two labels may share a key."""
    inputs: Dict[str, Any] = {}
    for label in dom.labels:
        key = _label_key(label)
        if key in inputs:
            raise LoadError(f"{what} labels {inputs[key]!r} and {label!r} "
                            f"share the key {key!r}")
        inputs[key] = label
    return inputs


def dist_from_json(obj: Any, semiring: Semiring, base: FiniteSet, what: str) -> FinDist:
    if not isinstance(obj, dict):
        raise LoadError(f"{what} must be an object of weight literals")
    weights = {}
    for key, text in obj.items():
        try:
            label = _key_label(key, base)
        except LoadError as exc:
            raise LoadError(f"{what}: {exc}") from exc
        if not isinstance(text, str):
            raise LoadError(f"{what} weight for {key!r} must be a string literal")
        weights[label] = semiring.parse(text)
    try:
        return FinDist(semiring, base, weights)
    except (ShapeError, ValueError) as exc:
        raise LoadError(f"{what}: {exc}") from exc


def dist_to_json(dist: FinDist) -> Dict[str, str]:
    return {_label_key(label): dist.semiring.format(value)
            for label, value in dist.items()}


def kernel_from_json(obj: Any, semiring: Semiring, name: str = "kernel") -> Kernel:
    if not isinstance(obj, dict):
        raise LoadError(f"{name} must be an object")
    if "dom" not in obj or "cod" not in obj:
        raise LoadError(f"{name} needs 'dom' and 'cod' label arrays")
    dom = _set_from_json(obj["dom"], f"{name}.dom")
    cod = _set_from_json(obj["cod"], f"{name}.cod")
    inputs = _input_keys(dom, f"{name}.dom")
    if "function" in obj:
        mapping = obj["function"]
        if not isinstance(mapping, dict):
            raise LoadError(f"{name}.function must be an object")
        columns = {}
        from . import findist as fd
        for key, a in inputs.items():
            if key not in mapping:
                raise LoadError(f"{name}.function misses input {key!r}")
            target = _label_from_json(mapping[key])
            if target not in cod:
                raise LoadError(f"{name}.function sends {key!r} outside the codomain")
            columns[a] = fd.dirac(semiring, cod, target)
        return Kernel(semiring, dom, cod, columns)
    if "columns" not in obj:
        raise LoadError(f"{name} needs 'columns' or 'function'")
    raw = obj["columns"]
    if not isinstance(raw, dict):
        raise LoadError(f"{name}.columns must be an object")
    columns = {}
    for key, a in inputs.items():
        if key not in raw:
            raise LoadError(f"{name}.columns misses input {key!r}")
        columns[a] = dist_from_json(raw[key], semiring, cod, f"{name}.columns[{key!r}]")
    extra = set(raw) - set(inputs)
    if extra:
        raise LoadError(f"{name}.columns has unknown inputs {sorted(extra)!r}")
    return Kernel(semiring, dom, cod, columns)


def kernel_to_json(k: Kernel) -> Dict[str, Any]:
    columns = {_label_key(a): dist_to_json(k.column(a)) for a in k.dom.labels}
    return {"dom": [_label_to_json(l) for l in k.dom.labels],
            "cod": [_label_to_json(l) for l in k.cod.labels],
            "columns": columns}


def point_to_json(point: Point) -> list:
    return [str(w) for w in point.weights]


def metadist_to_json(md: MetaDist) -> Dict[str, Any]:
    return {
        "base": [_label_to_json(l) for l in md.theta],
        "points": [point_to_json(p) for p, _ in md.items()],
        "weights": [str(w) for _, w in md.items()],
        "weights_approx": [decimal_str(w) for _, w in md.items()],
    }


def dilation_to_json(t: Dilation) -> Dict[str, Any]:
    return {
        "sources": [point_to_json(p) for p in t.dom.labels],
        "targets": [point_to_json(p) for p in t.cod.labels],
        "rows": [[str(t.weight(target, source)) for target in t.cod.labels]
                 for source in t.dom.labels],
    }


def bss_report_to_json(report: BssReport) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "standard_measure_f": metadist_to_json(report.f_hat_m),
        "standard_measure_g": metadist_to_json(report.g_hat_m),
        "garbling_feasible": report.garbling_feasible,
        "dilation_feasible": report.dilation_feasible,
        "verdicts_agree": report.agree,
        "full_support_prior": report.full_support,
    }
    out["garbling"] = kernel_to_json(report.garbling) if report.garbling else None
    out["dilation"] = dilation_to_json(report.dilation) if report.dilation else None
    if report.full_support:
        out["plain_garbling_feasible"] = report.plain_garbling is not None
        out["plain_garbling"] = (kernel_to_json(report.plain_garbling)
                                 if report.plain_garbling else None)
    return out


@dataclass
class ExperimentFile:
    """Loaded contents of an experiment description file."""

    semiring: Semiring
    theta: FiniteSet
    kernels: Dict[str, Kernel]
    priors: Dict[str, Kernel]

    def kernel(self, name: str) -> Kernel:
        if name not in self.kernels:
            raise LoadError(f"no kernel named {name!r} in the file")
        return self.kernels[name]

    def prior(self, name: str) -> Kernel:
        if name not in self.priors:
            raise LoadError(f"no prior named {name!r} in the file")
        return self.priors[name]


def load_experiment(source: Union[str, Path, dict]) -> ExperimentFile:
    """Parse and validate an experiment file (path or already-decoded dict)."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise LoadError(f"cannot read {source}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise LoadError(f"invalid JSON in {source}: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise LoadError("experiment file must be a JSON object")
    try:
        semiring = semiring_by_name(data.get("semiring", "rational"))
    except Exception as exc:
        raise LoadError(str(exc)) from exc
    if "theta" not in data:
        raise LoadError("experiment file needs a 'theta' label array")
    theta = _set_from_json(data["theta"], "theta")
    kernels = {}
    raw_kernels = data.get("kernels", {})
    if not isinstance(raw_kernels, dict):
        raise LoadError("'kernels' must be an object")
    for name, obj in raw_kernels.items():
        kernels[name] = kernel_from_json(obj, semiring, name=name)
    priors = {}
    raw_priors = data.get("priors", {})
    if not isinstance(raw_priors, dict):
        raise LoadError("'priors' must be an object")
    for name, obj in raw_priors.items():
        dist = dist_from_json(obj, semiring, theta, f"priors[{name!r}]")
        priors[name] = state(dist)
    return ExperimentFile(semiring=semiring, theta=theta, kernels=kernels, priors=priors)
