"""The three workloads, each a pool of rounds built from the seed.

A round is one pass over a fixed template of the rungs, with small
instances far more often than large ones; every slot of every round gets an
instance of its own.  Rounds differ only in which large-rung queries they
run, alternating between two sets, so a run that stops at a round boundary
measures the workload's mix.  The run walks the rounds in order and wraps
around if it reaches the end.

Every operation looks the library function up on its module when it runs,
so the wrappers of a traced run see the call.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence, Tuple

import checks as ck
from instances import (Instance, Matrix, composition, det_given_instance,
                       det_given_answer, experiment_doc, is_point_mass_matrix,
                       joint_matrix, labels, make_instance, rng, to_kernel, to_prior)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Tuple[bool, str]]  # (correct, canonical output text)
    raises: Optional[type] = None              # the exception that is the answer


def matrix_text(m: Optional[Matrix]) -> str:
    return "none" if m is None else ";".join(",".join(str(w) for w in col) for col in m)


def rod_path(root) -> str:
    return os.path.join(root, "src", "semistoch", "data", "rod.json")


@dataclass
class Pair:
    """A source/target comparison with its known answer, as plain matrices."""

    theta: List[str]
    x: List[str]
    y: List[str]
    f: Matrix
    g: Matrix
    feasible: bool
    cert: Optional[Tuple[int, int]]


def pairs_of(inst: Instance) -> Tuple[Pair, Pair]:
    base = (inst.theta, inst.x, inst.y, inst.f)
    return Pair(*base, inst.g, True, None), Pair(*base, inst.gx, False, inst.cert)


def verdict_ok(pair: Pair, witness: Optional[Matrix], support: Sequence[int]) -> bool:
    if pair.feasible:
        return ck.garbles(witness, pair.f, pair.g, support)
    return witness is None and ck.certifies(pair.f, pair.g, pair.cert, support)


# -- garble -------------------------------------------------------------------

# (feasible, mode, prior) slots of a round, per rung.  The two 6x12x12
# slots swap modes from one round to the next, which keeps that rung near a
# third of the timed work.
_EIGHT = [(feasible, mode, prior) for prior in ("full", "part")
          for mode in ("plain", "as") for feasible in (True, False)]
_LARGE = ([(True, "plain", "full"), (False, "as", "part")],
          [(True, "as", "part"), (False, "plain", "full")])


def garble_round(r: int):
    return (("3x4x4", _EIGHT * 8), ("4x8x8", _EIGHT * 2), ("6x12x12", _LARGE[r % 2]))


def garble_op(S, inst: Instance, feasible: bool, mode: str, prior_name: str) -> Op:
    pair = pairs_of(inst)[0 if feasible else 1]
    prior = getattr(inst, prior_name)
    f = to_kernel(S, pair.f, pair.theta, pair.x)
    g = to_kernel(S, pair.g, pair.theta, pair.y)
    if mode == "as":
        m = to_prior(S, prior, pair.theta)
        support = ck.support_of(prior)
        run = lambda: S.comparison.find_garbling_as(f, g, m)
    else:
        support = range(len(pair.theta))
        run = lambda: S.comparison.find_garbling(f, g)

    def check(c):
        witness = None if c is None else ck.read_matrix(c, pair.x, pair.y)
        return verdict_ok(pair, witness, support), matrix_text(witness)

    rung = inst.name.rsplit("-", 1)[0]
    verdict = "feasible" if feasible else "infeasible"
    return Op(f"garble/{rung}/{mode}/{verdict}", run, check)


def build_garble(S, seed: int, root: str, workdir: str, rounds: int = 12) -> List[List[Op]]:
    pool = []
    for r in range(rounds):
        ops = []
        for rung, slots in garble_round(r):
            for j, slot in enumerate(slots):
                ops.append(garble_op(S, make_instance(seed, rung, r * len(slots) + j), *slot))
        pool.append(ops)
    return pool


# -- bss: the command line, in process -----------------------------------------

def cli_op(S, kind: str, argv: List[str], code: int, out_ok: Callable[[str], bool]) -> Op:
    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                status = S.cli.main(argv)
            except SystemExit as exc:
                status = exc.code
        return status, out.getvalue()

    def check(result):
        status, out = result
        return status == code and out_ok(out), f"{status}\n{out}"

    return Op(kind, run, check)


def bss_json_ok(pair: Pair, prior: Sequence[Fraction]) -> Callable[[str], bool]:
    support = ck.support_of(prior)
    full = len(support) == len(prior)

    def ok(out: str) -> bool:
        doc = json.loads(out)
        good = (doc["verdicts_agree"] is True
                and doc["garbling_feasible"] is pair.feasible
                and doc["dilation_feasible"] is pair.feasible
                and doc["full_support_prior"] is full
                and ck.standard_measure_ok(ck.measure_from_json(doc["standard_measure_f"]), prior)
                and ck.standard_measure_ok(ck.measure_from_json(doc["standard_measure_g"]), prior))
        witness = ck.matrix_from_json(doc["garbling"], pair.x, pair.y)
        good = good and verdict_ok(pair, witness, support)
        if pair.feasible:
            good = good and ck.dilation_json_ok(doc)
        if full:
            plain = ck.matrix_from_json(doc["plain_garbling"], pair.x, pair.y)
            good = (good and doc["plain_garbling_feasible"] is pair.feasible
                    and verdict_ok(pair, plain, range(len(prior))))
        return good

    return ok


def compare_json_ok(pair: Pair, support: Sequence[int]) -> Callable[[str], bool]:
    def ok(out: str) -> bool:
        doc = json.loads(out)
        witness = ck.matrix_from_json(doc["witness"], pair.x, pair.y)
        return doc["feasible"] is pair.feasible and verdict_ok(pair, witness, support)
    return ok


def measure_json_ok(prior: Sequence[Fraction]) -> Callable[[str], bool]:
    return lambda out: ck.standard_measure_ok(ck.measure_from_json(json.loads(out)), prior)


def text_ok(prefix: str = "", contains: str = "") -> Callable[[str], bool]:
    return lambda out: out.startswith(prefix) and contains in out


def compare_text_ok(pair: Pair) -> Callable[[str], bool]:
    return text_ok("f >= g" if pair.feasible else "",
                   "" if pair.feasible else "no garbling exists")


def bss_queries(S, path: str, pair: Pair, full, part, uniform, tag: str,
                with_names=("f", "g")) -> dict:
    """Named query builders over one file; each returns an Op."""
    f, g = with_names
    code = 0 if pair.feasible else 1
    every = range(len(pair.theta))
    return {
        "bss-json-full": lambda: cli_op(S, f"bss/{tag}/bss-json-full",
                                        ["bss", path, f, g, "--prior", "full", "--json"],
                                        code, bss_json_ok(pair, full)),
        "bss-json-part": lambda: cli_op(S, f"bss/{tag}/bss-json-part",
                                        ["bss", path, f, g, "--prior", "part", "--json"],
                                        code, bss_json_ok(pair, part)),
        "bss-text-full": lambda: cli_op(S, f"bss/{tag}/bss-text-full",
                                        ["bss", path, f, g, "--prior", "full"], code,
                                        text_ok("standard measure of", "verdicts agree: yes")),
        "bss-text-part": lambda: cli_op(S, f"bss/{tag}/bss-text-part",
                                        ["bss", path, f, g, "--prior", "part"], code,
                                        text_ok("standard measure of", "verdicts agree: yes")),
        "compare-plain": lambda: cli_op(S, f"bss/{tag}/compare-plain", ["compare", path, f, g],
                                        code, compare_text_ok(pair)),
        "compare-plain-json": lambda: cli_op(S, f"bss/{tag}/compare-plain-json",
                                             ["compare", path, f, g, "--json"], code,
                                             compare_json_ok(pair, every)),
        "compare-as-part": lambda: cli_op(S, f"bss/{tag}/compare-as-part",
                                          ["compare", path, f, g, "--mode", "as",
                                           "--prior", "part", "--json"], code,
                                          compare_json_ok(pair, ck.support_of(part))),
        "compare-as-uniform": lambda: cli_op(S, f"bss/{tag}/compare-as-uniform",
                                             ["compare", path, f, g, "--mode", "as",
                                              "--uniform", "--json"], code,
                                             compare_json_ok(pair, every)),
        "compare-bayes": lambda: cli_op(S, f"bss/{tag}/compare-bayes",
                                        ["compare", path, f, g, "--mode", "bayes"], code,
                                        compare_text_ok(pair)),
        "compare-bayes-json": lambda: cli_op(S, f"bss/{tag}/compare-bayes-json",
                                             ["compare", path, f, g, "--mode", "bayes",
                                              "--json"], code, compare_json_ok(pair, every)),
        "measure-f-json": lambda: cli_op(S, f"bss/{tag}/measure-f-json",
                                         ["standard-measure", path, f, "--prior", "part",
                                          "--json"], 0, measure_json_ok(part)),
        "measure-g-uniform": lambda: cli_op(S, f"bss/{tag}/measure-g-uniform",
                                            ["standard-measure", path, g, "--uniform",
                                             "--json"], 0, measure_json_ok(uniform)),
    }


def check_op(S, tag: str, path: str, kernel: str, prop: str, answer: bool) -> Op:
    return cli_op(S, f"bss/{tag}/check-{prop}", ["check", path, kernel, prop],
                  0 if answer else 1, text_ok(f"{kernel} {prop}: {'yes' if answer else 'no'}"))


def rod_ops(S, root: str) -> List[Op]:
    path = rod_path(root)
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    theta = doc["theta"]
    kernels = {name: (k["cod"], [[Fraction(k["columns"][a].get(b, "0")) for b in k["cod"]]
                                 for a in k["dom"]])
               for name, k in doc["kernels"].items()}
    (cod, f), (_, g) = kernels["f"], kernels["g"]
    uniform = [Fraction(1, len(theta))] * len(theta)
    ahead = Pair(theta, cod, cod, f, g, True, None)
    behind = Pair(theta, cod, cod, g, f, False, (0, 1))
    fwd = bss_queries(S, path, ahead, uniform, uniform, uniform, "rod")
    rev = bss_queries(S, path, behind, uniform, uniform, uniform, "rod-rev", ("g", "f"))
    c_answer = is_point_mass_matrix(kernels["c"][1])
    return [fwd["compare-plain"](), rev["compare-plain-json"](), fwd["compare-as-uniform"](),
            cli_op(S, "bss/rod/bss-json", ["bss", path, "f", "g", "--prior", "uniform",
                                           "--json"], 0, bss_json_ok(ahead, uniform)),
            fwd["measure-g-uniform"](), check_op(S, "rod", path, "c", "deterministic", c_answer)]


# Per rung: (queries on the feasible pair, queries on the infeasible pair).
# The 6x12x12 queries alternate between rounds.  Its full-support requests
# are the bayes comparison and the uniform standard measure; its bss request
# uses the partial prior.  A full-support 6x12x12 bss solves two garbling
# LPs and took 2.7-4.3 s, too large a share of a run to average.
BSS_SMALL = (("bss-json-full", "bss-text-part", "compare-plain", "compare-as-part",
              "measure-f-json", "measure-g-uniform"),
             ("bss-json-part", "bss-text-full", "compare-plain-json", "compare-bayes"))
BSS_MEDIUM = (("bss-json-full", "compare-as-part", "measure-f-json"),
              ("bss-text-part", "compare-bayes-json"))
BSS_LARGE = ((("bss-json-part",), ()), (("measure-g-uniform",), ("compare-bayes-json",)))


def bss_round(r: int):
    return (("3x4x4", BSS_SMALL), ("4x8x8", BSS_MEDIUM), ("6x12x12", BSS_LARGE[r % 2]))


def build_bss(S, seed: int, root: str, workdir: str, rounds: int = 12) -> List[List[Op]]:
    pool = []
    for r in range(rounds):
        ops = rod_ops(S, root)
        for rung, plan in bss_round(r):
            inst = make_instance(seed, rung, r)
            small = rung == "3x4x4"
            joint = joint_matrix(inst.f, inst.c0) if small else None
            path = os.path.join(workdir, f"{inst.name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(experiment_doc(inst, joint), handle)
            uniform = [Fraction(1, len(inst.theta))] * len(inst.theta)
            for pair, names in zip(pairs_of(inst), plan):
                tag = f"{rung}/{'feasible' if pair.feasible else 'infeasible'}"
                queries = bss_queries(S, path, pair, inst.full, inst.part, uniform, tag,
                                      ("f", "g" if pair.feasible else "gx"))
                ops += [queries[name]() for name in names]
            ops.append(check_op(S, rung, path, "c", "deterministic",
                                is_point_mass_matrix(inst.c0)))
            if small:
                ops.append(check_op(S, rung, path, "h", "det-given-left",
                                    det_given_answer(inst.f, inst.c0)))
        pool.append(ops)
    return pool


# -- algebra: kernel algebra without any LP --------------------------------------

def rational_ops(S, inst: Instance, kinds: Sequence[str], prior_name: str) -> List[Op]:
    rung = inst.name.rsplit("-", 1)[0]
    prior = getattr(inst, prior_name)
    support = ck.support_of(prior)
    f = to_kernel(S, inst.f, inst.theta, inst.x)
    g = to_kernel(S, inst.g, inst.theta, inst.y)
    c0 = to_kernel(S, inst.c0, inst.x, inst.y)
    m = to_prior(S, prior, inst.theta)
    xy = S.product_set(S.FiniteSet(inst.x), S.FiniteSet(inst.y))
    h = to_kernel(S, joint_matrix(inst.f, inst.c0), inst.theta, xy)

    def all_true(result):
        return all(v is True for v in result.values()), json.dumps(result, sort_keys=True)

    def compose_check(result):
        got = ck.read_matrix(result, inst.theta, inst.y)
        return got == inst.g, matrix_text(got)

    def measure_check(md):
        entries = ck.metadist_entries(md)
        return ck.standard_measure_ok(entries, prior), repr(entries)

    def sufficiency():
        h_w, alpha = S.comparison.sufficiency_witness(f, g, c0, m)
        return S.comparison.verify_sufficiency(h_w, alpha, f, g, m)

    def cond_indep():
        w = S.comparison.conditional_independence_witness(h, m)
        return S.comparison.verify_conditional_independence(w, f, g, m)

    def dilation():
        t = S.blackwell.garbling_to_dilation(c0, f, g, m)
        return t, S.blackwell.dilation_to_garbling(t, f, g, m)

    def dilation_check(result):
        t, c = result
        bw = S.blackwell
        g_hat, f_hat = bw.standard_measure(g, m), bw.standard_measure(f, m)
        witness = ck.read_matrix(c, inst.x, inst.y)
        good = (bw.is_dilation(t, g_hat) and bw.transport(t, g_hat) == f_hat
                and ck.garbles(witness, inst.f, inst.g, support))
        rows = json.dumps(S.serialize.dilation_to_json(t), sort_keys=True)
        return good, rows + "\n" + matrix_text(witness)

    table = {
        "compose": (lambda: S.kernel.compose(c0, f), compose_check),
        "standard_measure": (lambda: S.blackwell.standard_measure(f, m), measure_check),
        "sufficiency": (sufficiency, all_true),
        "cond_indep": (cond_indep, all_true),
        "dilation": (dilation, dilation_check),
        "samp": (lambda: S.blackwell.verify_samp_is_bayesian_inverse(f, m),
                 lambda v: (v is True, str(v))),
    }
    return [Op(f"algebra/{rung}/{kind}", *table[kind]) for kind in kinds]


def det_given_op(S, seed: int, sizes: Tuple[int, int, int], index: int) -> Op:
    theta, xs, ys, joint, answer = det_given_instance(seed, sizes, index)
    h = to_kernel(S, joint, theta, S.product_set(S.FiniteSet(xs), S.FiniteSet(ys)))
    return Op("algebra/{}x{}x{}/det_given".format(*sizes),
              lambda: S.conditioning.is_deterministic_given(h, "left"),
              lambda v: (v is answer, str(v)))


def semiring_column(r, kind: str, n: int, point: bool):
    """A normalized column: levels with a top entry, or a pair of distributions."""
    if kind == "tri":
        if point:
            col = [0] * n
        else:
            col = [r.choice((0, 1, 2)) for _ in range(n)]
        col[r.randrange(n)] = 2
        return col
    if point:
        a, b = r.randrange(n), r.randrange(n)
        return [(Fraction(int(i == a)), Fraction(int(i == b))) for i in range(n)]
    left, right = composition(r, 3, n), composition(r, 4, n)
    return [(Fraction(p, 3), Fraction(q, 4)) for p, q in zip(left, right)]


def semiring_ops(S, seed: int, kind: str, k: int) -> List[Op]:
    r = rng(seed, f"{kind}/{k}")
    sr = S.TRILATTICE if kind == "tri" else S.PAIR_RATIONAL
    lift = (lambda v: ck.tri_value(S, v)) if kind == "tri" else (lambda v: v)

    def matrix(n_dom, n_cod, point=False):
        return [semiring_column(r, kind, n_cod, point) for _ in range(n_dom)]

    def kernel(m, dom, cod):
        return to_kernel(S, [[lift(v) for v in col] for col in m], dom, cod, sr)

    def read(k_obj):
        return [[ck.plain(kind, k_obj.weight(b, a)) for b in k_obj.cod.labels]
                for a in k_obj.dom.labels]

    a, b, c = labels("a", 5), labels("b", 6), labels("c", 5)
    f1, g1 = matrix(5, 6), matrix(6, 5)
    kf, kg = kernel(f1, a, b), kernel(g1, b, c)
    t1, t2 = matrix(3, 4), matrix(3, 4)
    kt1, kt2 = kernel(t1, labels("p", 3), labels("q", 4)), kernel(t2, labels("r", 3),
                                                                   labels("s", 4))
    det = matrix(5, 6, point=k % 2 == 0)
    kdet = kernel(det, a, b)
    xs, ys = labels("x", 3), labels("y", 4)
    joint = matrix(3, 12)
    kjoint = kernel(joint, labels("t", 3), S.product_set(S.FiniteSet(xs), S.FiniteSet(ys)))
    answer = ck.deterministic_answer(kind, det)

    def same(expected):
        return lambda got: (read(got) == expected, repr(read(got)))

    def cond_check(got):
        cond = read(got)
        return ck.disintegrates(kind, joint, cond, len(xs), len(ys)), repr(cond)

    return [
        Op(f"algebra/{kind}/compose", lambda: S.kernel.compose(kg, kf),
           same(ck.compose_oracle(kind, g1, f1))),
        Op(f"algebra/{kind}/tensor", lambda: S.kernel.tensor(kt1, kt2),
           same(ck.tensor_oracle(kind, t1, t2))),
        Op(f"algebra/{kind}/is_deterministic", lambda: S.kernel.is_deterministic(kdet),
           lambda v: (v is answer, str(v))),
        Op(f"algebra/{kind}/conditional",
           lambda: S.conditioning.conditional(kjoint, wrt="left"), cond_check,
           raises=None if kind == "tri" else S.CapabilityError),
    ]


ALGEBRA_KINDS = ("compose", "standard_measure", "sufficiency", "cond_indep", "dilation",
                 "samp")
DET_GIVEN_SIZES = ((2, 3, 3), (3, 4, 4), (3, 6, 6))
# One 6x12x12 conditional-independence check took 2.3-3.3 s, half of a
# round's timed work; a handful per run set both ops_per_s and the tail.
ALGEBRA_SKIP = {("cond_indep", "6x12x12")}


def build_algebra(S, seed: int, root: str, workdir: str, rounds: int = 12) -> List[List[Op]]:
    pool = []
    for r in range(rounds):
        ops = []
        for i, rung in enumerate(("3x4x4", "4x8x8", "6x12x12")):
            # Priors alternate along kinds and rungs, the same in every round.
            inst = make_instance(seed, rung, r)
            for parity, prior in ((0, "full"), (1, "part")):
                kinds = [kind for j, kind in enumerate(ALGEBRA_KINDS)
                         if (i + j + 1) % 2 == parity and (kind, rung) not in ALGEBRA_SKIP]
                ops += rational_ops(S, inst, kinds, prior)
        ops += [det_given_op(S, seed, sizes, r) for sizes in DET_GIVEN_SIZES]
        for copy in (2 * r, 2 * r + 1):
            ops += semiring_ops(S, seed, "tri", copy) + semiring_ops(S, seed, "pair", copy)
        pool.append(ops)
    return pool


BUILDERS = {"garble": build_garble, "bss": build_bss, "algebra": build_algebra}


def probe(S, root: str) -> None:
    """One call of every traced layer: rod ``bss --json`` and both dilation maps."""
    path = rod_path(root)
    with redirect_stdout(io.StringIO()):
        S.cli.main(["bss", path, "f", "g", "--prior", "uniform", "--json"])
    exp = S.serialize.load_experiment(path)
    f, g, c, m = exp.kernel("f"), exp.kernel("g"), exp.kernel("c"), exp.prior("uniform")
    S.blackwell.dilation_to_garbling(S.blackwell.garbling_to_dilation(c, f, g, m), f, g, m)
