"""Each parameter rule that several modules apply has one home.

The rules for counts, the open unit interval, positive finite values,
coefficient or response vectors and weight vectors live in ``errors``, the
rule for seeds and stream ids in ``seeding``, and every other module calls
them. A module that spells a rule's message holds a copy of the rule,
which can drift from it, so it fails here; and every entry that takes a
vector refuses a bad one with its rule's message.
"""

import ast
import pathlib

import numpy as np
import pytest

from mdlasso import divergences as dv
from mdlasso import model as md
from mdlasso.bounds import regret_main_term
from mdlasso.lasso import LassoProblem, kkt_residual, objective
from mdlasso.penalty import (PenaltyCoefficients, QuantizerSpec,
                             randomize_quantize, weighted_l1)
from mdlasso.typical_set import is_typical

ROOT = pathlib.Path(__file__).resolve().parents[1]
# a fragment of each rule's message: the module that spells it
HOMES = {" must be >= ": "errors.py",
         " must lie in (0, 1), got ": "errors.py",
         " must be positive and finite, got ": "errors.py",
         " must have length ": "errors.py",
         " must be finite, got ": "errors.py",
         " entries must be positive, got ": "errors.py",
         " must lie in [0, 2**64), got ": "seeding.py"}
# DivergenceOrder checks its lambda itself: it raises InvalidOrderError
OWN_CHECKS = {"divergence order lambda must lie in (0, 1), got "}


def raised_strings(tree):
    """The string constants in the module's ``raise`` statements, the
    literal parts of f-strings among them."""
    return {node.value for stmt in ast.walk(tree)
            if isinstance(stmt, ast.Raise) for node in ast.walk(stmt)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


@pytest.mark.parametrize("fragment", sorted(HOMES))
def test_only_the_home_of_a_rule_spells_its_message(fragment):
    spelled = {path.name for path in (ROOT / "src" / "mdlasso").glob("*.py")
               if any(fragment in text for text in raised_strings(
                   ast.parse(path.read_text(encoding="utf-8"))) - OWN_CHECKS)}
    assert spelled == {HOMES[fragment]}


MODEL = md.GaussianLinearModel(np.zeros(2), 1.0)
ORDER = md.DivergenceOrder(0.5)
PROB = LassoProblem(np.eye(2), np.ones(2), 1.0, PenaltyCoefficients(0.1, 0.01))
# each entry that takes a vector of length 2: the argument's name, and the
# call with that argument replaced
VECTOR_ENTRIES = {
    "GaussianLinearModel": ("theta_star",
                            lambda v: md.GaussianLinearModel(v, 1.0)),
    "displacement_energy": ("theta",
                            lambda v: md.displacement_energy(MODEL, v)),
    "renyi_div": ("theta", lambda v: md.renyi_div(MODEL, v, ORDER)),
    "renyi_grad": ("theta", lambda v: md.renyi_grad(MODEL, v, ORDER)),
    "renyi_hess": ("theta", lambda v: md.renyi_hess(MODEL, v, ORDER)),
    "hessian_bound_gap": ("theta",
                          lambda v: md.hessian_bound_gap(MODEL, v, ORDER)),
    "renyi_mc": ("theta", lambda v: dv.renyi_mc(MODEL, v, ORDER, 1000, 0)),
    "kl_closed": ("theta", lambda v: dv.kl_closed(MODEL, v)),
    "bhattacharyya": ("theta", lambda v: dv.bhattacharyya(MODEL, v)),
    "hellinger_sq": ("theta", lambda v: dv.hellinger_sq(MODEL, v)),
    "LassoProblem": ("Y", lambda v: LassoProblem(
        np.eye(2), v, 1.0, PenaltyCoefficients(0.1, 0.01))),
    "objective": ("theta", lambda v: objective(PROB, v)),
    "kkt_residual": ("theta", lambda v: kkt_residual(PROB, v)),
    "regret_main_term-theta_star": (
        "theta_star", lambda v: regret_main_term(PROB, v, np.zeros(2))),
    "regret_main_term-theta_hat": (
        "theta", lambda v: regret_main_term(PROB, np.zeros(2), v)),
    "weighted_l1": ("theta", lambda v: weighted_l1(v, np.ones(2))),
    "randomize_quantize": ("theta", lambda v: randomize_quantize(
        v, QuantizerSpec(0.5, np.ones(2)), 0)),
}
# the bad vector, and the message after the argument's name
BAD_VECTORS = {"nan": ([0.0, np.nan], " must be finite, got nan at index 1"),
               "inf": ([0.0, -np.inf],
                       " must be finite, got -inf at index 1"),
               "wrong_length": ([0.0, 0.0, 0.0],
                                " must have length 2, got 3")}


# the closed forms returned nan (inf for an infinite entry) and the
# gradient and Hessian NaN arrays; lengths had three wordings, and a
# theta_star of the wrong length reached numpy's matmul
@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
def test_every_vector_entry_refuses_a_bad_vector(entry, bad):
    name, call = VECTOR_ENTRIES[entry]
    vector, message = BAD_VECTORS[bad]
    if entry == "GaussianLinearModel" and bad == "wrong_length":
        vector, message = [], " must have length >= 1, got 0"
    with pytest.raises(ValueError) as caught:
        call(np.array(vector))
    assert str(caught.value) == name + message


# each takes weights of length 2: the argument's name and the call
WEIGHT_ENTRIES = {
    "weighted_l1": ("w", lambda w: weighted_l1(np.ones(2), w)),
    "QuantizerSpec": ("w_star", lambda w: QuantizerSpec(0.5, w)),
    "is_typical": ("covariance diagonal",
                   lambda w: is_typical(np.ones(2), np.diag(w), 0.5)),
}
BAD_WEIGHTS = {"inf": (np.inf, " must be finite, got inf at index 1"),
               "zero": (0.0, " entries must be positive, got 0.0 at index 1"),
               "negative": (-1.0,
                            " entries must be positive, got -1.0 at index 1")}


# an infinite weight made weighted_l1 return inf and QuantizerSpec round
# to [1, nan] with RuntimeWarnings; is_typical took it as a column of
# ratio 0
@pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRIES))
@pytest.mark.parametrize("bad", sorted(BAD_WEIGHTS))
def test_every_weight_entry_refuses_a_bad_weight(entry, bad):
    name, call = WEIGHT_ENTRIES[entry]
    weight, message = BAD_WEIGHTS[bad]
    with pytest.raises(ValueError) as caught:
        call(np.array([1.0, weight]))
    assert str(caught.value) == name + message
