from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from crashloc.config import Config
from crashloc.errors import DimensionMismatch, EmptyCorpus, SchemaError
from crashloc.evaluation import fit
from crashloc.features import SelectedVocabulary, vectorize
from crashloc.nb import CATEGORIES, Category, NBModel, certified_argmax, predict, train


def oracle_log_posterior(corpus, smoothing, vector, category):
    """Direct probability-space enumeration, logged at the end."""
    n = len(corpus)
    count = sum(1 for _, c in corpus if c is category)
    prior = (count + smoothing) / (n + 3 * smoothing)
    value = prior
    for i, bit in enumerate(vector):
        ones = sum(1 for vec, c in corpus if c is category and vec[i])
        p_one = (ones + smoothing) / (count + 2 * smoothing)
        value *= p_one if bit else (1.0 - p_one)
    return math.log(value)


def test_train_prior_example():
    corpus = [([0], Category.A), ([0], Category.A), ([0], Category.B), ([0], Category.C)]
    model = train(corpus, smoothing=1.0)
    assert model.prior(Category.A) == pytest.approx(3 / 7)
    assert model.prior(Category.B) == pytest.approx(2 / 7)
    assert sum(model.priors) == pytest.approx(1.0, abs=1e-9)


def test_train_single_category_priors():
    corpus = [([1], Category.B)] * 4
    model = train(corpus, smoothing=1.0)
    assert model.prior(Category.B) == pytest.approx(5 / 7)
    assert model.prior(Category.A) == pytest.approx(1 / 7)
    assert model.prior(Category.C) == pytest.approx(1 / 7)


def test_train_conditional_add_one():
    # Feature always 0 under A with two A docs: (0 + 1) / (2 + 2) = 1/4.
    corpus = [([0], Category.A), ([0], Category.A), ([1], Category.B)]
    model = train(corpus, smoothing=1.0)
    assert model.cond[0][0] == pytest.approx(1 / 4)


def test_train_rejects_empty_and_ragged():
    with pytest.raises(EmptyCorpus):
        train([], 1.0)
    with pytest.raises(DimensionMismatch):
        train([([0, 1], Category.A), ([0], Category.B)], 1.0)


def test_predict_degenerate_zero_corpus():
    model = train([([0, 0], Category.A)] * 3, smoothing=1.0)
    category, _ = predict(model, [0, 0])
    assert category is Category.A


def test_predict_recovers_training_doc():
    corpus = [
        ([0, 1, 0], Category.A),
        ([0, 1, 1], Category.A),
        ([1, 0, 0], Category.B),
        ([0, 0, 1], Category.C),
    ]
    model = train(corpus, smoothing=1.0)
    category, scores = predict(model, [1, 0, 0])
    assert category is Category.B
    for c in CATEGORIES:
        assert scores[c] == pytest.approx(
            oracle_log_posterior(corpus, 1.0, [1, 0, 0], c), abs=1e-12
        )


def test_predict_scores_exp_normalize_to_one():
    model = train([([1, 0], Category.A), ([0, 1], Category.B)], smoothing=1.0)
    _, scores = predict(model, [1, 1])
    total = sum(math.exp(s) for s in scores.values())
    normalized = sum(math.exp(s) / total for s in scores.values())
    assert normalized == pytest.approx(1.0, abs=1e-12)


def test_predict_dimension_mismatch():
    model = train([([1, 0], Category.A)], smoothing=1.0)
    with pytest.raises(DimensionMismatch):
        predict(model, [1, 0, 0])


def test_tie_break_prefers_a_then_b():
    # Symmetric corpus: every category sees the same data.
    corpus = [([0], Category.A), ([0], Category.B), ([0], Category.C)]
    model = train(corpus, smoothing=1.0)
    category, scores = predict(model, [0])
    assert len({round(s, 12) for s in scores.values()}) == 1
    assert category is Category.A


def test_serialization_field_order_and_determinism():
    corpus = [([1, 0], Category.A), ([0, 1], Category.B), ([1, 1], Category.C)]
    first = json.dumps(train(corpus, 1.0).to_json_obj())
    second = json.dumps(train(list(corpus), 1.0).to_json_obj())
    assert first == second
    obj = json.loads(first)
    assert list(obj) == ["smoothing", "priors", "conditionals"]
    back = NBModel.from_json_obj(obj)
    assert back.priors == train(corpus, 1.0).priors
    assert back.cond == train(corpus, 1.0).cond


def test_bundle_roundtrip_predicts_bit_identically(corpus):
    trained = fit(corpus, Config()).nb
    selected = SelectedVocabulary.from_json_obj(
        json.loads(json.dumps(trained.selected_vocab.to_json_obj())))
    loaded = NBModel.from_json_obj(json.loads(json.dumps(trained.to_json_obj())), selected)
    assert loaded == trained
    for crash in corpus:
        vector = vectorize(crash.report, selected)
        assert vector == vectorize(crash.report, trained.selected_vocab)
        assert predict(loaded, vector) == predict(trained, vector)
    assert loaded.log_tables == trained.log_tables
    assert loaded.argmax_tables == trained.argmax_tables


def test_log_tables_leave_equality_repr_and_json_alone():
    corpus = [([1, 0], Category.A), ([0, 1], Category.B), ([1, 1], Category.C)]
    for tables, take in (("log_tables", lambda model: predict(model, [1, 0])),
                         ("argmax_tables", lambda model: certified_argmax(model, [0]))):
        fresh, used = train(corpus, 1.0), train(corpus, 1.0)
        before = (repr(used), json.dumps(used.to_json_obj()), hash(used))
        take(used)
        assert tables in vars(used) and tables not in vars(fresh)
        assert used == fresh and fresh == used
        assert (repr(used), json.dumps(used.to_json_obj()), hash(used)) == before
        assert repr(fresh) == before[0]
        assert tables not in repr(used)
    assert [f.name for f in dataclasses.fields(NBModel)] == [
        "priors", "cond", "smoothing", "selected_vocab"]


@pytest.mark.parametrize(
    "change, pointer",
    [
        (lambda obj: obj.pop("priors"), "/nb"),
        (lambda obj: obj["priors"].update(B="half"), "/nb/priors/B"),
        (lambda obj: obj["conditionals"][1].pop(), "/nb/conditionals/1"),
        (lambda obj: obj["conditionals"][0].__setitem__(2, True), "/nb/conditionals/0/2"),
        (lambda obj: obj.update(smoothing=None), "/nb/smoothing"),
        (lambda obj: obj["priors"].update(A=float("nan")), "/nb/priors/A"),
        (lambda obj: obj["priors"].update(C=1), "/nb/priors/C"),
        (lambda obj: obj["conditionals"][1].__setitem__(0, float("inf")), "/nb/conditionals/1/0"),
        (lambda obj: obj["conditionals"][0].__setitem__(1, 0.0), "/nb/conditionals/0/1"),
        (lambda obj: obj["conditionals"][0].__setitem__(2, 10**400), "/nb/conditionals/0/2"),
        (lambda obj: obj.update(smoothing=float("nan")), "/nb/smoothing"),
        (lambda obj: obj.update(smoothing=0), "/nb/smoothing"),
    ],
    ids=["no-priors", "string-prior", "short-row", "boolean-cell", "null-smoothing",
         "nan-prior", "prior-of-one", "infinite-cell", "cell-of-zero", "huge-int-cell",
         "nan-smoothing", "zero-smoothing"],
)
def test_from_json_obj_reports_bad_shapes(change, pointer):
    obj = train([([1, 0], Category.A), ([0, 1], Category.B)], 1.0).to_json_obj()
    change(obj)
    with pytest.raises(SchemaError) as exc:
        NBModel.from_json_obj(obj, None, "/nb")
    assert exc.value.pointer == pointer


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_vec3 = st.lists(st.integers(0, 1), min_size=3, max_size=3)
_corpus3 = st.lists(
    st.tuples(_vec3, st.sampled_from(CATEGORIES)), min_size=1, max_size=8
)


@given(_corpus3, _vec3, st.sampled_from([0.5, 1.0, 2.0]))
def test_property_matches_bruteforce_enumeration(corpus, query, smoothing):
    model = train(corpus, smoothing)
    category, scores = predict(model, query)
    oracle_scores = {
        c: oracle_log_posterior(corpus, smoothing, query, c) for c in CATEGORIES
    }
    for c in CATEGORIES:
        assert scores[c] == pytest.approx(oracle_scores[c], abs=1e-12)
    # The prediction maximizes the oracle posterior; when the maximum is
    # unique beyond float slop, it is exactly the oracle argmax.
    best = max(oracle_scores.values())
    assert oracle_scores[category] >= best - 1e-9
    winners = [c for c in CATEGORIES if oracle_scores[c] >= best - 1e-9]
    if len(winners) == 1:
        assert category is winners[0]
    assert sum(model.priors) == pytest.approx(1.0, abs=1e-9)


@given(_corpus3, _vec3, st.permutations([0, 1, 2]))
def test_property_feature_permutation_consistency(corpus, query, perm):
    model = train(corpus, 1.0)
    permuted = train([([vec[p] for p in perm], c) for vec, c in corpus], 1.0)
    _, scores = predict(model, query)
    _, permuted_scores = predict(permuted, [query[p] for p in perm])
    for c in CATEGORIES:
        assert permuted_scores[c] == pytest.approx(scores[c], abs=1e-12)


@given(_corpus3, _vec3)
def test_property_argmax_invariant_under_constant_shift(corpus, query):
    # Adding a constant cannot demote the winner; near-equal scores may
    # collapse into exact ties in float arithmetic, so membership in the
    # shifted argmax set (not strict identity) is the testable form.
    model = train(corpus, 1.0)
    category, scores = predict(model, query)
    shifted = {c: s + 123.456 for c, s in scores.items()}
    best = max(shifted.values())
    assert shifted[category] >= best - 1e-9


# Edge values on both sides of (0, 1) as well as arbitrary floats.
_probability = (st.floats(min_value=0.0, max_value=1.0)
                | st.sampled_from((5e-324, 1.0 - 2**-53, -0.0, math.nan, math.inf))
                | st.floats())
_row = st.tuples(_probability, _probability, _probability)


@given(st.data(), _row, st.lists(_row, max_size=4), st.floats(min_value=5e-324, max_value=1e6))
def test_property_model_builds_iff_every_probability_is_in_the_open_unit_interval(
        data, priors, cond, smoothing):
    probabilities = [*priors, *(p for row in cond for p in row)]
    bad = [p for p in probabilities if not 0.0 < p < 1.0]
    try:
        model = NBModel(priors=priors, cond=tuple(cond), smoothing=smoothing)
    except ValueError as exc:
        assert bad
        assert f"NB probability {bad[0]!r} " in str(exc)
        assert f"smoothing {smoothing!r}" in str(exc)
        return
    assert not bad
    vector = data.draw(st.lists(st.integers(0, 1), min_size=len(cond), max_size=len(cond)))
    _, scores = predict(model, vector)
    assert all(math.isfinite(score) for score in scores.values())
