from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from functools import cached_property

import pytest
from hypothesis import given, strategies as st

import crashloc
from crashloc import localizer
from crashloc.appmodel import ApiRef, CallGraph, app_model_from_json, load_app_model
from crashloc.config import Config
from crashloc.corpus import LabeledCrash, load_corpus
from crashloc.errors import CrashLocError, EmptyPool, LocateError, NoDeveloperFrame, SchemaError
from crashloc.evaluation import fit
from crashloc.features import build_vocabulary, chi_square_select, vectorize
from crashloc.localizer import (
    Pipeline,
    SubCategory,
    infer_handled_api,
    locate,
    locate_category_a,
    locate_category_b,
    locate_category_c,
    location_label,
)
from crashloc.nb import Category, NBModel
from crashloc.nb import train as train_nb
from crashloc.trace import FrameworkMatcher, parse_and_split

from conftest import APP_MODELS, CRASH_DIR, make_report


@pytest.fixture(scope="module")
def geography():
    return load_app_model(APP_MODELS / "geography.json")


@pytest.fixture(scope="module")
def fengshui():
    return load_app_model(APP_MODELS / "fengshui.json")


def _crash(path, matcher):
    return parse_and_split((CRASH_DIR / path).read_text(encoding="utf-8"), matcher)


def _labeled_b(report, api: ApiRef) -> LabeledCrash:
    return LabeledCrash(report=report, category=Category.B, true_location="x#y", api_h=api)


def _labeled_c(report, sub: SubCategory) -> LabeledCrash:
    return LabeledCrash(report=report, category=Category.C, true_location=sub.value,
                        sub_category=sub)


# ---------------------------------------------------------------------------
# Category A
# ---------------------------------------------------------------------------

def test_category_a_figure1_order(figure1_report):
    result = locate_category_a(figure1_report)
    labels = [location_label(loc) for loc, _ in result.ranked]
    assert labels == [
        "de.sailerslog.app.LogbookFragment#commitPendingEntries",
        "de.sailerslog.app.LogbookFragment$Refresher#onReceive",
    ]
    scores = [s for _, s in result.ranked]
    assert scores == [1.0, 0.5]


def test_category_a_listing1_order(matcher):
    result = locate_category_a(_crash("listing1.log", matcher))
    assert [loc.method_name for loc, _ in result.ranked] == [
        "selectFromImagePicker",
        "access$500",
        "onReceive",
    ]


def test_category_a_single_frame():
    report = make_report(developer=("com.solo.app.Only.handle",))
    result = locate_category_a(report)
    assert len(result.ranked) == 1
    assert result.ranked[0][1] == 1.0


def test_category_a_ranks_a_repeated_method_once_at_its_first_position():
    report = make_report(developer=("com.app.Loop.step", "com.app.Loop.run", "com.app.Loop.step"))
    result = locate_category_a(report)
    assert [(location_label(loc), score) for loc, score in result.ranked] == [
        ("com.app.Loop#step", 1.0), ("com.app.Loop#run", 0.5)]


def test_category_a_requires_developer_frame():
    # A report without a developer frame cannot be built, so no locator sees one.
    report = make_report()
    with pytest.raises(NoDeveloperFrame):
        report.__class__(report.exception_type, report.message, report.frames, developer_frames=())


# ---------------------------------------------------------------------------
# Handled-API inference
# ---------------------------------------------------------------------------

def test_infer_handled_api_identical_seq(matcher, geography):
    query = _crash("b_geography_service.log", matcher)
    bind = ApiRef("android.content.ContextWrapper", "bindService", "call-in")
    other = ApiRef("android.widget.Other", "misc", "call-in")
    pool = [
        _labeled_b(make_report(framework=("android.widget.Other.misc",)), other),
        _labeled_b(query, bind),
    ]
    api, provenance = infer_handled_api(query, pool)
    assert api == bind
    assert provenance["similarity"] == 1.0
    assert provenance["training_index"] == 1
    assert provenance["low_confidence"] is False


def test_infer_handled_api_empty_pool(matcher):
    with pytest.raises(EmptyPool):
        infer_handled_api(make_report(), [])


def test_infer_handled_api_zero_similarity_flagged():
    query = make_report(framework=("android.a.A.a",))
    pool = [_labeled_b(make_report(framework=("android.z.Z.z",)),
                       ApiRef("android.z.Z", "z", "call-in"))]
    _, provenance = infer_handled_api(query, pool)
    assert provenance["low_confidence"] is True


# ---------------------------------------------------------------------------
# Category B, call-in branch (Geography shape)
# ---------------------------------------------------------------------------

def test_category_b_geography_call_in(matcher, geography):
    query = _crash("b_geography_service.log", matcher)
    bind = ApiRef("android.content.ContextWrapper", "bindService", "call-in")
    pool = [_labeled_b(query, bind)]
    result = locate_category_b(query, geography, pool)
    assert len(result.ranked) == 1
    top, score = result.ranked[0]
    assert location_label(top) == (
        "com.yamlearning.geographylearning.MainActivity#onCreate(android.os.Bundle)"
    )
    assert score == 1.0
    assert result.provenance["api_h"]["method_name"] == "bindService"


def test_category_b_framework_padding_leaves_scores_unchanged(matcher, geography):
    text = (CRASH_DIR / "b_geography_service.log").read_text(encoding="utf-8")
    padded = text + "".join(
        f"\tat android.os.Looper.loop(Looper.java:{n})\n" for n in range(150, 158)
    )
    bind = ApiRef("android.content.ContextWrapper", "bindService", "call-in")
    base = parse_and_split(text, matcher)
    grown = parse_and_split(padded, matcher)
    pool = [_labeled_b(base, bind)]
    assert (
        locate_category_b(base, geography, pool).ranked
        == locate_category_b(grown, geography, pool).ranked
    )


def test_category_b_unknown_frame_class_is_skipped(matcher, geography, caplog):
    report = make_report(
        framework=("android.app.ContextImpl.unbindService",),
        developer=(
            "com.unmodeled.app.Mystery.zap",
            "com.yamlearning.geographylearning.MainActivity.onDestroy",
        ),
    )
    bind = ApiRef("android.content.ContextWrapper", "bindService", "call-in")
    with caplog.at_level("WARNING"):
        result = locate_category_b(report, geography, [_labeled_b(report, bind)])
    assert "Mystery" in caplog.text
    # The modeled frame still scores, now at distance 2.
    assert result.ranked[0][1] == 0.5


# ---------------------------------------------------------------------------
# Category B, callback branch (Fengshui shape)
# ---------------------------------------------------------------------------

def test_category_b_fengshui_callback(matcher, fengshui):
    query = _crash("b_fengshui_downgrade.log", matcher)
    on_downgrade = ApiRef("android.database.sqlite.SQLiteOpenHelper", "onDowngrade", "callback")
    pool = [_labeled_b(query, on_downgrade)]
    result = locate_category_b(query, fengshui, pool)
    assert result.ranked
    top, score = result.ranked[0]
    assert top.class_name == "com.divination1518.g.p"
    assert top.method_name == "onDowngrade"
    assert score == 0.5  # matching class sits one frame below the crash method


def test_category_b_callback_dedupes_repeated_classes(matcher, fengshui):
    report = make_report(
        exception="android.database.sqlite.SQLiteException",
        message="Can't downgrade database from version 19 to 17",
        framework=("android.database.sqlite.SQLiteOpenHelper.getWritableDatabase",),
        developer=("com.divination1518.g.p.a", "com.divination1518.g.p.b"),
    )
    on_downgrade = ApiRef("android.database.sqlite.SQLiteOpenHelper", "onDowngrade", "callback")
    result = locate_category_b(report, fengshui, [_labeled_b(report, on_downgrade)])
    labels = [location_label(loc) for loc, _ in result.ranked]
    assert len(labels) == len(set(labels)) == 1
    assert result.ranked[0][1] == 1.0  # kept at the closest frame's score


def test_category_b_callback_unknown_frame_class_is_skipped(matcher, fengshui, caplog):
    report = make_report(
        exception="android.database.sqlite.SQLiteException",
        message="Can't downgrade database from version 19 to 17",
        framework=("android.database.sqlite.SQLiteOpenHelper.getWritableDatabase",),
        developer=("com.unmodeled.app.Mystery.zap", "com.divination1518.g.p.a"),
    )
    on_downgrade = ApiRef("android.database.sqlite.SQLiteOpenHelper", "onDowngrade", "callback")
    with caplog.at_level("WARNING"):
        result = locate_category_b(report, fengshui, [_labeled_b(report, on_downgrade)])
    assert "skipping frame com.unmodeled.app.Mystery.zap: class not in app model" in caplog.text
    # Only the modeled frame's callback is ranked, at distance 2.
    assert [(location_label(loc), score) for loc, score in result.ranked] == [
        ("com.divination1518.g.p#onDowngrade(android.database.sqlite.SQLiteDatabase,int,int)", 0.5)
    ]


def test_category_b_vacuous_search_returns_empty_rank(matcher, geography):
    query = _crash("b_geography_service.log", matcher)
    unbind = ApiRef("android.content.ContextWrapper", "unbindService", "call-in")
    result = locate_category_b(query, geography, [_labeled_b(query, unbind)])
    assert result.ranked == ()


def test_category_b_scores_non_increasing_and_positive(matcher, geography, fengshui, corpus):
    for crash in [c for c in corpus if c.category is Category.B]:
        model = geography if "geographylearning" in crash.true_location else fengshui
        pool = [c for c in corpus if c.category is Category.B]
        result = locate_category_b(crash.report, model, pool)
        scores = [s for _, s in result.ranked]
        assert all(s > 0 for s in scores)
        assert scores == sorted(scores, reverse=True)


# ---------------------------------------------------------------------------
# Category C
# ---------------------------------------------------------------------------

def test_category_c_single_subcategory():
    query = make_report(framework=("android.a.A.a",))
    pool = [_labeled_c(make_report(framework=("android.a.A.a",)), SubCategory.FIRMWARE)]
    result = locate_category_c(query, pool)
    assert result.ranked == ((SubCategory.FIRMWARE, 1.0),)


def test_category_c_mean_oracle():
    query = make_report(framework=("android.a.A.a", "android.b.B.b"))
    manifest_hit = make_report(framework=("android.a.A.a", "android.b.B.b"))
    manifest_miss = make_report(framework=("android.x.X.x", "android.y.Y.y"))
    asset_near = make_report(framework=("android.a.A.a", "android.b.B.b", "android.c.C.c"))
    pool = [
        _labeled_c(manifest_hit, SubCategory.MANIFEST),
        _labeled_c(manifest_miss, SubCategory.MANIFEST),
        _labeled_c(asset_near, SubCategory.ASSET),
    ]
    result = locate_category_c(query, pool)
    assert [loc for loc, _ in result.ranked] == [SubCategory.ASSET, SubCategory.MANIFEST]
    scores = dict(result.ranked)
    assert scores[SubCategory.MANIFEST] == pytest.approx(0.5)
    assert scores[SubCategory.ASSET] == pytest.approx(2 / 3)
    assert result.provenance["means"]["Manifest"] == pytest.approx(0.5)


def test_category_c_identical_firmware_case_wins():
    query = make_report(framework=("android.fw.Boot.flash",))
    pool = [
        _labeled_c(make_report(framework=("android.p.P.p",)), SubCategory.MANIFEST),
        _labeled_c(make_report(framework=("android.fw.Boot.flash",)), SubCategory.FIRMWARE),
        _labeled_c(make_report(framework=("android.q.Q.q",)), SubCategory.ASSET),
    ]
    result = locate_category_c(query, pool)
    assert result.ranked[0][0] is SubCategory.FIRMWARE


def test_category_c_empty_pool():
    with pytest.raises(EmptyPool):
        locate_category_c(make_report(), [])


@given(st.data())
def test_property_category_c_bounds_and_rank_length(data):
    seqs = ["android.a.A.a", "android.b.B.b", "android.c.C.c", "android.d.D.d"]
    subs = data.draw(
        st.lists(st.sampled_from(list(SubCategory)), min_size=1, max_size=8)
    )
    pool = [
        _labeled_c(
            make_report(framework=tuple(data.draw(
                st.lists(st.sampled_from(seqs), min_size=1, max_size=3)
            ))),
            sub,
        )
        for sub in subs
    ]
    query = make_report(framework=(data.draw(st.sampled_from(seqs)),))
    result = locate_category_c(query, pool)
    assert len(result.ranked) == len(set(subs))
    assert all(0.0 <= score <= 1.0 for _, score in result.ranked)
    scores = [s for _, s in result.ranked]
    assert scores == sorted(scores, reverse=True)


# ---------------------------------------------------------------------------
# End-to-end dispatch
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(corpus_module):
    corpus = corpus_module
    vocab = build_vocabulary(corpus)
    selected = chi_square_select(vocab, corpus, 0.5)
    pairs = [(vectorize(c.report, selected), c.category) for c in corpus]
    return train_nb(pairs, 1.0, selected)


@pytest.fixture(scope="module")
def corpus_module():
    from conftest import CORPUS_PATH

    return load_corpus(CORPUS_PATH, FrameworkMatcher())


def test_locate_dispatches_category_a(corpus_module, trained, matcher):
    report = _crash("a1_notes_npe.log", matcher)
    result = locate(report, None, corpus_module, trained)
    assert result.predicted_category is Category.A
    assert location_label(result.ranked[0][0]) == "com.example.notes.NoteActivity#render"


def test_locate_dispatches_category_b(corpus_module, trained, matcher, geography):
    report = _crash("b_geography_service.log", matcher)
    result = locate(report, geography, corpus_module, trained)
    assert result.predicted_category is Category.B
    assert result.ranked[0][0].method_name == "onCreate"


def test_locate_category_b_without_model_fails(corpus_module, trained, matcher):
    report = _crash("b_geography_service.log", matcher)
    with pytest.raises(LocateError) as exc:
        locate(report, None, corpus_module, trained)
    assert exc.value.phase == "locate"


def test_pipeline_dispatch_raises_raw_errors_and_locate_wraps_them(corpus_module, trained,
                                                                   matcher):
    report = _crash("c_manifest_permission.log", matcher)
    no_c = [c for c in corpus_module if c.category is not Category.C]
    with pytest.raises(EmptyPool):
        Pipeline(trained, tuple(no_c)).locate_as(Category.C, report, None)
    with pytest.raises(LocateError) as exc:
        locate(report, None, no_c, trained)
    assert exc.value.phase == "locate"
    assert isinstance(exc.value.__cause__, EmptyPool)


def test_unlabeled_training_crash_fails_in_locate(corpus_module, trained, matcher, geography):
    unlabeled = [replace(c, api_h=None, sub_category=None) for c in corpus_module]
    for log, label in (("b_geography_service.log", "handled-API"),
                       ("c_manifest_permission.log", "sub-category")):
        with pytest.raises(LocateError) as exc:
            locate(_crash(log, matcher), geography, unlabeled, trained)
        assert exc.value.phase == "locate"
        assert str(exc.value) == f"[locate] training crash 0 carries no {label} label"
        assert isinstance(exc.value.__cause__, SchemaError)


def test_locate_without_a_vocabulary_fails_in_categorize(corpus_module, trained, matcher):
    report = _crash("a1_notes_npe.log", matcher)
    bare = NBModel(trained.priors, trained.cond, trained.smoothing)
    with pytest.raises(LocateError) as exc:
        crashloc.locate(report, None, corpus_module, bare)
    assert exc.value.phase == "categorize"
    assert str(exc.value) == "[categorize] model bundle carries no vocabulary"
    pairs = [(vectorize(c.report, trained.selected_vocab), c.category) for c in corpus_module]
    with pytest.raises(CrashLocError, match="^model bundle carries no vocabulary$"):
        Pipeline(train_nb(pairs), ()).categorize(report)


def test_fit_pipeline_matches_hand_trained_parts(corpus_module, trained):
    pipeline = fit(corpus_module, Config())
    assert pipeline.nb == trained
    assert pipeline.corpus == tuple(corpus_module)
    assert pipeline.index_b.index.pool == tuple(c for c in corpus_module if c.category is Category.B)
    assert pipeline.index_c.index.pool == tuple(c for c in corpus_module if c.category is Category.C)
    assert pipeline.links_depth == Config().links_depth


def test_locate_dispatches_category_c(corpus_module, trained, matcher):
    report = _crash("c_manifest_permission.log", matcher)
    result = locate(report, None, corpus_module, trained)
    assert result.predicted_category is Category.C
    assert result.ranked[0][0] is SubCategory.MANIFEST


def test_locate_builds_each_index_once_until_the_corpus_changes(
    corpus_module, trained, matcher, geography, monkeypatch
):
    builds = Counter()
    for name in ("index_b", "index_c"):
        build = getattr(Pipeline, name).func

        def counted(self, build=build, name=name):
            builds[name] += 1
            return build(self)

        prop = cached_property(counted)
        prop.__set_name__(Pipeline, name)
        monkeypatch.setattr(Pipeline, name, prop)
    monkeypatch.setattr(localizer, "_last_pipeline", None)
    queries = [("b_geography_service.log", geography), ("c_manifest_permission.log", None),
               ("c_hardware_camera.log", None), ("b_geography_service.log", geography),
               ("c_resource_missing.log", None)]
    reports = [(_crash(name, matcher), model) for name, model in queries]
    corpus = list(corpus_module)
    categories = [locate(report, model, corpus, trained, 5).predicted_category
                  for report, model in reports]
    assert categories == [Category.B, Category.C, Category.C, Category.B, Category.C]
    # A call that fails to categorize leaves the memo to the last good pipeline.
    bare = NBModel(trained.priors, trained.cond, trained.smoothing)
    with pytest.raises(LocateError):
        locate(reports[0][0], geography, corpus, bare, 5)
    for report, model in reports:
        locate(report, model, corpus, trained, 5)
    assert builds == {"index_b": 1, "index_c": 1}
    corpus.append(corpus[0])
    for report, model in reports:
        locate(report, model, corpus, trained, 5)
    assert builds == {"index_b": 2, "index_c": 2}


def test_each_pipeline_checks_its_labels_once(corpus_module, trained, matcher, geography,
                                              monkeypatch):
    checked = Counter()
    check = localizer._check_labels

    def counted(pool, attribute, label):
        checked[attribute] += 1
        return check(pool, attribute, label)

    monkeypatch.setattr(localizer, "_check_labels", counted)
    pipeline = Pipeline(trained, tuple(corpus_module))
    b_query, c_query = (_crash(name, matcher) for name in
                        ("b_geography_service.log", "c_manifest_permission.log"))
    for _ in range(3):
        pipeline.locate_as(Category.B, b_query, geography)
        pipeline.locate_as(Category.C, c_query, None)
    assert checked == {"api_h": 1, "sub_category": 1}


_PKG = "com.yamlearning.geographylearning"
_BIND = ("android.content.ContextWrapper#bindService"
         "(android.content.Intent,android.content.ServiceConnection,int)")


def _deep_chain_model_json() -> dict:
    """Three bindService invokers for the MainActivity frame of
    b_geography_service.log: ``Sync#bind`` one hop from ``onDestroy``,
    ``Binder#step4`` four hops from both active methods, and ``onCreate``
    itself, which links to both by sharing their class."""
    chain = [f"{_PKG}.Binder#step{i}()" for i in range(1, 5)]
    main = f"{_PKG}.MainActivity"
    return {
        "classes": [
            {"name": main, "superclasses": ["android.app.Activity"],
             "active_methods": [f"{main}#onCreate(android.os.Bundle)", f"{main}#onDestroy()"],
             "non_overridden_callbacks": []},
            {"name": f"{_PKG}.Binder", "superclasses": ["java.lang.Object"],
             "active_methods": chain, "non_overridden_callbacks": []},
            {"name": f"{_PKG}.Sync", "superclasses": ["java.lang.Object"],
             "active_methods": [f"{_PKG}.Sync#bind()"], "non_overridden_callbacks": []},
        ],
        "invocations": [
            {"caller": f"{main}#onCreate(android.os.Bundle)", "callees": [chain[0]]},
            {"caller": f"{main}#onDestroy()", "callees": [f"{_PKG}.Sync#bind()", chain[0]]},
            {"caller": chain[0], "callees": [chain[1]]},
            {"caller": chain[1], "callees": [chain[2]]},
            {"caller": chain[2], "callees": [chain[3]]},
            {"caller": f"{_PKG}.Sync#bind()", "callees": [_BIND]},
            {"caller": chain[3], "callees": [_BIND]},
            {"caller": f"{main}#onCreate(android.os.Bundle)", "callees": [_BIND]},
        ],
        "param_flows": [],
        "apis": [{"class_name": "android.content.ContextWrapper",
                  "method_name": "bindService", "kind": "call-in"}],
    }


def _ranked(result) -> list:
    return [(location_label(loc), score) for loc, score in result.ranked]


def test_category_b_ranking_follows_depth_on_one_loaded_model(corpus_module, trained, matcher):
    model = app_model_from_json(_deep_chain_model_json())
    report = _crash("b_geography_service.log", matcher)
    shallow = [(f"{_PKG}.MainActivity#onCreate(android.os.Bundle)", 2.0),
               (f"{_PKG}.Sync#bind()", 1.0)]
    deep = [(f"{_PKG}.Binder#step4()", 2.0),
            (f"{_PKG}.MainActivity#onCreate(android.os.Bundle)", 2.0),
            (f"{_PKG}.Sync#bind()", 1.0)]
    for depth, expected in ((5, deep), (1, shallow), (5, deep), (3, shallow), (4, deep)):
        result = crashloc.locate(report, model, corpus_module, trained, depth)
        assert result.predicted_category is Category.B
        assert _ranked(result) == expected, depth


def test_locate_searches_each_method_once_per_depth(corpus_module, trained, matcher,
                                                    monkeypatch):
    requests = Counter()
    reachable = CallGraph.reachable

    def counted(self, start, depth):
        requests[start, depth] += 1
        return reachable(self, start, depth)

    monkeypatch.setattr(CallGraph, "reachable", counted)
    obj = _deep_chain_model_json()
    model = app_model_from_json(obj)
    report = _crash("b_geography_service.log", matcher)
    assert "call_graph" not in vars(model)
    assert model.call_graph.reach == {}
    graph = model.call_graph
    main = model.classes[f"{_PKG}.MainActivity"]
    for depth in (5, 1):
        expected = {(graph.ids[am.canonical()], depth) for am in main.active_methods}
        before = dict(graph.reach)
        crashloc.locate(report, model, corpus_module, trained, depth)
        assert set(graph.reach) - set(before) == expected
        filled = dict(graph.reach)
        for _ in range(2):
            crashloc.locate(report, model, corpus_module, trained, depth)
            assert graph.reach == filled
    # One request per (frame, active method) on the first query per depth:
    # the report has one MainActivity frame, and two invokers outside its
    # class are linked by neither class nor param flow. The two later
    # queries read the model's link counts instead.
    assert set(requests) == set(graph.reach)
    assert all(n == 1 for n in requests.values())
    assert model.call_graph is graph
    assert model == app_model_from_json(obj)


def test_result_serialization_shape(corpus_module, trained, matcher):
    report = _crash("a1_notes_npe.log", matcher)
    obj = locate(report, None, corpus_module, trained).to_json_obj()
    assert list(obj) == ["predicted_category", "ranked", "provenance"]
    text = json.dumps(obj)
    assert json.loads(text) == obj
    assert obj["ranked"][0]["score"] == 1.0


def test_rank_of_matches_methods_and_subcategories(matcher):
    report = _crash("a2_transistor_state.log", matcher)
    result = locate_category_a(report)
    assert result.rank_of("org.y20k.transistor.MainActivityFragment#selectFromImagePicker") == 1
    assert result.rank_of("org.y20k.transistor.MainActivityFragment#access$500") == 2
    assert result.rank_of("com.absent.app.X#nope") is None
