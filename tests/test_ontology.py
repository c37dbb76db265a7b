import json
import re
from importlib import resources

import pytest

from elicit.ontology import (
    ALL_TRAITS,
    OntologyError,
    STRATEGY_ORDER,
    Strategy,
    TraitId,
    UnknownTraitError,
    default_ontology,
    load_ontology,
)


def test_trait_universe_cardinality(ontology):
    assert len(ontology.traits) == 10
    assert len(ALL_TRAITS) == 10
    assert [int(t) for t in ALL_TRAITS] == list(range(1, 11))


def test_strategy_set_cardinality(ontology):
    assert len(ontology.strategies) == 6
    assert len(STRATEGY_ORDER) == 6


def test_trait_by_id_f1_definition(ontology):
    assert "mimics verbatim" in ontology.traits[TraitId.parse("F1")].definition


def test_trait_by_id_f10_definition(ontology):
    assert "circle of life" in ontology.traits[TraitId.parse("F10")].definition


def test_trait_by_id_unknown():
    with pytest.raises(UnknownTraitError):
        TraitId.parse("F11")
    with pytest.raises(UnknownTraitError):
        TraitId.parse("F0")
    with pytest.raises(UnknownTraitError):
        TraitId.parse("nonsense")


def test_every_trait_resolves(ontology):
    for t in ALL_TRAITS:
        d = ontology.traits[TraitId.parse(t.name)]
        assert d.id == t
        assert d.name and d.definition
        assert d.marker_lexicon


def test_dialogic_scenarios_count_and_order(ontology):
    dialogic = ontology.dialogic_scenarios()
    assert len(dialogic) == 11
    assert dialogic[0].id == 3
    assert dialogic[0].name == "Description of a Picture"
    ids = [s.id for s in dialogic]
    assert ids == sorted(ids)
    assert 10 not in ids
    assert not {1, 2, 8, 10} & set(ids)


def test_strategy_affinities(ontology):
    assert ontology.strategies[Strategy.CORRECTION_INDUCING].affinity == {TraitId.F1}
    assert ontology.strategies[Strategy.HYPOTHETICAL].affinity == {TraitId.F3, TraitId.F4}
    assert ontology.strategies[Strategy.MULTI_STEP].affinity == {TraitId.F5, TraitId.F6}
    assert ontology.strategies[Strategy.EMOTION_ORIENTED].affinity == {TraitId.F6, TraitId.F8}
    # defaults for traits the strategy table leaves unmapped
    assert ontology.strategies[Strategy.OPEN_ENDED].affinity == {
        TraitId.F2, TraitId.F7, TraitId.F9, TraitId.F10,
    }
    assert ontology.strategies[Strategy.PERSPECTIVE_TAKING].affinity == {TraitId.F7, TraitId.F8}


def test_marker_lexicons_partition(ontology):
    seen: dict[str, TraitId] = {}
    for t, d in ontology.traits.items():
        for phrase in d.marker_lexicon:
            key = phrase.lower()
            assert key not in seen, f"{phrase!r} owned by {seen[key]} and {t}"
            seen[key] = t


def test_markers_never_cross_contained(ontology):
    # a phrase matching inside another trait's phrase would break detection
    for ta, da in ontology.traits.items():
        for pa in da.marker_lexicon:
            pat = re.compile(rf"\b{re.escape(pa)}\b", re.IGNORECASE)
            for tb, db in ontology.traits.items():
                if ta == tb:
                    continue
                for pb in db.marker_lexicon:
                    assert not pat.search(pb)


def test_load_ontology_from_path(tmp_path, ontology):
    # the embedded file round-trips through the --ontology override path
    raw = resources.files("elicit").joinpath("data/ontology.json").read_text("utf-8")
    p = tmp_path / "ont.json"
    p.write_text(raw, encoding="utf-8")
    ont2 = load_ontology(p)
    assert ont2.version == ontology.version
    assert set(ont2.traits) == set(ontology.traits)


def _embedded_doc() -> dict:
    return json.loads(resources.files("elicit").joinpath("data/ontology.json").read_text("utf-8"))


def _drop(entry: dict, key: str) -> None:
    del entry[key]


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["scenarios"][2].update(id="3"), "scenarios[2]: 'id' must be int, got '3'"),
    (lambda doc: doc["scenarios"][2].update(id=True), "scenarios[2]: 'id' must be int"),
    (lambda doc: doc["scenarios"][2].update(id=99), "scenarios[2]: scenario id 99 is not in 1..15"),
    (lambda doc: doc["scenarios"][2].update(id=0), "scenarios[2]: scenario id 0 is not in 1..15"),
    (lambda doc: doc["scenarios"][3].update(id=3), "scenarios[3]: scenario id 3 is a duplicate"),
    (lambda doc: doc["scenarios"][0].update(dialogic="false"), "scenarios[0]: 'dialogic' must be bool"),
    (lambda doc: _drop(doc["traits"][0], "name"), "traits[0]: missing key 'name'"),
    (lambda doc: doc["traits"][1].update(markers="mideast"), "traits[1]: 'markers' must be list"),
    (lambda doc: doc["traits"][1].update(markers=["mideast", 5]), "traits[1]: 'markers' must be a list of strings"),
    (lambda doc: doc["strategies"][5].update(affinity=["F11"]), "strategies[5]: unknown trait id 'F11'"),
    (lambda doc: doc["strategies"][0].update(id="leading"), "strategies[0]: unknown strategy id 'leading'"),
    (lambda doc: doc["scenarios"].__setitem__(4, [5, "Current Work and School", True]),
     "scenarios[4]: expected a JSON object"),
    (lambda doc: doc.update(version=1), "ontology: 'version' must be str"),
    (lambda doc: _drop(doc, "traits"), "ontology: missing key 'traits'"),
])
def test_load_ontology_names_the_entry_and_key_of_a_wrong_value(tmp_path, edit, message):
    doc = _embedded_doc()
    edit(doc)
    p = tmp_path / "ont.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(OntologyError) as exc:
        load_ontology(p)
    assert message in str(exc.value)


def test_default_ontology_cached():
    assert default_ontology() is default_ontology()
