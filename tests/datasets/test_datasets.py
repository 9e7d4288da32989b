"""Synthetic dataset generators: schema, determinism, multimodal wiring."""

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    DRKGConfig,
    OMAHAConfig,
    clear_cache,
    dataset_names,
    generate_drkg_mm,
    generate_omaha_mm,
    get_dataset,
)

SMALL_DRKG = DRKGConfig().scaled(0.2)
SMALL_OMAHA = OMAHAConfig().scaled(0.2)


@pytest.fixture(scope="module")
def drkg():
    return generate_drkg_mm(SMALL_DRKG)


@pytest.fixture(scope="module")
def omaha():
    return generate_omaha_mm(SMALL_OMAHA)


class TestDRKG:
    def test_entity_types_present(self, drkg):
        counts = drkg.graph.type_counts()
        assert set(counts) == {"Compound", "Gene", "Disease", "Side-Effect"}

    def test_every_compound_has_molecule(self, drkg):
        for c in drkg.entities_of_type("Compound"):
            assert int(c) in drkg.molecules
            assert drkg.molecules[int(c)].is_connected()

    def test_non_compounds_have_no_molecule(self, drkg):
        for g in drkg.entities_of_type("Gene"):
            assert int(g) not in drkg.molecules

    def test_every_entity_has_description(self, drkg):
        for i in range(drkg.num_entities):
            assert drkg.descriptions[i]

    def test_drug_names_carry_scaffold_affix(self, drkg):
        from repro.mol import scaffold_by_name
        for c in drkg.entities_of_type("Compound")[:20]:
            scaffold = scaffold_by_name(drkg.scaffold_of[int(c)])
            name = drkg.entity_name(int(c)).lower()
            kind, affix = scaffold.affix
            if kind == "suffix":
                assert name.endswith(affix.lower())
            else:
                assert name.startswith(affix.lower())

    def test_molecule_scaffold_matches_metadata(self, drkg):
        for c in drkg.entities_of_type("Compound")[:20]:
            assert drkg.molecules[int(c)].scaffold == drkg.scaffold_of[int(c)]

    def test_relation_families_cover_table5(self, drkg):
        families = set(drkg.graph.family_triple_counts())
        assert {"Gene-Gene", "Compound-Compound", "Compound-Gene",
                "Compound-Disease", "Disease-Gene"} <= families

    def test_deterministic(self):
        a = generate_drkg_mm(SMALL_DRKG)
        b = generate_drkg_mm(SMALL_DRKG)
        np.testing.assert_array_equal(a.graph.triples, b.graph.triples)
        assert a.graph.entities.names() == b.graph.entities.names()

    def test_different_seed_differs(self):
        cfg = DRKGConfig(seed=99).scaled(0.2)
        other = generate_drkg_mm(cfg)
        base = generate_drkg_mm(SMALL_DRKG)
        assert other.graph.entities.names() != base.graph.entities.names()

    def test_exhausted_name_space_still_returns(self):
        # get_dataset("drkg-mm", scale=2, seed=9) uses up a disease
        # family's whole name space before its last disease is named.
        mkg = generate_drkg_mm(DRKGConfig(seed=7 + 9 * 1000).scaled(2.0))
        names = mkg.graph.entities.names()
        assert len(set(names)) == len(names) == mkg.num_entities

    def test_scale_one_names_and_triples_pinned(self):
        # Digest of get_dataset("drkg-mm", scale=1.0, seed=0) computed by
        # a generator without the name-space fallback: configs that never
        # exhaust a name space must keep generating the same graph.
        mkg = generate_drkg_mm(DRKGConfig(seed=7).scaled(1.0))
        digest = hashlib.sha256("\n".join(mkg.graph.entities.names()).encode())
        for part in (mkg.split.train, mkg.split.valid, mkg.split.test):
            digest.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        assert digest.hexdigest() == (
            "037ee5fb0c607100de55f62d1b36d5d6dd155ddffc77740932d4dae83d3baac7")

    def test_long_tail_degrees(self, drkg):
        degrees = drkg.graph.entity_degrees()
        # Hubs should hold far more than their share.
        assert degrees.max() > 2 * np.median(degrees)

    def test_no_self_loops(self, drkg):
        assert (drkg.graph.triples[:, 0] != drkg.graph.triples[:, 2]).all()

    def test_split_ratio(self, drkg):
        s = drkg.split.summary()
        total = s["#Train"] + s["#Valid"] + s["#Test"]
        assert s["#Train"] / total >= 0.78


class TestOMAHA:
    def test_entity_types(self, omaha):
        assert set(omaha.graph.type_counts()) == {
            "Disease", "Symptom", "Gene", "GeneMutation", "Drug"}

    def test_no_molecules(self, omaha):
        assert not omaha.has_molecules

    def test_seventeen_relations(self, omaha):
        assert omaha.num_relations == 17

    def test_sparser_than_drkg(self, drkg, omaha):
        drkg_density = drkg.graph.num_triples / drkg.num_entities
        omaha_density = omaha.graph.num_triples / omaha.num_entities
        assert omaha_density < drkg_density

    def test_descriptions_everywhere(self, omaha):
        assert all(omaha.descriptions[i] for i in range(omaha.num_entities))

    def test_deterministic(self):
        a = generate_omaha_mm(SMALL_OMAHA)
        b = generate_omaha_mm(SMALL_OMAHA)
        np.testing.assert_array_equal(a.graph.triples, b.graph.triples)


class TestRegistry:
    def test_names(self):
        assert dataset_names() == ["drkg-mm", "omaha-mm"]

    def test_caching_returns_same_object(self):
        clear_cache()
        a = get_dataset("drkg-mm", scale=0.15)
        b = get_dataset("drkg-mm", scale=0.15)
        assert a is b

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_dataset("freebase")

    def test_scale_changes_size(self):
        clear_cache()
        small = get_dataset("drkg-mm", scale=0.15)
        big = get_dataset("drkg-mm", scale=0.3)
        assert big.num_entities > small.num_entities
        clear_cache()


class TestMultimodalKGHelpers:
    def test_entity_text_combines_name_and_description(self, drkg):
        text = drkg.entity_text(0)
        assert drkg.entity_name(0) in text
        assert drkg.descriptions[0] in text

    def test_entities_of_type_ids_valid(self, drkg):
        ids = drkg.entities_of_type("Gene")
        assert all(drkg.graph.entity_types[i] == "Gene" for i in ids)
