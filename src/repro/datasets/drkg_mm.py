"""Synthetic DRKG-MM: a multimodal drug-repurposing knowledge graph.

The real DRKG-MM augments the public Drug Repurposing Knowledge Graph
with molecular structures and textual descriptions; it is not
redistributable here, so this module generates a *schema-faithful*
synthetic stand-in that preserves exactly the properties the paper's
experiments measure:

1. **Entity/relation schema** — Compounds, Genes, Diseases and
   Side-Effects connected by the six relation families of Tables IV/V
   (Gene-Gene, Compound-Compound, Compound-Gene, Compound-Disease,
   Compound-Side-Effect, Disease-Gene) with triple-count proportions
   matching Table V (Gene-Gene and Compound-Compound dominate).
2. **Long-tail degree distributions** (Fig. 4) — partner selection uses
   Zipf-distributed popularity weights.
3. **Cross-modal common cause** — every compound is grown from a latent
   pharmacophore scaffold that simultaneously fixes its molecular core,
   its name affix ("-cillin", "Sulfa-", ...), its description phrase, its
   target gene families, its treated disease families, and its
   characteristic side effects.  Multimodal redundancy is therefore real
   signal, as in Fig. 1/Fig. 7, not decoration.
4. **Noise** — a configurable fraction of edges is rewired uniformly at
   random so no modality is perfectly predictive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..kg import KnowledgeGraph, Vocabulary, split_triples
from ..mol import SCAFFOLDS, MoleculeGenerator
from ..text import lexicon
from .base import MultimodalKG

__all__ = ["DRKGConfig", "generate_drkg_mm"]

#: DRKG-MM relation names per family (subset of the 107 real relations,
#: keeping >1 relation per family so the "Same"/"Not-Same" diamond
#: structure of Fig. 1 is meaningful).
RELATIONS = {
    "compound_gene": ("targets", "inhibits", "binds"),
    "compound_disease": ("treats", "palliates"),
    "compound_compound": ("ddi", "resembles"),
    "gene_gene": ("interacts", "coexpression", "regulates"),
    "disease_gene": ("associates", "upregulates"),
    "compound_side_effect": ("causes",),
}

#: Relations that are symmetric in the real DRKG (drug-drug interaction
#: is mutual; protein interaction and coexpression are undirected) and
#: are therefore materialised in both directions.  Symmetric relations
#: are a key reason translational models underperform on real BKGs
#: (TransE cannot satisfy h + r = t and t + r = h simultaneously).
SYMMETRIC_RELATIONS = frozenset({"ddi", "resembles", "interacts", "coexpression"})


@dataclass
class DRKGConfig:
    """Size/shape knobs for the synthetic DRKG-MM build.

    Triple-count targets are per relation family and roughly follow the
    Table V proportions (scaled down).  ``noise`` is the fraction of
    edges whose endpoint is rewired uniformly at random.
    """

    num_compounds: int = 140
    num_genes: int = 160
    num_diseases: int = 50
    num_side_effects: int = 30
    gene_gene_triples: int = 2400
    compound_compound_triples: int = 1400
    compound_gene_triples: int = 900
    compound_side_effect_triples: int = 500
    disease_gene_triples: int = 450
    compound_disease_triples: int = 350
    noise: float = 0.08
    zipf_exponent: float = 1.1
    seed: int = 7

    def scaled(self, factor: float) -> "DRKGConfig":
        """Return a copy with entity and triple counts scaled by ``factor``."""
        return DRKGConfig(
            num_compounds=max(10, int(self.num_compounds * factor)),
            num_genes=max(10, int(self.num_genes * factor)),
            num_diseases=max(5, int(self.num_diseases * factor)),
            num_side_effects=max(5, int(self.num_side_effects * factor)),
            gene_gene_triples=max(50, int(self.gene_gene_triples * factor)),
            compound_compound_triples=max(30, int(self.compound_compound_triples * factor)),
            compound_gene_triples=max(20, int(self.compound_gene_triples * factor)),
            compound_side_effect_triples=max(10, int(self.compound_side_effect_triples * factor)),
            disease_gene_triples=max(10, int(self.disease_gene_triples * factor)),
            compound_disease_triples=max(10, int(self.compound_disease_triples * factor)),
            noise=self.noise,
            zipf_exponent=self.zipf_exponent,
            seed=self.seed,
        )


def _zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Random permutation of a Zipf law: long-tail popularity weights."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    rng.shuffle(weights)
    return weights / weights.sum()


def _weighted_choice(candidates: np.ndarray, weights: np.ndarray,
                     rng: np.random.Generator) -> int:
    """Sample one candidate proportionally to its popularity weight."""
    w = weights[candidates]
    total = w.sum()
    if total <= 0:
        return int(rng.choice(candidates))
    return int(rng.choice(candidates, p=w / total))


def _unused_name(draw: Callable[[], str], space: frozenset[str],
                 used: set[str]) -> str:
    """Redraw until the name is unused; number it once ``space`` is used up.

    The fallback draws nothing from the generator's rng, so every config
    whose name space never runs out yields exactly the names it always
    did.
    """
    name = draw()
    while name in used:
        if space <= used:
            n = 2
            while f"{name} {n}" in used:
                n += 1
            return f"{name} {n}"
        name = draw()
    return name


def generate_drkg_mm(config: DRKGConfig | None = None) -> MultimodalKG:
    """Build the synthetic DRKG-MM dataset.

    Deterministic given ``config.seed``.  Returns a
    :class:`~repro.datasets.base.MultimodalKG` with molecules on every
    compound and descriptions on every entity.
    """
    cfg = config or DRKGConfig()
    rng = np.random.default_rng(cfg.seed)

    entities = Vocabulary()
    entity_types: list[str] = []
    descriptions: dict[int, str] = {}
    scaffold_of: dict[int, str] = {}
    latent_family: dict[int, int] = {}
    molecules = {}

    # ------------------------------------------------------------------
    # Entities
    # ------------------------------------------------------------------
    mol_gen = MoleculeGenerator(rng)
    compound_scaffolds = rng.integers(0, len(SCAFFOLDS), size=cfg.num_compounds)
    compounds: list[int] = []
    used_names: set[str] = set()
    for c in range(cfg.num_compounds):
        scaffold = SCAFFOLDS[int(compound_scaffolds[c])]
        name = scaffold.affixed_name(lexicon.drug_stem(rng))
        while name in used_names:
            name = scaffold.affixed_name(lexicon.drug_stem(rng))
        used_names.add(name)
        idx = entities.add(name)
        compounds.append(idx)
        entity_types.append("Compound")
        scaffold_of[idx] = scaffold.name
        latent_family[idx] = int(compound_scaffolds[c])
        molecules[idx] = mol_gen.generate(scaffold)
        descriptions[idx] = f"{name} is {scaffold.description_phrase}."

    num_gene_families = len(lexicon.GENE_FAMILIES)
    gene_families = rng.integers(0, num_gene_families, size=cfg.num_genes)
    genes: list[int] = []
    for g in range(cfg.num_genes):
        fam = int(gene_families[g])
        symbol = _unused_name(lambda: lexicon.gene_symbol(fam, rng),
                              lexicon.gene_symbol_space(fam), used_names)
        used_names.add(symbol)
        idx = entities.add(symbol)
        genes.append(idx)
        entity_types.append("Gene")
        latent_family[idx] = fam
        descriptions[idx] = lexicon.gene_description(fam, symbol)

    num_disease_families = len(lexicon.DISEASE_FAMILIES)
    disease_families = rng.integers(0, num_disease_families, size=cfg.num_diseases)
    diseases: list[int] = []
    for d in range(cfg.num_diseases):
        fam = int(disease_families[d])
        name = _unused_name(lambda: lexicon.disease_name(fam, rng),
                            lexicon.disease_name_space(fam), used_names)
        used_names.add(name)
        idx = entities.add(name)
        diseases.append(idx)
        entity_types.append("Disease")
        latent_family[idx] = fam
        descriptions[idx] = lexicon.disease_description(fam, name)

    side_effects: list[int] = []
    for s in range(cfg.num_side_effects):
        base = lexicon.SIDE_EFFECTS[s % len(lexicon.SIDE_EFFECTS)]
        name = base if s < len(lexicon.SIDE_EFFECTS) else f"{base} type {s // len(lexicon.SIDE_EFFECTS) + 1}"
        idx = entities.add(name)
        side_effects.append(idx)
        entity_types.append("Side-Effect")
        latent_family[idx] = s % len(lexicon.SIDE_EFFECTS)
        descriptions[idx] = lexicon.side_effect_description(name)

    compounds_arr = np.asarray(compounds)
    genes_arr = np.asarray(genes)
    diseases_arr = np.asarray(diseases)
    side_effects_arr = np.asarray(side_effects)

    # Popularity weights drive the Fig. 4 long tail.
    popularity = np.zeros(len(entities))
    popularity[compounds_arr] = _zipf_weights(len(compounds), cfg.zipf_exponent, rng)
    popularity[genes_arr] = _zipf_weights(len(genes), cfg.zipf_exponent, rng)
    popularity[diseases_arr] = _zipf_weights(len(diseases), cfg.zipf_exponent, rng)
    popularity[side_effects_arr] = _zipf_weights(len(side_effects), cfg.zipf_exponent, rng)

    relations = Vocabulary()
    for family_relations in RELATIONS.values():
        for rel in family_relations:
            relations.add(rel)

    # Lookup helpers for scaffold-driven wiring -------------------------
    genes_by_family: dict[int, np.ndarray] = {
        fam: genes_arr[gene_families == fam] for fam in range(num_gene_families)
    }
    diseases_by_family: dict[int, np.ndarray] = {
        fam: diseases_arr[disease_families == fam] for fam in range(num_disease_families)
    }
    # Scaffold -> characteristic side-effect subset (deterministic).
    scaffold_side_effects = {
        s.name: side_effects_arr[
            rng.choice(len(side_effects_arr),
                       size=max(2, len(side_effects_arr) // 4), replace=False)
        ]
        for s in SCAFFOLDS
    }
    # Disease family -> gene families (via the scaffolds treating it).
    disease_gene_families: dict[int, list[int]] = {f: [] for f in range(num_disease_families)}
    for s in SCAFFOLDS:
        for dfam in s.treated_disease_families:
            disease_gene_families[dfam % num_disease_families].extend(s.target_gene_families)

    triples: set[tuple[int, int, int]] = set()

    def add_edge(h: int, rel_name: str, t: int) -> None:
        if h == t:
            return
        triples.add((int(h), relations.id(rel_name), int(t)))
        if rel_name in SYMMETRIC_RELATIONS:
            triples.add((int(t), relations.id(rel_name), int(h)))

    def maybe_noise(pool: np.ndarray, chosen: int) -> int:
        if rng.random() < cfg.noise:
            return int(rng.choice(pool))
        return chosen

    scaffold_list = [SCAFFOLDS[int(i)] for i in compound_scaffolds]

    # ------------------------------------------------------------------
    # Compound-Gene: drugs hit genes in their scaffold's target families.
    # The relation used depends deterministically on (scaffold, gene
    # family) so that same-scaffold drugs use the *same* relation to the
    # same gene — the diamond structure of Fig. 1.
    # ------------------------------------------------------------------
    cg_relations = RELATIONS["compound_gene"]
    for _ in range(cfg.compound_gene_triples):
        c_pos = int(rng.integers(0, len(compounds)))
        scaffold = scaffold_list[c_pos]
        fam = int(rng.choice(scaffold.target_gene_families)) % num_gene_families
        pool = genes_by_family[fam]
        if not len(pool):
            pool = genes_arr
        gene = _weighted_choice(pool, popularity, rng)
        gene = maybe_noise(genes_arr, gene)
        rel = cg_relations[(latent_family[compounds[c_pos]] + fam) % len(cg_relations)]
        if rng.random() < cfg.noise:
            rel = cg_relations[int(rng.integers(0, len(cg_relations)))]
        add_edge(compounds[c_pos], rel, gene)

    # Compound-Disease: scaffold treats its disease families.
    cd_relations = RELATIONS["compound_disease"]
    for _ in range(cfg.compound_disease_triples):
        c_pos = int(rng.integers(0, len(compounds)))
        scaffold = scaffold_list[c_pos]
        fam = int(rng.choice(scaffold.treated_disease_families)) % num_disease_families
        pool = diseases_by_family[fam]
        if not len(pool):
            pool = diseases_arr
        disease = _weighted_choice(pool, popularity, rng)
        disease = maybe_noise(diseases_arr, disease)
        rel = cd_relations[latent_family[compounds[c_pos]] % len(cd_relations)]
        add_edge(compounds[c_pos], rel, disease)

    # Compound-Compound: same-scaffold drugs resemble each other and
    # shared-target drugs interact.
    for _ in range(cfg.compound_compound_triples):
        a_pos = int(rng.integers(0, len(compounds)))
        same_scaffold = compounds_arr[compound_scaffolds == compound_scaffolds[a_pos]]
        if rng.random() < 0.6 and len(same_scaffold) > 1:
            b = _weighted_choice(same_scaffold, popularity, rng)
            rel = "resembles"
        else:
            b = _weighted_choice(compounds_arr, popularity, rng)
            rel = "ddi"
        b = maybe_noise(compounds_arr, int(b))
        add_edge(compounds[a_pos], rel, b)

    # Gene-Gene: intra-family interaction with popularity hubs.
    gg_relations = RELATIONS["gene_gene"]
    for _ in range(cfg.gene_gene_triples):
        a_pos = int(rng.integers(0, len(genes)))
        fam = int(gene_families[a_pos])
        pool = genes_by_family[fam]
        if rng.random() < 0.7 and len(pool) > 1:
            b = _weighted_choice(pool, popularity, rng)
        else:
            b = _weighted_choice(genes_arr, popularity, rng)
        b = maybe_noise(genes_arr, int(b))
        rel = gg_relations[fam % len(gg_relations)]
        if rng.random() < cfg.noise:
            rel = gg_relations[int(rng.integers(0, len(gg_relations)))]
        add_edge(genes[a_pos], rel, b)

    # Disease-Gene: disease associates with gene families its treating
    # scaffolds target (biological consistency).
    dg_relations = RELATIONS["disease_gene"]
    for _ in range(cfg.disease_gene_triples):
        d_pos = int(rng.integers(0, len(diseases)))
        dfam = int(disease_families[d_pos])
        gene_fams = disease_gene_families.get(dfam) or list(range(num_gene_families))
        fam = int(rng.choice(gene_fams)) % num_gene_families
        pool = genes_by_family[fam]
        if not len(pool):
            pool = genes_arr
        gene = _weighted_choice(pool, popularity, rng)
        gene = maybe_noise(genes_arr, gene)
        rel = dg_relations[dfam % len(dg_relations)]
        add_edge(diseases[d_pos], rel, gene)

    # Compound-Side-Effect: scaffold-characteristic side effects.
    for _ in range(cfg.compound_side_effect_triples):
        c_pos = int(rng.integers(0, len(compounds)))
        scaffold = scaffold_list[c_pos]
        pool = scaffold_side_effects[scaffold.name]
        effect = _weighted_choice(pool, popularity, rng)
        effect = maybe_noise(side_effects_arr, effect)
        add_edge(compounds[c_pos], "causes", effect)

    triple_array = np.asarray(sorted(triples), dtype=np.int64)
    graph = KnowledgeGraph(
        entities=entities,
        relations=relations,
        triples=triple_array,
        entity_types=entity_types,
        name="DRKG-MM(synthetic)",
    )
    split = split_triples(graph, rng)
    return MultimodalKG(
        split=split,
        molecules=molecules,
        descriptions=descriptions,
        scaffold_of=scaffold_of,
        latent_family=latent_family,
    )
