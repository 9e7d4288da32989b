"""Name/description lexicon for the synthetic biological corpus.

Entity names follow real biomedical morphology so the textual modality
carries the same signal the paper highlights: drug names embed their
class affix ("-cillin", "Sulfa-", "-olol", ...), gene symbols look like
HGNC identifiers, diseases carry Latin/Greek suffixes ("-itis", "-oma"),
and side effects use plain clinical vocabulary.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "GENE_FAMILIES",
    "DISEASE_FAMILIES",
    "SIDE_EFFECTS",
    "drug_stem",
    "gene_symbol",
    "gene_symbol_space",
    "disease_name",
    "disease_name_space",
    "gene_description",
    "disease_description",
    "side_effect_description",
]

#: Gene family descriptors, indexed by the ids scaffolds point at.
GENE_FAMILIES: tuple[tuple[str, str], ...] = (
    ("PBP", "penicillin binding protein involved in bacterial cell wall synthesis"),
    ("GYR", "DNA gyrase subunit essential for bacterial replication"),
    ("DHF", "dihydrofolate reductase enzyme of the folate pathway"),
    ("ADR", "adrenergic receptor mediating sympathetic signalling"),
    ("GAB", "GABA receptor subunit of inhibitory neurotransmission"),
    ("HMG", "HMG-CoA reductase controlling cholesterol biosynthesis"),
    ("ACE", "angiotensin converting enzyme of the renin-angiotensin system"),
    ("SLC", "solute carrier transporter across the cell membrane"),
    ("AGT", "angiotensin receptor regulating vascular tone"),
    ("CYP", "cytochrome P450 oxidase of hepatic drug metabolism"),
)

#: Disease family descriptors: (suffix pool, descriptive phrase).
DISEASE_FAMILIES: tuple[tuple[tuple[str, ...], str], ...] = (
    (("itis", "osis", "emia"), "a bacterial infection of tissue"),
    (("uria", "itis"), "an inflammatory disorder of the urinary tract"),
    (("cardia", "tension"), "a disorder of heart rhythm and vascular pressure"),
    (("phrenia", "epsy", "algia"), "a chronic disorder of the central nervous system"),
    (("sterolemia", "pathy"), "a metabolic disorder of lipids and circulation"),
)

#: Side-effect vocabulary.
SIDE_EFFECTS: tuple[str, ...] = (
    "nausea", "headache", "dizziness", "rash", "fatigue", "insomnia",
    "hypotension", "bradycardia", "dry mouth", "tremor", "diarrhea",
    "photosensitivity", "cough", "myalgia", "drowsiness", "pruritus",
)

_DRUG_SYLLABLES = (
    "am", "ox", "pen", "flu", "cef", "dor", "val", "lor", "met", "pro",
    "ate", "nor", "tri", "clo", "eri", "gen", "hy", "ket", "lin", "mo",
)

_DISEASE_ROOTS = (
    "nephr", "hepat", "card", "neur", "derm", "arthr", "gastr", "pulmon",
    "encephal", "my", "oste", "vascul", "bronch", "col", "cyst",
)


def drug_stem(rng: np.random.Generator) -> str:
    """Random pronounceable drug-name stem like ``Amoxi`` or ``Cloder``."""
    n = int(rng.integers(2, 4))
    parts = [str(rng.choice(_DRUG_SYLLABLES)) for _ in range(n)]
    stem = "".join(parts)
    return stem.capitalize()


def gene_symbol(family_idx: int, rng: np.random.Generator) -> str:
    """HGNC-style gene symbol, e.g. ``ADR2B``."""
    prefix = GENE_FAMILIES[family_idx % len(GENE_FAMILIES)][0]
    return f"{prefix}{int(rng.integers(1, 30))}{str(rng.choice(list('ABCD')))}"


@cache
def gene_symbol_space(family_idx: int) -> frozenset[str]:
    """Every symbol :func:`gene_symbol` can return for ``family_idx``."""
    prefix = GENE_FAMILIES[family_idx % len(GENE_FAMILIES)][0]
    return frozenset(f"{prefix}{n}{c}" for n in range(1, 30) for c in "ABCD")


def disease_name(family_idx: int, rng: np.random.Generator) -> str:
    """Disease name with a family-characteristic suffix, e.g. ``Nephritis``."""
    suffixes, _ = DISEASE_FAMILIES[family_idx % len(DISEASE_FAMILIES)]
    root = str(rng.choice(_DISEASE_ROOTS))
    suffix = str(rng.choice(list(suffixes)))
    return f"{root}{suffix}".capitalize()


@cache
def disease_name_space(family_idx: int) -> frozenset[str]:
    """Every name :func:`disease_name` can return for ``family_idx``."""
    suffixes, _ = DISEASE_FAMILIES[family_idx % len(DISEASE_FAMILIES)]
    return frozenset(f"{root}{suffix}".capitalize()
                     for root in _DISEASE_ROOTS for suffix in suffixes)


def gene_description(family_idx: int, symbol: str) -> str:
    """One-sentence gene description."""
    _, phrase = GENE_FAMILIES[family_idx % len(GENE_FAMILIES)]
    return f"{symbol} encodes a {phrase}."


def disease_description(family_idx: int, name: str) -> str:
    """One-sentence disease description."""
    _, phrase = DISEASE_FAMILIES[family_idx % len(DISEASE_FAMILIES)]
    return f"{name} is {phrase}."


def side_effect_description(name: str) -> str:
    """One-sentence side-effect description."""
    return f"{name.capitalize()} is an adverse reaction reported after drug exposure."
