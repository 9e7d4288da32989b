"""Streaming append requests and the bundle delta log.

An *append* is the unit of streaming mutation: a batch of brand-new
entities (each described by its modalities — a text description and an
optional molecular feature row) plus known triples connecting them to
the graph.  Appends are validated and resolved here into an
:class:`AppendDelta`, the record every layer shares:

* the serving tier applies it to the live model/filter/cache
  (:mod:`repro.stream.apply`);
* the bundle writer journals ``delta.log_entry()`` into the manifest's
  monotonically versioned ``stream`` section (bundle v3,
  :mod:`repro.serve.bundle`);
* the warm-start trainer fine-tunes exactly the rows it names
  (:mod:`repro.train.warmstart`).

Relations are fixed at training time (the relation table and every
inverse-relation convention depend on their count), so an append may
reference existing relations only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AppendDelta", "EntitySpec", "StreamError",
           "parse_append_request"]


class StreamError(ValueError):
    """An invalid append request; carries an HTTP-style status + code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


@dataclass
class EntitySpec:
    """One unseen entity described by its modalities.

    ``molecule`` is a precomputed molecular feature row in the model's
    ``d_m`` feature space (e.g. the GIN readout used at training time);
    ``None`` means no molecule, matching the zero-row convention of
    :func:`repro.datasets.build_features` for non-compound entities.
    """

    name: str
    entity_type: str = "Unknown"
    description: str = ""
    molecule: np.ndarray | None = None

    @property
    def text(self) -> str:
        """The entity text the inductive encoder embeds (name + desc)."""
        return f"{self.name}. {self.description}" if self.description else self.name


@dataclass
class AppendDelta:
    """One applied append: id assignments, resolved triples, provenance."""

    generation: int
    entity_names: list[str]
    entity_ids: list[int]
    triples: np.ndarray                 # (n, 3) int64, resolved ids
    old_num_entities: int
    num_entities: int
    source: str = "api"
    entity_types: list[str] = field(default_factory=list)

    @property
    def num_new_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def num_new_triples(self) -> int:
        return int(len(self.triples))

    def log_entry(self) -> dict:
        """JSON-safe record for the bundle manifest's delta log."""
        return {
            "generation": int(self.generation),
            "source": self.source,
            "entities": list(self.entity_names),
            "entity_ids": [int(i) for i in self.entity_ids],
            "entity_types": list(self.entity_types),
            "num_triples": self.num_new_triples,
            "old_num_entities": int(self.old_num_entities),
            "num_entities": int(self.num_entities),
        }


def _parse_entity(index: int, raw) -> EntitySpec:
    if not isinstance(raw, dict):
        raise StreamError(400, "bad_request",
                          f"entity #{index} must be a JSON object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise StreamError(400, "bad_request",
                          f"entity #{index} needs a non-empty string 'name'")
    entity_type = raw.get("type", "Unknown")
    if not isinstance(entity_type, str):
        raise StreamError(400, "bad_request",
                          f"entity #{index} ('{name}'): 'type' must be a string")
    description = raw.get("description", "")
    if not isinstance(description, str):
        raise StreamError(400, "bad_request",
                          f"entity #{index} ('{name}'): 'description' must be "
                          "a string")
    molecule = raw.get("molecule")
    if molecule is not None:
        try:
            molecule = np.asarray(molecule, dtype=np.float64).reshape(-1)
        except (TypeError, ValueError):
            raise StreamError(
                400, "bad_request",
                f"entity #{index} ('{name}'): 'molecule' must be a flat "
                "list of numbers (a molecular feature row)") from None
    return EntitySpec(name=name, entity_type=entity_type,
                      description=description, molecule=molecule)


def parse_append_request(body) -> tuple[list[EntitySpec], list]:
    """Validate an append request body into specs + raw triple rows.

    The body is ``{"entities": [{"name", "type"?, "description"?,
    "molecule"?}, ...], "triples": [[h, r, t], ...]}``; triples may
    reference entities by name (including the new ones) or by id, and
    relations by name or id.  Resolution against the live vocabularies
    happens later in :func:`repro.stream.apply.plan_append` — this
    function only enforces shape, so both HTTP tiers and the CLI reject
    malformed requests identically.
    """
    if not isinstance(body, dict):
        raise StreamError(400, "bad_request", "JSON object body required")
    raw_entities = body.get("entities", [])
    raw_triples = body.get("triples", [])
    if not isinstance(raw_entities, list) or not isinstance(raw_triples, list):
        raise StreamError(400, "bad_request",
                          "'entities' and 'triples' must be lists")
    if not raw_entities and not raw_triples:
        raise StreamError(400, "bad_request",
                          "append needs at least one entity or triple")
    specs = [_parse_entity(i, raw) for i, raw in enumerate(raw_entities)]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        seen: set[str] = set()
        repeated = sorted({n for n in names if n in seen or seen.add(n)})
        raise StreamError(409, "conflict",
                          f"duplicate entity names within request: {repeated}")
    for i, row in enumerate(raw_triples):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise StreamError(400, "bad_request",
                              f"triple #{i} must be [head, relation, tail]")
    return specs, list(raw_triples)
