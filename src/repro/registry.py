"""Spec-driven model registry: one source of truth for model construction.

A model is described twice, and only twice:

* its **constructor**, which is the capability list: a model accepts a
  :class:`ModelSpec` field (``relation_dim``, ``backend``, ``dissimilarity``,
  ``partitions``) exactly when its ``__init__`` names a keyword of that name;
* a :class:`ModelSpec`, a plain dataclass naming a registered model plus its
  hyperparameters.  ``to_dict()``/``from_dict()`` round-trip losslessly
  through JSON, so a spec can live inside checkpoint metadata or travel over
  the serving API.

:func:`register_model` is a class decorator applied at model definition
sites; it records only the registry key ``(name, formulation)``.
:func:`build_model` constructs a model from a spec, passing exactly the spec
fields the constructor names and refusing any other one that is set;
:func:`spec_from_model` is the inverse and records fields by the same rule.
Whether a run uses row-sparse gradients is a training choice, not part of
what a model is: it lives in ``TrainingConfig.sparse_grads``.
:func:`models_by_formulation` is the ``name -> class`` view for callers that
only need a mapping.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple, Type

from repro.sparse.backends import get_backend

#: The two computational formulations the paper compares.
FORMULATIONS = ("sparse", "dense")

#: The optional :class:`ModelSpec` fields that are constructor keywords: how
#: :func:`build_model` words its refusal when a constructor does not name
#: one, and how :func:`spec_from_model` reads the value off a live model
#: (``ModelSpec`` normalises one partition to ``None``).
KEYWORD_FIELDS: Dict[str, Tuple[str, Callable[[object], object]]] = {
    "relation_dim": ("does not accept relation_dim",
                     lambda model: int(model.relation_dim)),
    "backend": ("does not accept a backend", lambda model: str(model.backend)),
    "dissimilarity": ("does not accept a dissimilarity",
                      lambda model: str(model.dissimilarity_name)),
    "partitions": ("does not support partitioned entity tables",
                   lambda model: int(model.n_partitions)),
}


class UnknownModelError(LookupError):
    """Raised when a spec names a (model, formulation) pair never registered.

    Subclasses ``LookupError`` rather than ``KeyError`` so ``str(exc)`` is the
    plain message (``KeyError.__str__`` wraps it in quotes, which leaks into
    CLI error output).
    """


@dataclass(frozen=True)
class RegistryEntry:
    """One registered (name, formulation) → class binding."""

    name: str
    formulation: str
    cls: Type

    def keywords(self) -> Tuple[str, ...]:
        """The class's constructor parameters, in signature order."""
        return tuple(inspect.signature(self.cls).parameters)


#: ``(name, formulation) -> RegistryEntry``; populated by :func:`register_model`
#: decorators at import time of :mod:`repro.models` / :mod:`repro.baselines`.
_REGISTRY: Dict[Tuple[str, str], RegistryEntry] = {}
#: Reverse map for :func:`spec_from_model`.
_ENTRY_BY_CLASS: Dict[Type, RegistryEntry] = {}


def register_model(name: str, formulation: str) -> Callable[[Type], Type]:
    """Class decorator registering a KGE model under ``(name, formulation)``.

    .. code-block:: python

        @register_model("transe", "sparse")
        class SpTransE(TranslationalModel):
            def __init__(self, n_entities, n_relations, embedding_dim,
                         dissimilarity="L2", backend="scipy", ...): ...

    The key is all a registration records: which spec fields the model
    accepts is read from its constructor's signature.  Re-registering the
    same key raises — duplicate names would make checkpoint reconstruction
    ambiguous.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")
    # Lookups (get_entry, ModelSpec) lowercase the name; normalise at
    # registration too so no spelling can create an unreachable entry.
    name = str(name).lower()

    def decorator(cls: Type) -> Type:
        key = (name, formulation)
        existing = _REGISTRY.get(key)
        if existing is not None and existing.cls is not cls:
            raise ValueError(
                f"model {name!r} ({formulation}) already registered to "
                f"{existing.cls.__name__}; cannot rebind to {cls.__name__}"
            )
        entry = RegistryEntry(name=name, formulation=formulation, cls=cls)
        _REGISTRY[key] = entry
        _ENTRY_BY_CLASS[cls] = entry
        return cls

    return decorator


def _ensure_models_imported() -> None:
    """Import the model packages so their decorators have run.

    The registry module itself must not import :mod:`repro.models` at top
    level (the model modules import *us* for the decorator); instead the
    lookup functions trigger the imports lazily.
    """
    import repro.baselines  # noqa: F401  (registration side effect)
    import repro.models  # noqa: F401


def get_entry(name: str, formulation: str) -> RegistryEntry:
    """Look up a registration; raises :class:`UnknownModelError` with context."""
    _ensure_models_imported()
    entry = _REGISTRY.get((str(name).lower(), formulation))
    if entry is None:
        available = sorted(n for n, f in _REGISTRY if f == formulation)
        raise UnknownModelError(
            f"no {formulation!r} implementation registered for model {name!r}; "
            f"available: {available}"
        )
    return entry


def iter_entries() -> Iterator[RegistryEntry]:
    """All registrations, ordered by (name, formulation)."""
    _ensure_models_imported()
    for key in sorted(_REGISTRY):
        yield _REGISTRY[key]


def models_by_formulation(formulation: str) -> Dict[str, Type]:
    """Plain ``name -> class`` view of one formulation's registrations."""
    _ensure_models_imported()
    return {name: entry.cls for (name, f), entry in sorted(_REGISTRY.items())
            if f == formulation}


def registry_summary() -> Dict[str, Dict[str, object]]:
    """Class and constructor keywords keyed ``"name/formulation"`` (for ``info``)."""
    return {
        f"{entry.name}/{entry.formulation}": {
            "class": entry.cls.__name__,
            "keywords": list(entry.keywords()),
        }
        for entry in iter_entries()
    }


@dataclass
class ModelSpec:
    """A complete, serialisable recipe for constructing a model.

    ``relation_dim``, ``backend``, ``dissimilarity`` and ``partitions`` are
    the optional constructor keywords (:data:`KEYWORD_FIELDS`): ``None`` means
    "use the constructor default", and setting one the model's constructor
    does not name is refused by :func:`build_model`.  ``to_dict`` omits
    ``None`` fields so round-tripped specs stay minimal; ``from_dict`` ignores
    unknown keys so future spec versions (and the ``sparse_grads`` key older
    ones wrote) remain loadable.
    """

    model: str
    formulation: str
    n_entities: int
    n_relations: int
    embedding_dim: int
    relation_dim: Optional[int] = None
    backend: Optional[str] = None
    dissimilarity: Optional[str] = None
    partitions: Optional[int] = None
    #: Serving-time ANN index kind (``"ivf"``) built at artifact-export time;
    #: not a constructor argument — :func:`build_model` ignores it and the
    #: export/serve layers consume it (see :mod:`repro.ann`).
    ann: Optional[str] = None
    #: Default probe width for ANN serving (``None`` = auto-chosen at build
    #: time for a target recall and recorded in the index manifest).
    nprobe: Optional[int] = None
    version: int = field(default=1, compare=False)

    def __post_init__(self) -> None:
        self.model = str(self.model).lower()
        self.formulation = str(self.formulation)
        if self.formulation not in FORMULATIONS:
            raise ValueError(
                f"formulation must be one of {FORMULATIONS}, got {self.formulation!r}"
            )
        for attr in ("n_entities", "n_relations", "embedding_dim"):
            value = int(getattr(self, attr))
            if value <= 0:
                raise ValueError(f"{attr} must be positive, got {value}")
            setattr(self, attr, value)
        if self.relation_dim is not None:
            self.relation_dim = int(self.relation_dim)
        if self.partitions is not None:
            self.partitions = int(self.partitions)
            if self.partitions < 1:
                raise ValueError(f"partitions must be >= 1, got {self.partitions}")
            if self.partitions == 1:
                # P=1 is the unpartitioned layout; normalise so specs compare
                # and round-trip canonically.
                self.partitions = None
        if self.ann is not None:
            from repro.ann import get_index_class

            self.ann = str(self.ann).lower()
            get_index_class(self.ann)  # an unknown kind fails before training
        if self.nprobe is not None:
            self.nprobe = int(self.nprobe)
            if self.nprobe < 1:
                raise ValueError(f"nprobe must be >= 1, got {self.nprobe}")
        if self.nprobe is not None and self.ann is None:
            raise ValueError("nprobe requires an ann index kind (set ann='ivf')")

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "spec_version": self.version,
            "model": self.model,
            "formulation": self.formulation,
            "n_entities": self.n_entities,
            "n_relations": self.n_relations,
            "embedding_dim": self.embedding_dim,
        }
        if self.relation_dim is not None:
            out["relation_dim"] = self.relation_dim
        if self.backend is not None:
            out["backend"] = self.backend
        if self.dissimilarity is not None:
            out["dissimilarity"] = self.dissimilarity
        if self.partitions is not None:
            out["partitions"] = self.partitions
        if self.ann is not None:
            out["ann"] = self.ann
        if self.nprobe is not None:
            out["nprobe"] = self.nprobe
        return out

    def replace(self, **kwargs) -> "ModelSpec":
        """Copy with the given fields overridden (re-validated).

        The experiment layer uses this to fill vocabulary sizes in from the
        materialised dataset: ``spec.replace(n_entities=kg.n_entities, ...)``.
        """
        import dataclasses

        return dataclasses.replace(self, **kwargs)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ModelSpec":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on malformed input."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"model spec must be a mapping, got {type(payload).__name__}")
        missing = [key for key in ("model", "formulation", "n_entities",
                                   "n_relations", "embedding_dim")
                   if key not in payload]
        if missing:
            raise ValueError(f"model spec is missing required keys: {missing}")
        relation_dim = payload.get("relation_dim")
        partitions = payload.get("partitions")
        nprobe = payload.get("nprobe")
        return cls(
            model=str(payload["model"]),
            formulation=str(payload["formulation"]),
            n_entities=int(payload["n_entities"]),  # type: ignore[arg-type]
            n_relations=int(payload["n_relations"]),  # type: ignore[arg-type]
            embedding_dim=int(payload["embedding_dim"]),  # type: ignore[arg-type]
            relation_dim=int(relation_dim) if relation_dim is not None else None,  # type: ignore[arg-type]
            backend=str(payload["backend"]) if payload.get("backend") is not None else None,
            dissimilarity=(str(payload["dissimilarity"])
                           if payload.get("dissimilarity") is not None else None),
            partitions=int(partitions) if partitions is not None else None,  # type: ignore[arg-type]
            ann=str(payload["ann"]) if payload.get("ann") is not None else None,
            nprobe=int(nprobe) if nprobe is not None else None,  # type: ignore[arg-type]
            version=int(payload.get("spec_version", 1)),  # type: ignore[arg-type]
        )


def build_model(spec: ModelSpec, rng=None):
    """Construct the model a spec describes.

    Each optional spec field in :data:`KEYWORD_FIELDS` is passed only when
    the registered constructor names it; a set field that the constructor
    does not name (e.g. ``relation_dim`` for TransE, or a ``dissimilarity``
    for a semiring model) raises a ``ValueError`` instead of being silently
    dropped.
    """
    entry = get_entry(spec.model, spec.formulation)
    keywords = entry.keywords()
    kwargs: Dict[str, object] = {}
    for name, (refusal, _) in KEYWORD_FIELDS.items():
        value = getattr(spec, name)
        if value is None:
            continue
        if name not in keywords:
            raise ValueError(
                f"model {spec.model!r} ({spec.formulation}) {refusal}, "
                f"but the spec sets {name}={value!r}"
            )
        kwargs[name] = value
    if spec.backend is not None:
        try:
            get_backend(spec.backend)
        except KeyError as exc:
            # Fail while loading the spec or checkpoint, not inside the first
            # training step that looks the name up.
            raise ValueError(exc.args[0]) from None
    return entry.cls(spec.n_entities, spec.n_relations, spec.embedding_dim,
                     rng=rng, **kwargs)


def spec_from_model(model) -> ModelSpec:
    """Recover the :class:`ModelSpec` describing a live model instance.

    The inverse of :func:`build_model`: ``build_model(spec_from_model(m))``
    reconstructs a model with identical architecture and hyperparameters
    (fresh weights — pair with ``restore_into`` for the parameters).  A field
    is recorded exactly when the model's constructor names it.
    """
    _ensure_models_imported()
    entry = _ENTRY_BY_CLASS.get(type(model))
    if entry is None:
        raise UnknownModelError(
            f"{type(model).__name__} is not a registered model class; "
            "decorate it with @register_model to make it checkpointable"
        )
    keywords = entry.keywords()
    return ModelSpec(
        model=entry.name,
        formulation=entry.formulation,
        n_entities=model.n_entities,
        n_relations=model.n_relations,
        embedding_dim=model.embedding_dim,
        **{name: read(model) for name, (_, read) in KEYWORD_FIELDS.items()
           if name in keywords},
    )
