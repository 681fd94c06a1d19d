"""Spec-driven model registry: one source of truth for model construction.

Historically the library kept two module-level dicts (``SPARSE_MODELS`` in
:mod:`repro.models` and ``DENSE_MODELS`` in :mod:`repro.baselines`) and every
consumer — the CLI, the checkpoint restorer, the benchmarks — reimplemented
its own kwargs plumbing on top of them.  Checkpoint reconstruction even went
through a name-mangled ``{"sp" + name} / {"dense" + name}`` lookup that
silently dropped hyperparameters such as the SpMM backend and the
dissimilarity.

This module replaces all of that with three pieces:

* :func:`register_model` — a class decorator applied at model definition
  sites.  Each registration carries **capability metadata**
  (:class:`ModelCapabilities`): which optional constructor keywords the model
  accepts (``relation_dim``, ``backend``, ``dissimilarity``), whether it
  supports the row-sparse gradient pipeline, and its formulation tag.
* :class:`ModelSpec` — a plain dataclass naming a registered model plus its
  hyperparameters.  ``to_dict()``/``from_dict()`` round-trip losslessly
  through JSON, so a spec can live inside checkpoint metadata or travel over
  the serving API.
* :func:`build_model` — constructs a model from a spec, passing exactly the
  keywords the capability metadata declares.  :func:`spec_from_model` is the
  inverse: it recovers the spec from a live model instance.

The legacy ``SPARSE_MODELS``/``DENSE_MODELS`` dicts are now *views* derived
from this registry (see :func:`models_by_formulation`), kept for callers that
only need a name → class mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple, Type

from repro.sparse.backends import get_backend

#: The two computational formulations the paper compares.
FORMULATIONS = ("sparse", "dense")


class UnknownModelError(LookupError):
    """Raised when a spec names a (model, formulation) pair never registered.

    Subclasses ``LookupError`` rather than ``KeyError`` so ``str(exc)`` is the
    plain message (``KeyError.__str__`` wraps it in quotes, which leaks into
    CLI error output).
    """


@dataclass(frozen=True)
class ModelCapabilities:
    """What a registered model class can be configured with.

    Attributes
    ----------
    accepts_relation_dim:
        Constructor takes ``relation_dim`` (projection models: TransR).
    accepts_backend:
        Constructor takes a ``backend`` keyword selecting the SpMM backend.
    accepts_dissimilarity:
        Constructor takes a ``dissimilarity`` keyword.
    supports_sparse_grads:
        The model routes ``set_sparse_grads(True)`` into row-sparse SpMM /
        gather backwards (rather than silently ignoring the flag).
    formulation_tag:
        Free-form computational-formulation label (``"hrt-spmm"``,
        ``"dense-gather"``, ...) surfaced by ``sptransx info``.
    default_dissimilarity:
        The dissimilarity the constructor uses when none is specified
        (``None`` for non-translational models).
    """

    accepts_relation_dim: bool = False
    accepts_backend: bool = False
    accepts_dissimilarity: bool = False
    supports_sparse_grads: bool = False
    accepts_partitions: bool = False
    formulation_tag: str = ""
    default_dissimilarity: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "accepts_relation_dim": self.accepts_relation_dim,
            "accepts_backend": self.accepts_backend,
            "accepts_dissimilarity": self.accepts_dissimilarity,
            "supports_sparse_grads": self.supports_sparse_grads,
            "accepts_partitions": self.accepts_partitions,
            "formulation_tag": self.formulation_tag,
            "default_dissimilarity": self.default_dissimilarity,
        }


@dataclass(frozen=True)
class RegistryEntry:
    """One registered (name, formulation) → class binding."""

    name: str
    formulation: str
    cls: Type
    capabilities: ModelCapabilities


#: ``(name, formulation) -> RegistryEntry``; populated by :func:`register_model`
#: decorators at import time of :mod:`repro.models` / :mod:`repro.baselines`.
_REGISTRY: Dict[Tuple[str, str], RegistryEntry] = {}
#: Reverse map for :func:`spec_from_model`.
_ENTRY_BY_CLASS: Dict[Type, RegistryEntry] = {}


def register_model(name: str, formulation: str, *,
                   accepts_relation_dim: bool = False,
                   accepts_backend: bool = False,
                   accepts_dissimilarity: bool = False,
                   supports_sparse_grads: bool = False,
                   accepts_partitions: bool = False,
                   formulation_tag: str = "",
                   default_dissimilarity: Optional[str] = None) -> Callable[[Type], Type]:
    """Class decorator registering a KGE model under ``(name, formulation)``.

    .. code-block:: python

        @register_model("transe", "sparse", accepts_backend=True,
                        accepts_dissimilarity=True, supports_sparse_grads=True,
                        formulation_tag="hrt-spmm", default_dissimilarity="L2")
        class SpTransE(TranslationalModel):
            ...

    Re-registering the same key raises — duplicate names would make
    checkpoint reconstruction ambiguous.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")
    # Lookups (get_entry, ModelSpec) lowercase the name; normalise at
    # registration too so no spelling can create an unreachable entry.
    name = str(name).lower()

    capabilities = ModelCapabilities(
        accepts_relation_dim=accepts_relation_dim,
        accepts_backend=accepts_backend,
        accepts_dissimilarity=accepts_dissimilarity,
        supports_sparse_grads=supports_sparse_grads,
        accepts_partitions=accepts_partitions,
        formulation_tag=formulation_tag,
        default_dissimilarity=default_dissimilarity,
    )

    def decorator(cls: Type) -> Type:
        key = (name, formulation)
        existing = _REGISTRY.get(key)
        if existing is not None and existing.cls is not cls:
            raise ValueError(
                f"model {name!r} ({formulation}) already registered to "
                f"{existing.cls.__name__}; cannot rebind to {cls.__name__}"
            )
        entry = RegistryEntry(name=name, formulation=formulation, cls=cls,
                              capabilities=capabilities)
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
    """Plain ``name -> class`` view (the legacy SPARSE_MODELS/DENSE_MODELS shape)."""
    _ensure_models_imported()
    return {name: entry.cls for (name, f), entry in sorted(_REGISTRY.items())
            if f == formulation}


def registry_summary() -> Dict[str, Dict[str, object]]:
    """JSON-friendly capability table keyed ``"name/formulation"`` (for ``info``)."""
    return {
        f"{entry.name}/{entry.formulation}": {
            "class": entry.cls.__name__,
            **entry.capabilities.to_dict(),
        }
        for entry in iter_entries()
    }


@dataclass
class ModelSpec:
    """A complete, serialisable recipe for constructing a model.

    ``relation_dim``, ``backend``, and ``dissimilarity`` are optional: ``None``
    means "use the constructor default".  ``to_dict`` omits ``None`` fields so
    round-tripped specs stay minimal; ``from_dict`` ignores unknown keys so
    future spec versions remain loadable.
    """

    model: str
    formulation: str
    n_entities: int
    n_relations: int
    embedding_dim: int
    relation_dim: Optional[int] = None
    backend: Optional[str] = None
    dissimilarity: Optional[str] = None
    sparse_grads: bool = False
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
            self.ann = str(self.ann).lower()
        if self.nprobe is not None:
            self.nprobe = int(self.nprobe)
            if self.nprobe < 1:
                raise ValueError(f"nprobe must be >= 1, got {self.nprobe}")
        if self.nprobe is not None and self.ann is None:
            raise ValueError("nprobe requires an ann index kind (set ann='ivf')")

    def capabilities(self) -> ModelCapabilities:
        """Capability metadata of the registered class this spec names."""
        return get_entry(self.model, self.formulation).capabilities

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
        if self.sparse_grads:
            out["sparse_grads"] = True
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
            sparse_grads=bool(payload.get("sparse_grads", False)),
            partitions=int(partitions) if partitions is not None else None,  # type: ignore[arg-type]
            ann=str(payload["ann"]) if payload.get("ann") is not None else None,
            nprobe=int(nprobe) if nprobe is not None else None,  # type: ignore[arg-type]
            version=int(payload.get("spec_version", 1)),  # type: ignore[arg-type]
        )


def build_model(spec: ModelSpec, rng=None):
    """Construct the model a spec describes.

    Only keywords the registered capabilities declare are passed through; a
    spec field that the model cannot honour (e.g. ``relation_dim`` for
    TransE, or a non-default ``dissimilarity`` for a semiring model) raises a
    ``ValueError`` instead of being silently dropped — that silent drop is
    exactly the checkpoint bug this registry replaces.
    """
    entry = get_entry(spec.model, spec.formulation)
    caps = entry.capabilities

    kwargs: Dict[str, object] = {}
    if spec.relation_dim is not None:
        if not caps.accepts_relation_dim:
            raise ValueError(
                f"model {spec.model!r} ({spec.formulation}) does not accept "
                f"relation_dim, but the spec sets relation_dim={spec.relation_dim}"
            )
        kwargs["relation_dim"] = spec.relation_dim
    if spec.backend is not None:
        if not caps.accepts_backend:
            raise ValueError(
                f"model {spec.model!r} ({spec.formulation}) does not accept a "
                f"backend, but the spec sets backend={spec.backend!r}"
            )
        try:
            get_backend(spec.backend)
        except KeyError as exc:
            # Fail while loading the spec or checkpoint, not inside the first
            # training step that looks the name up.
            raise ValueError(exc.args[0]) from None
        kwargs["backend"] = spec.backend
    if spec.dissimilarity is not None:
        if not caps.accepts_dissimilarity:
            raise ValueError(
                f"model {spec.model!r} ({spec.formulation}) does not accept a "
                f"dissimilarity, but the spec sets dissimilarity={spec.dissimilarity!r}"
            )
        kwargs["dissimilarity"] = spec.dissimilarity

    if spec.partitions is not None:
        if not caps.accepts_partitions:
            raise ValueError(
                f"model {spec.model!r} ({spec.formulation}) does not support "
                f"partitioned entity tables, but the spec sets "
                f"partitions={spec.partitions}"
            )
        kwargs["partitions"] = spec.partitions

    if spec.sparse_grads and not caps.supports_sparse_grads:
        raise ValueError(
            f"model {spec.model!r} ({spec.formulation}) does not support "
            "row-sparse gradients, but the spec sets sparse_grads=True"
        )

    model = entry.cls(spec.n_entities, spec.n_relations, spec.embedding_dim,
                      rng=rng, **kwargs)
    if spec.sparse_grads:
        model.set_sparse_grads(True)
    return model


def spec_from_model(model) -> ModelSpec:
    """Recover the :class:`ModelSpec` describing a live model instance.

    The inverse of :func:`build_model`: ``build_model(spec_from_model(m))``
    reconstructs a model with identical architecture and hyperparameters
    (fresh weights — pair with ``restore_into`` for the parameters).
    """
    _ensure_models_imported()
    entry = _ENTRY_BY_CLASS.get(type(model))
    if entry is None:
        raise UnknownModelError(
            f"{type(model).__name__} is not a registered model class; "
            "decorate it with @register_model to make it checkpointable"
        )
    caps = entry.capabilities
    return ModelSpec(
        model=entry.name,
        formulation=entry.formulation,
        n_entities=model.n_entities,
        n_relations=model.n_relations,
        embedding_dim=model.embedding_dim,
        relation_dim=(int(model.relation_dim) if caps.accepts_relation_dim else None),
        backend=(str(model.backend) if caps.accepts_backend else None),
        dissimilarity=(str(model.dissimilarity_name)
                       if caps.accepts_dissimilarity else None),
        sparse_grads=bool(getattr(model, "sparse_grads", False)
                          and caps.supports_sparse_grads),
        partitions=(int(model.n_partitions)
                    if caps.accepts_partitions and model.n_partitions > 1
                    else None),
    )
