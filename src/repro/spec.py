"""One protocol for the digest-keyed spec files.

Every what-if study is described by a spec file of one of five families
— :class:`~repro.faults.plan.FaultPlan`,
:class:`~repro.sweep.plan.SweepPlan`,
:class:`~repro.fuzz.campaign.FuzzCampaign`,
:class:`~repro.scenarios.spec.Scenario` and
:class:`~repro.scenarios.job.ScenarioJob`.  They share one edge, defined
here once:

* **format** — YAML, with a JSON fallback when PyYAML is missing (the
  import stays lazy so ``import repro`` does not pay for it);
* **reading** — :meth:`Spec.load` reads a file, :meth:`Spec.loads`
  parses text, :meth:`Spec.dumps` writes YAML back (keys sorted);
* **shape** — the parsed document must be a mapping whose keys the
  family declares; anything else is rejected with the family's message
  ("unknown sweep-plan keys: ...");
* **typed errors** — any exception raised while building a spec from
  data becomes the family's :class:`~repro.errors.ReproError` subclass
  ("bad <what>: ..."), so a malformed file never ends in a traceback;
* **identity** — :meth:`Spec.digest` hashes the *canonical form* of
  ``to_dict()``: nested spec objects become their own ``to_dict()``,
  tuples become lists, and any other non-JSON leaf is a typed error.
  A spec built in code from objects therefore digests exactly like the
  same spec read from a file.

A family keeps only its fields, validation, ``to_dict``, ``describe``
and expansion logic; it may override :meth:`Spec._build` (the
constructor call from a key-checked dict) and :meth:`Spec.check`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import (Any, ClassVar, Dict, FrozenSet, Mapping, Optional,
                    Tuple, Type)

from repro.errors import ReproError


def canonical(value: Any, error: Type[ReproError]) -> Any:
    """The plain-JSON form of a spec value: nested specs become their
    ``to_dict()``, tuples become lists, mapping keys must be strings;
    any other non-JSON leaf raises ``error``."""
    if isinstance(value, Spec):
        return canonical(value.to_dict(), error)
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(v, error) for v in value]
    if isinstance(value, Mapping):
        out = {}
        for key, v in value.items():
            if not isinstance(key, str):
                raise error(f"spec keys must be strings, got {key!r}")
            out[key] = canonical(v, error)
        return out
    raise error(f"{type(value).__name__} value {value!r} has no plain "
                f"JSON form")


def params_tuple(where: str, params, error: Type[ReproError]
                 ) -> Optional[Tuple[Tuple[str, Any], ...]]:
    """Normalize a params mapping (or pair sequence) to its canonical
    form, a sorted tuple of ``(name, value)`` pairs (None when empty);
    a malformed one raises ``error`` naming ``where``."""
    if params is None:
        return None
    if isinstance(params, Mapping):
        items = list(params.items())
    else:
        try:
            items = [(k, v) for k, v in params]
        except (TypeError, ValueError):
            raise error(
                f"{where} must be a mapping or a sequence of "
                f"(name, value) pairs, got {params!r}") from None
    for k, _ in items:
        if not isinstance(k, str) or not k:
            raise error(f"{where} keys must be non-empty strings, got {k!r}")
    return tuple(sorted(items, key=lambda kv: kv[0])) or None


class Spec:
    """Mixin giving a frozen spec dataclass the shared spec protocol.

    A family sets ``what`` (its name in messages), ``error`` (its typed
    error) and, when its file keys are not exactly its dataclass
    fields, ``file_keys``.
    """

    what: ClassVar[str]
    error: ClassVar[Type[ReproError]]
    #: the mapping keys a spec file may use (None = the dataclass fields)
    file_keys: ClassVar[Optional[FrozenSet[str]]] = None

    def to_dict(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def _build(cls, data: Dict[str, Any]):
        """The spec from a key-checked mapping (override to rename keys
        or normalize before construction)."""
        return cls(**data)

    @classmethod
    def from_dict(cls, data: Any):
        """Build and validate a spec from parsed YAML/JSON data; every
        failure is raised as the family's typed error."""
        if not isinstance(data, Mapping):
            raise cls.error(f"{cls.what} must be a mapping, got "
                            f"{type(data).__name__}")
        known = cls.file_keys or frozenset(
            f.name for f in dataclasses.fields(cls))  # type: ignore[arg-type]
        unknown = set(data) - known
        if unknown:
            raise cls.error(
                f"unknown {cls.what.replace(' ', '-')} keys: "
                f"{sorted(unknown, key=str)}; known keys: {sorted(known)}")
        try:
            spec = cls._build(dict(data))
            # a loaded spec always has a digest and a dump
            canonical(spec, cls.error)
        except cls.error:
            raise
        except Exception as exc:
            raise cls.error(f"bad {cls.what}: {exc}") from None
        return spec

    @classmethod
    def loads(cls, text: str):
        """Parse a spec from YAML (preferred) or JSON text; empty text is
        the empty mapping."""
        try:
            import yaml
        except ImportError:  # pragma: no cover - PyYAML is normally present
            yaml = None
        try:
            data = (yaml.safe_load(text) if yaml is not None
                    else json.loads(text))
        # not only YAMLError: PyYAML's constructors raise ValueError,
        # AttributeError or IndexError on malformed tagged scalars, and
        # deep nesting raises RecursionError
        except Exception as exc:
            raise cls.error(f"unparsable {cls.what}: {exc}") from None
        return cls.from_dict({} if data is None else data)

    @classmethod
    def load(cls, path: str):
        """Load a spec from a YAML/JSON file."""
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise cls.error(f"cannot read {cls.what} {path!r}: {exc}") \
                from None
        return cls.loads(text)

    def dumps(self) -> str:
        """The spec as YAML (JSON without PyYAML), keys sorted."""
        data = canonical(self, self.error)
        try:
            import yaml
        except ImportError:  # pragma: no cover - JSON fallback
            return json.dumps(data, indent=2, sort_keys=True) + "\n"
        return yaml.safe_dump(data, sort_keys=True)

    def digest(self) -> str:
        """Stable content address: sha256 of the canonical form."""
        payload = json.dumps(canonical(self, self.error), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def check(self) -> int:
        """Validate beyond construction; returns the number of runnable
        points (``repro <family> validate``)."""
        return 1
