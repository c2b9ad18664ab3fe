"""One JSON codec for every serialized frozen dataclass.

Configs, fault plans, workload specs, results, study specs, telemetry
events, timeline samples, spans and decision records all round-trip
through :func:`to_dict` / :func:`from_dict`; :func:`save` / :func:`load`
add the file format (pretty-printed, sorted keys, trailing newline).  A
field's name, annotation and default are all the codec needs, so a new
field is serialized -- and enters every cache key -- with no further
code.  The encoding rules:

* fields are emitted in declaration order;
* tuples become lists, and decoding rebuilds them as tuples;
* ``Optional[X]`` encodes ``None`` as ``null``;
* a union of dataclasses is a tagged union: each member declares
  ``codec_tag: ClassVar[str]``, the key its tag is written under, and
  the tag is the member's class attribute of that name (``kind`` for
  arrival processes), or its class name when it has none (``event``
  for telemetry events);
* ``Any`` values are unfrozen (tuples to lists) on the way out and
  frozen (lists to tuples) on the way in, recursively;
* a ``float`` field holding an ``int`` encodes and decodes as a float,
  so equal dataclasses always encode to equal JSON;
* a class with ``format_version: ClassVar[int]`` writes it first and
  rejects any other version on decoding (an absent version is read as
  the current one);
* a field whose metadata is :data:`OMIT_DEFAULT` is left out while it
  holds its default;
* a key may be absent when its field has a default value, which then
  fills it in (hand-written spec files and archives older than a field
  still load); a field with no default, one whose default is built by a
  ``default_factory`` (a nested record such as ``SystemConfig.site``),
  and one whose metadata is :data:`REQUIRED` must be present.

Decoding raises :class:`ConfigError` on a missing required key, an
unknown key, a wrong version or tag, and a value of the wrong shape; a
class whose annotations the codec does not support raises it on first
use.  Each
class's plan is built once (``typing.get_type_hints`` runs once per
class) and cached.

This module imports nothing from the rest of the package, so every
layer may use it.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import types
import typing
from typing import Any, Callable, Dict, Optional, Tuple, Union

#: Field metadata: leave the field out of the encoding while it holds
#: its default (``field(default=None, metadata=OMIT_DEFAULT)``).
OMIT_DEFAULT = types.MappingProxyType({"omit_default": True})

#: Field metadata: the key must be present when decoding although the
#: field has a default (a record without it predates the field).
REQUIRED = types.MappingProxyType({"required": True})

#: ``None`` means "pass the value through unchanged".
Encoder = Optional[Callable[[Any], Any]]
Decoder = Callable[[Any], Any]


class ConfigError(ValueError):
    """An invalid configuration, or a record the codec cannot decode."""


def freeze(value: Any) -> Any:
    """Recursively turn lists (and tuples) into tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    return value


def _unfreeze(value: Any) -> Any:
    """Recursively turn tuples into lists, so ``json.dumps`` accepts them."""
    if isinstance(value, tuple):
        return [_unfreeze(item) for item in value]
    return value


def _decode_float(value: Any) -> float:
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise ConfigError(f"expected a number, got {value!r}")


def _decode_int(value: Any) -> int:
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ConfigError(f"expected an integer, got {value!r}")


def _exact(kind: type) -> Callable[[Any], Any]:
    def decode(value: Any) -> Any:
        if type(value) is not kind:
            raise ConfigError(f"expected a {kind.__name__}, got {value!r}")
        return value

    return decode


def _sequence(value: Any) -> Any:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"expected a list, got {type(value).__name__}")
    return value


#: Annotation -> (encoder, decoder), built once per annotation.
_CODECS: Dict[Any, Tuple[Encoder, Decoder]] = {
    Any: (_unfreeze, freeze),
    float: (float, _decode_float),
    int: (None, _decode_int),
    str: (None, _exact(str)),
    bool: (None, _exact(bool)),
}


def _tag(cls: type) -> Optional[Tuple[str, str]]:
    """``(key, value)`` of a tagged class, or ``None``."""
    key = getattr(cls, "codec_tag", None)
    if key is None:
        return None
    value = getattr(cls, key, None)
    return key, value if isinstance(value, str) else cls.__name__


def _dataclass_codec(cls: type) -> Tuple[Encoder, Decoder]:
    hints = typing.get_type_hints(cls)
    head: Dict[str, Any] = {}
    tag = _tag(cls)
    if tag is not None:
        head[tag[0]] = tag[1]
    version = getattr(cls, "format_version", None)
    if version is not None:
        head["format_version"] = version
    rows = []
    for spec in dataclasses.fields(cls):
        omit = bool(spec.metadata.get("omit_default"))
        required = spec.default is dataclasses.MISSING or "required" in spec.metadata
        if omit and required:
            raise ConfigError(f"{cls.__name__}.{spec.name}: an omitted field needs a default")
        encode, decode = _codec(hints[spec.name])
        rows.append((spec.name, encode, decode, omit, spec.default, required))
    known = frozenset(head) | {row[0] for row in rows}
    name = cls.__name__

    def encode_object(obj: Any) -> Dict[str, Any]:
        out = dict(head)
        for field_name, encode, _, omit, default, _ in rows:
            value = getattr(obj, field_name)
            if omit and value == default:
                continue
            out[field_name] = value if encode is None else encode(value)
        return out

    def decode_object(data: Any) -> Any:
        if type(data) is not dict:
            raise ConfigError(f"expected a {name} object, got {type(data).__name__}")
        unknown = data.keys() - known
        if unknown:
            raise ConfigError(f"{name} record has unknown field(s) {sorted(unknown)}")
        for key, expected in head.items():
            if data.get(key, expected) != expected:
                raise ConfigError(
                    f"unsupported {name} {key} {data[key]!r} (expected {expected!r})"
                )
        kwargs = {}
        for field_name, _, decode, _, _, required in rows:
            if field_name in data:
                try:
                    kwargs[field_name] = decode(data[field_name])
                except ConfigError as error:
                    raise ConfigError(f"{name}.{field_name}: {error}") from None
            elif required:
                raise ConfigError(f"{name} record is missing field {field_name!r}")
        return cls(**kwargs)

    return encode_object, decode_object


def _tagged_union_codec(members: Tuple[type, ...]) -> Tuple[Encoder, Decoder]:
    tags = [_tag(member) for member in members]
    keys = {tag[0] for tag in tags if tag is not None}
    if None in tags or len(keys) != 1:
        raise ConfigError(
            f"unsupported union {members}: members must share one codec_tag"
        )
    (key,) = keys
    encoders = {member: _codec(member)[0] for member in members}
    decoders = {tag[1]: _codec(member)[1] for tag, member in zip(tags, members)}

    def encode(value: Any) -> Any:
        encoder = encoders.get(type(value))
        if encoder is None:
            raise ConfigError(
                f"{type(value).__name__} is not serializable "
                f"(expected one of {[m.__name__ for m in members]})"
            )
        return encoder(value)

    def decode(data: Any) -> Any:
        tag = data.get(key) if type(data) is dict else None
        decoder = decoders.get(tag)
        if decoder is None:
            raise ConfigError(f"unknown {key} tag {tag!r}")
        return decoder(data)

    return encode, decode


def _optional_codec(inner: Tuple[Encoder, Decoder]) -> Tuple[Encoder, Decoder]:
    encode_inner, decode_inner = inner

    def encode(value: Any) -> Any:
        return value if value is None or encode_inner is None else encode_inner(value)

    def decode(value: Any) -> Any:
        return value if value is None else decode_inner(value)

    return encode, decode


def _tuple_codec(items: Tuple[Any, ...]) -> Tuple[Encoder, Decoder]:
    if len(items) == 2 and items[1] is Ellipsis:
        encode_item, decode_item = _codec(items[0])

        def encode(value: Any) -> Any:
            if encode_item is None:
                return list(value)
            return [encode_item(item) for item in value]

        def decode(value: Any) -> Any:
            return tuple(decode_item(item) for item in _sequence(value))

        return encode, decode
    codecs = [_codec(item) for item in items]

    def encode_fixed(value: Any) -> Any:
        return [
            item if encode_item is None else encode_item(item)
            for item, (encode_item, _) in zip(value, codecs)
        ]

    def decode_fixed(value: Any) -> Any:
        if len(_sequence(value)) != len(codecs):
            raise ConfigError(f"expected {len(codecs)} items, got {len(value)}")
        return tuple(decode_item(item) for item, (_, decode_item) in zip(value, codecs))

    return encode_fixed, decode_fixed


def _build_codec(hint: Any) -> Tuple[Encoder, Decoder]:
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return _dataclass_codec(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        members = tuple(arg for arg in args if arg is not type(None))
        if len(members) == 1:
            inner = _codec(members[0])
        else:
            inner = _tagged_union_codec(members)
        return _optional_codec(inner) if len(members) < len(args) else inner
    if origin is tuple and args:
        return _tuple_codec(args)
    raise ConfigError(f"unsupported annotation {hint!r}")


def _codec(hint: Any) -> Tuple[Encoder, Decoder]:
    codec = _CODECS.get(hint)
    if codec is None:
        codec = _CODECS[hint] = _build_codec(hint)
    return codec


def to_dict(obj: Any) -> Dict[str, Any]:
    """Encode a dataclass instance as JSON-compatible primitives."""
    encode = _codec(type(obj))[0]
    if encode is None:
        raise ConfigError(f"{type(obj).__name__} is not a dataclass")
    return encode(obj)


def from_dict(cls: Any, data: Any) -> Any:
    """Decode *data* as *cls*: a dataclass, or a tagged union of them.

    Raises:
        ConfigError: On a missing required key, an unknown key, a wrong
            version or tag, or a value of the wrong shape.  Validation
            errors of the dataclasses themselves propagate unchanged.
    """
    return _codec(cls)[1](data)


def save(obj: Any, path: Union[str, pathlib.Path]) -> None:
    """Write *obj* as pretty-printed JSON with sorted keys."""
    text = json.dumps(to_dict(obj), indent=2, sort_keys=True)
    pathlib.Path(path).write_text(text + "\n", encoding="utf-8")


def load(cls: Any, path: Union[str, pathlib.Path]) -> Any:
    """Read a *cls* written by :func:`save`.

    Raises:
        ConfigError: If the file is not valid JSON or does not decode.
        OSError: If the file cannot be read.
    """
    text = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as bad:
        raise ConfigError(f"{path}: not valid JSON ({bad})") from None
    return from_dict(cls, data)


__all__ = [
    "ConfigError",
    "OMIT_DEFAULT",
    "REQUIRED",
    "freeze",
    "to_dict",
    "from_dict",
    "save",
    "load",
]
