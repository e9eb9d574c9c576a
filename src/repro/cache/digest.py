"""Canonical byte serialization and content digests for the verdict cache.

A cache key must mean the same thing in every process that computes it:
a fleet worker populating a shared on-disk store, the serve daemon
answering hits without queueing, and a test re-deriving the key under a
different ``PYTHONHASHSEED`` all have to agree bit for bit.  Python's
``hash()`` is salted per process and dict iteration order is an
implementation detail, so neither may appear anywhere near a key.

:func:`canon_bytes` therefore defines one canonical encoding: every
value is emitted as a type tag plus a length-prefixed payload, dict
items and set members are sorted by their own canonical encodings, and
floats travel as their IEEE-754 bit pattern.  Frozen config dataclasses
(:class:`~repro.core.options.RunOptions` and everything it nests —
policy, harrier config, fault profiles) encode as their qualified class
name plus their sorted field items, so *every* field of every nested
config participates in the key: flip one and the key moves.

The digests built on top:

* :func:`image_digest` — the assembled-image identity (name, every
  instruction including operand shapes, data cells, symbols,
  relocations, basic-block leaders, externs);
* :func:`options_fingerprint` — the frozen :class:`RunOptions`, minus
  the ``cache`` enable flag itself (whether a result may be cached is
  not part of what the result *is*);
* :func:`environment_digest` — argv/env/stdin plus the declarative
  seeded-files/peers environment (:class:`CacheEnv`);
* :func:`run_key` / :func:`workload_key` / :func:`submission_key` — the
  full content-addressed keys the Session, fleet workers, and serve
  daemon use.

Workload setup callbacks are closures and cannot be content-hashed;
:func:`workload_key` pins them by the workload's registry identity
(name, description, source, environment, and the setup function's
``module.qualname``) — the same contract that makes
:class:`repro.fleet.refs.WorkloadRef` resolution deterministic.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import struct
from collections import OrderedDict
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.core.options import RunOptions
from repro.isa.image import Image
from repro.kernel.network import ConversationPeer, SinkPeer

#: Bump when the canonical encoding or any key recipe changes: old
#: on-disk entries then simply miss instead of decoding wrongly.
KEY_SCHEMA = "repro-verdict-cache/1"


class DigestError(TypeError):
    """A value with no canonical byte encoding (e.g. a closure)."""


#: ``(argv, sorted env items, stdin, CacheEnv)`` -> digest — see
#: :func:`environment_digest`.
_ENV_DIGEST_MEMO: "OrderedDict[tuple, str]" = OrderedDict()
_ENV_MEMO_CAPACITY = 256


def _chunk(tag: bytes, payload: bytes, out: list) -> None:
    out.append(tag)
    out.append(struct.pack(">Q", len(payload)))
    out.append(payload)


def _canon(value: object, out: list) -> None:
    if value is None:
        _chunk(b"N", b"", out)
    elif value is True:
        _chunk(b"T", b"", out)
    elif value is False:
        _chunk(b"F", b"", out)
    elif isinstance(value, int):
        _chunk(b"i", str(value).encode("ascii"), out)
    elif isinstance(value, float):
        _chunk(b"f", struct.pack(">d", value), out)
    elif isinstance(value, str):
        _chunk(b"s", value.encode("utf-8"), out)
    elif isinstance(value, (bytes, bytearray)):
        _chunk(b"b", bytes(value), out)
    elif isinstance(value, enum.Enum):
        cls = type(value)
        _chunk(b"E", f"{cls.__module__}.{cls.__qualname__}".encode(), out)
        _canon(value.value, out)
    elif isinstance(value, (tuple, list)):
        _chunk(b"t", struct.pack(">Q", len(value)), out)
        for item in value:
            _canon(item, out)
    elif isinstance(value, (set, frozenset)):
        members = sorted(canon_bytes(item) for item in value)
        _chunk(b"S", struct.pack(">Q", len(members)), out)
        out.extend(members)
    elif isinstance(value, Mapping):
        items = sorted(
            (canon_bytes(k), canon_bytes(v)) for k, v in value.items()
        )
        _chunk(b"d", struct.pack(">Q", len(items)), out)
        for key, val in items:
            out.append(key)
            out.append(val)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        _chunk(b"D", f"{cls.__module__}.{cls.__qualname__}".encode(), out)
        fields = sorted(f.name for f in dataclasses.fields(value))
        _chunk(b"t", struct.pack(">Q", len(fields)), out)
        for name in fields:
            _canon(name, out)
            _canon(getattr(value, name), out)
    else:
        raise DigestError(
            f"no canonical encoding for {type(value).__name__}: {value!r}"
        )


def canon_bytes(value: object) -> bytes:
    """The canonical, process-independent byte encoding of ``value``."""
    out: list = []
    _canon(value, out)
    return b"".join(out)


def content_digest(*parts: object) -> str:
    """SHA-256 hex digest over the canonical encoding of ``parts``."""
    hasher = hashlib.sha256()
    hasher.update(KEY_SCHEMA.encode("ascii"))
    hasher.update(canon_bytes(tuple(parts)))
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# the key ingredients


def image_digest(image: Image) -> str:
    """Content digest of one assembled image.

    Covers everything the loader consumes: the full instruction tuple
    (opcode, operand shapes and values, source lines), data cells and
    extent, symbols, both relocation tables, basic-block leaders, and
    externs.  A one-instruction (or one-byte-of-data) change moves it.

    A warm-hit lookup must not re-serialize thousands of instructions
    per request, so the digest is memoized on the instance: an image is
    immutable (:mod:`repro.isa.image`), and ``EngineCache.image`` hands
    every request for one source the same instance.
    """
    cached = image.__dict__.get("_verdict_digest")
    if cached is not None:
        return cached
    digest = content_digest(
        "image",
        image.name,
        image.text,
        image.data,
        image.data_size,
        image.symbols,
        image.text_relocations,
        image.data_relocations,
        image.bb_leaders,
        image.externs,
    )
    object.__setattr__(image, "_verdict_digest", digest)
    return digest


def options_fingerprint(options: RunOptions) -> str:
    """Content digest of a frozen :class:`RunOptions`.

    Every field participates — policy, harrier config, engine toggles,
    fault profile + seed, budgets — *except* ``cache`` itself: enabling
    or disabling the cache must not change what a run computes, so it
    cannot change the key either.
    """
    cached = options.__dict__.get("_verdict_fingerprint")
    if cached is not None:
        return cached
    items = {
        f.name: getattr(options, f.name)
        for f in dataclasses.fields(options)
        if f.name != "cache"
    }
    digest = content_digest("options", items)
    # RunOptions is frozen too; memoized for the same warm-hit reason.
    object.__setattr__(options, "_verdict_fingerprint", digest)
    return digest


@dataclasses.dataclass(frozen=True)
class CacheEnv:
    """A declarative machine environment: seeded files and network peers.

    It is both halves of a run's environment at once: ``Session.run``
    builds the machine from it (:meth:`install`) and hashes it into the
    cache key, so the key and the machine cannot disagree.  The CLI's
    ``--file``/``--peer``/``--serve`` flags and serve submissions carry
    exactly this data.  An opaque ``setup`` closure, by contrast, makes
    a run uncacheable.
    """

    #: ``(path, content)`` pairs seeded into the simulated fs.
    files: Tuple[Tuple[str, str], ...] = ()
    #: ``("host:port", opening_payload)`` pairs; ``""`` payload means a
    #: plain data-sink peer (the ``--peer`` / ``--serve`` CLI split).
    peers: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def from_mappings(
        cls,
        files: Optional[Mapping[str, str]] = None,
        peers: Optional[Mapping[str, str]] = None,
    ) -> "CacheEnv":
        return cls(
            files=tuple(sorted((files or {}).items())),
            peers=tuple(sorted((peers or {}).items())),
        )

    def install(self, hth) -> None:
        """Seed the files into ``hth``'s filesystem and register the
        peers: a sink for payload ``""``, else a peer that pushes the
        payload on connect."""
        for path, content in self.files:
            hth.fs.write_text(path, content)
        for addr, payload in self.peers:
            host, _, port = addr.partition(":")
            if payload:
                factory = functools.partial(
                    ConversationPeer, host, opening=payload.encode()
                )
            else:
                factory = functools.partial(SinkPeer, host)
            hth.network.add_peer(host, int(port), factory)


_NO_ENV = CacheEnv()


def _all_str(values) -> bool:
    return all(type(value) is str for value in values)


def environment_digest(
    argv: Optional[Sequence[str]],
    env: Optional[Mapping[str, str]],
    stdin: Optional[Union[str, bytes]],
    cache_env: Optional[CacheEnv],
) -> str:
    """Digest of everything the guest observes besides its own image.

    A warm hit computes it on every request, so it is memoized by value
    in a bounded memo.  Only plain ``str`` arguments (and ``str``/
    ``bytes`` stdin) are memoized: values of other types can compare
    equal and still encode apart (``1 == True``), so those are digested
    every time.
    """
    argv_key = tuple(argv) if argv is not None else None
    if cache_env is None:
        cache_env = _NO_ENV
    key = None
    if (
        (argv_key is None or _all_str(argv_key))
        and (env is None or _all_str(env) and _all_str(env.values()))
        and (stdin is None or type(stdin) in (str, bytes))
        and all(_all_str(pair) for pair in cache_env.files)
        and all(_all_str(pair) for pair in cache_env.peers)
    ):
        key = (
            argv_key,
            tuple(sorted(env.items())) if env is not None else None,
            stdin,
            cache_env,
        )
        digest = _ENV_DIGEST_MEMO.get(key)
        if digest is not None:
            return digest
    digest = content_digest(
        "environment",
        argv_key,
        dict(env) if env is not None else None,
        stdin,
        cache_env,
    )
    if key is not None:
        _ENV_DIGEST_MEMO[key] = digest
        while len(_ENV_DIGEST_MEMO) > _ENV_MEMO_CAPACITY:
            _ENV_DIGEST_MEMO.popitem(last=False)
    return digest


# ---------------------------------------------------------------------------
# full keys


def run_key(
    image: Image,
    options: RunOptions,
    argv: Optional[Sequence[str]] = None,
    env: Optional[Mapping[str, str]] = None,
    stdin: Optional[Union[str, bytes]] = None,
    cache_env: Optional[CacheEnv] = None,
) -> str:
    """The verdict-cache key for one ``Session.run`` invocation."""
    return content_digest(
        "run",
        image_digest(image),
        options_fingerprint(options),
        environment_digest(argv, env, stdin, cache_env),
    )


def _setup_identity(workload) -> Optional[Tuple[str, str]]:
    if workload.setup is None:
        return None
    setup = workload.setup
    return (
        getattr(setup, "__module__", "") or "",
        getattr(setup, "__qualname__", repr(setup)),
    )


def workload_key(workload, options: RunOptions, engine=None) -> str:
    """The verdict-cache key for one registry :class:`Workload` run.

    The setup closure is pinned by registry identity (see module
    docstring); everything else is content-hashed, including the
    assembled image — so the same source registered under a different
    path/name, or with one patched instruction, keys differently.
    """
    return content_digest(
        "workload",
        workload.name,
        workload.description,
        image_digest(workload.image(engine=engine)),
        tuple(workload.extra_libraries),
        tuple(workload.argv) if workload.argv is not None else None,
        dict(workload.env),
        workload.stdin,
        workload.harrier_config,
        _setup_identity(workload),
        options_fingerprint(options),
    )


def submission_key(submission, engine) -> str:
    """The verdict-cache key for one serve :class:`Submission`.

    Registry submissions resolve their workload daemon-side (the same
    deterministic resolution a worker performs); inline submissions
    assemble through ``engine`` (an ``EngineCache``) and hash their
    declarative files/peers environment.
    """
    if submission.workload is not None:
        from repro.fleet.refs import WorkloadRef

        table, name = submission.workload
        workload = WorkloadRef.from_registry(table, name).resolve()
        return content_digest(
            "submission-workload",
            workload_key(workload, submission.options, engine=engine),
        )
    image = engine.image(submission.path, submission.source)
    return content_digest(
        "submission-source",
        run_key(
            image,
            submission.options,
            argv=submission.argv,
            stdin=submission.stdin,
            cache_env=CacheEnv.from_mappings(
                submission.files, submission.peers
            ),
        ),
    )
