"""Path handling shared by every file system in the repository.

All VFS entry points take absolute, ``/``-separated paths. Components are
validated the way a POSIX kernel would (no NUL, no ``/``, ≤255 bytes), and
``.``/``..`` are resolved lexically during normalization — matching what the
FUSE kernel driver hands a user-space file system, which never sees dot
entries in LOOKUP traffic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from .errors import InvalidArgument, NameTooLong

__all__ = [
    "NAME_MAX",
    "validate_name",
    "split_path",
    "normalize",
    "parent_and_name",
    "join",
    "is_ancestor",
]

NAME_MAX = 255

#: Distinct path strings whose parse is remembered (a few hundred KiB).
_PARSE_CACHE_SIZE = 4096


def validate_name(name: str) -> str:
    """Check a single path component; returns it unchanged."""
    if not name or name in (".", ".."):
        raise InvalidArgument(name, "invalid path component")
    if "/" in name or "\x00" in name:
        raise InvalidArgument(name, "component contains '/' or NUL")
    if len(name.encode("utf-8", "surrogateescape")) > NAME_MAX:
        raise NameTooLong(name)
    return name


def split_path(path: str) -> List[str]:
    """``"/a/b/c"`` → ``["a", "b", "c"]``; ``"/"`` → ``[]``.

    Requires an absolute path; resolves ``.`` and ``..`` lexically;
    validates every component. Returns a fresh list every call.
    """
    return list(_parse(path))


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse(path: str) -> Tuple[str, ...]:
    """The validated parse behind :func:`split_path`. One POSIX call
    parses the same string at every layer it crosses (FUSE walk,
    ``parent_and_name``, ``vfs.lookup``, the client's resolvers), so
    successful parses are memoised; a bad path raises on every call
    (``lru_cache`` does not keep exceptions)."""
    if not path or path[0] != "/":
        raise InvalidArgument(path, "path must be absolute")
    if "\x00" in path:
        raise InvalidArgument(path, "path contains NUL")
    parts: List[str] = []
    for comp in path.split("/"):
        if comp in ("", "."):
            continue
        if comp == "..":
            if parts:
                parts.pop()
            continue
        if len(comp.encode("utf-8", "surrogateescape")) > NAME_MAX:
            raise NameTooLong(comp)
        parts.append(comp)
    return tuple(parts)


def normalize(path: str) -> str:
    """Canonical form: ``"/a//b/./c/"`` → ``"/a/b/c"``."""
    return "/" + "/".join(split_path(path))


def parent_and_name(path: str) -> Tuple[str, str]:
    """``"/a/b/c"`` → ``("/a/b", "c")``. The root has no name to give."""
    parts = split_path(path)
    if not parts:
        raise InvalidArgument(path, "operation on the root directory")
    return "/" + "/".join(parts[:-1]), parts[-1]


def join(base: str, *names: str) -> str:
    """Join validated components onto an absolute base path."""
    parts = split_path(base)
    for name in names:
        validate_name(name)
        parts.append(name)
    return "/" + "/".join(parts)


def is_ancestor(ancestor: str, path: str) -> bool:
    """True if ``ancestor`` is a proper lexical ancestor of ``path``
    (used to reject ``rename("/a", "/a/b")``)."""
    a = split_path(ancestor)
    p = split_path(path)
    return len(a) < len(p) and p[: len(a)] == a
