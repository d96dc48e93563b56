"""POSIX access control: classic mode bits plus POSIX.1e ACLs.

The paper positions ACL support as a differentiator ("HPC users ... control
the accesses using per-directory or per-file access control lists", and DAOS
is criticized for lacking them), so this is a full implementation of the
POSIX.1e access-check algorithm: USER_OBJ / named USER / GROUP_OBJ / named
GROUP / MASK / OTHER, mask-capping, chmod interaction, and the text form
``getfacl`` prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from .errors import InvalidArgument
from .types import Credentials, R_OK, W_OK, X_OK

__all__ = ["Acl", "check_perm", "perm_str"]

# json.dumps(obj, separators=(",", ":")) without an encoder built per call.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _validate_perm(p: int) -> int:
    if not 0 <= p <= 7:
        raise InvalidArgument(str(p), "permission must be 0..7 (rwx bits)")
    return p


def perm_str(p: int) -> str:
    """``5`` → ``"r-x"``."""
    return ("r" if p & R_OK else "-") + ("w" if p & W_OK else "-") + (
        "x" if p & X_OK else "-"
    )


@dataclass
class Acl:
    """A POSIX.1e access ACL.

    ``user_obj``/``group_obj``/``other`` are the classic owner/group/other
    rwx triplets; ``named_users``/``named_groups`` are the extended entries;
    ``mask`` caps every entry except USER_OBJ and OTHER. An ACL with no
    extended entries and no mask is *minimal* and equivalent to mode bits.
    """

    user_obj: int
    group_obj: int
    other: int
    named_users: Dict[int, int] = field(default_factory=dict)
    named_groups: Dict[int, int] = field(default_factory=dict)
    mask: Optional[int] = None

    def __post_init__(self) -> None:
        for p in (self.user_obj, self.group_obj, self.other):
            _validate_perm(p)
        for p in self.named_users.values():
            _validate_perm(p)
        for p in self.named_groups.values():
            _validate_perm(p)
        if self.mask is not None:
            _validate_perm(self.mask)
        if self.is_extended and self.mask is None:
            # POSIX requires a mask whenever extended entries exist; compute
            # the union as setfacl does by default.
            self.mask = self._default_mask()

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_mode(cls, mode: int) -> "Acl":
        """Minimal ACL equivalent to the low nine mode bits."""
        return cls(
            user_obj=(mode >> 6) & 7,
            group_obj=(mode >> 3) & 7,
            other=mode & 7,
        )

    # -- properties -----------------------------------------------------------

    @property
    def is_extended(self) -> bool:
        return bool(self.named_users or self.named_groups)

    def _default_mask(self) -> int:
        m = self.group_obj
        for p in self.named_users.values():
            m |= p
        for p in self.named_groups.values():
            m |= p
        return m

    @property
    def effective_mask(self) -> int:
        return 7 if self.mask is None else self.mask

    def to_mode_bits(self) -> int:
        """The nine permission bits stat(2) reports for this ACL.

        When extended entries exist the group triplet shows the MASK, as the
        kernel does."""
        group_shown = self.mask if self.is_extended and self.mask is not None \
            else self.group_obj
        return (self.user_obj << 6) | (group_shown << 3) | self.other

    # -- mutation ----------------------------------------------------------------

    def apply_chmod(self, mode: int) -> None:
        """chmod(2) semantics: owner bits → USER_OBJ, other bits → OTHER, and
        group bits → MASK if extended else GROUP_OBJ."""
        self.user_obj = (mode >> 6) & 7
        self.other = mode & 7
        if self.is_extended:
            self.mask = (mode >> 3) & 7
        else:
            self.group_obj = (mode >> 3) & 7

    def set_user(self, uid: int, perm: int) -> None:
        """Add/replace a named-user entry, recalculating the mask as
        setfacl does by default (assign ``mask`` afterwards to override)."""
        self.named_users[uid] = _validate_perm(perm)
        self.mask = self._default_mask()

    def set_group(self, gid: int, perm: int) -> None:
        """Add/replace a named-group entry, recalculating the mask."""
        self.named_groups[gid] = _validate_perm(perm)
        self.mask = self._default_mask()

    def drop_user(self, uid: int) -> None:
        self.named_users.pop(uid, None)

    def drop_group(self, gid: int) -> None:
        self.named_groups.pop(gid, None)

    # -- the POSIX.1e access check ------------------------------------------------

    def check(self, creds: Credentials, want: int, owner_uid: int,
              owner_gid: int) -> bool:
        """The acl(5) access-check algorithm for permission bits ``want``."""
        if creds.is_root:
            # Root bypasses rw checks; needs at least one x bit for exec.
            if want & X_OK:
                any_x = (
                    (self.user_obj | self.group_obj | self.other) & X_OK
                ) or any((p & X_OK) for p in self.named_users.values()) or any(
                    (p & X_OK) for p in self.named_groups.values()
                )
                if not any_x:
                    return False
            return True
        mask = self.effective_mask
        if creds.uid == owner_uid:
            return (self.user_obj & want) == want
        if creds.uid in self.named_users:
            return (self.named_users[creds.uid] & mask & want) == want
        # Group class: grant if ANY matching group entry grants all bits.
        in_group_class = False
        if creds.in_group(owner_gid):
            in_group_class = True
            if (self.group_obj & mask & want) == want:
                return True
        for gid, perm in self.named_groups.items():
            if creds.in_group(gid):
                in_group_class = True
                if (perm & mask & want) == want:
                    return True
        if in_group_class:
            return False  # group class matched but denied: OTHER not consulted
        return (self.other & want) == want

    # -- serialization -------------------------------------------------------------

    def to_text(self) -> str:
        """getfacl-style short text form."""
        lines = [f"user::{perm_str(self.user_obj)}"]
        for uid in sorted(self.named_users):
            lines.append(f"user:{uid}:{perm_str(self.named_users[uid])}")
        lines.append(f"group::{perm_str(self.group_obj)}")
        for gid in sorted(self.named_groups):
            lines.append(f"group:{gid}:{perm_str(self.named_groups[gid])}")
        if self.mask is not None:
            lines.append(f"mask::{perm_str(self.mask)}")
        lines.append(f"other::{perm_str(self.other)}")
        return ",".join(lines)

    def to_dict(self) -> dict:
        return {
            "u": self.user_obj,
            "g": self.group_obj,
            "o": self.other,
            "nu": {str(k): v for k, v in self.named_users.items()},
            "ng": {str(k): v for k, v in self.named_groups.items()},
            "m": self.mask,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Acl":
        return cls(
            user_obj=d["u"],
            group_obj=d["g"],
            other=d["o"],
            named_users={int(k): v for k, v in d.get("nu", {}).items()},
            named_groups={int(k): v for k, v in d.get("ng", {}).items()},
            mask=d.get("m"),
        )

    def to_json(self) -> str:
        return _compact_json(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "Acl":
        return cls.from_dict(json.loads(s))

    def copy(self) -> "Acl":
        return Acl(
            user_obj=self.user_obj,
            group_obj=self.group_obj,
            other=self.other,
            named_users=dict(self.named_users),
            named_groups=dict(self.named_groups),
            mask=self.mask,
        )


def check_perm(
    acl: Optional[Acl],
    mode: int,
    uid: int,
    gid: int,
    creds: Credentials,
    want: int,
) -> bool:
    """Access check for an inode: its ACL if it has one, else mode bits.

    The mode-bit branch is :meth:`Acl.check` specialised to the minimal ACL
    ``Acl.from_mode(mode)`` (no named entries, no mask), decided without
    building one: this runs for every path component of every operation.
    """
    if acl is not None:
        return acl.check(creds, want, owner_uid=uid, owner_gid=gid)
    if creds.uid == 0:  # creds.is_root, without the property call
        # Root bypasses rw checks; needs at least one x bit for exec.
        return not (want & X_OK) or bool(mode & 0o111)
    if creds.uid == uid:
        perm = mode >> 6
    elif creds.in_group(gid):
        perm = mode >> 3  # group class matched: OTHER is not consulted
    else:
        perm = mode
    return (perm & 7 & want) == want
