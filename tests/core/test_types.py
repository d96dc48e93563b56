"""Inode/Dentry serialization and the UUID inode allocator."""

import json
import stat

import pytest
from hypothesis import given, strategies as st

from repro.core import Dentry, Inode, InoAllocator, ROOT_INO, ino_hex
from repro.core.journal import Transaction, ops_put_dentry, ops_put_inode
from repro.posix import Acl, FileType


def test_ino_hex_fixed_width():
    assert len(ino_hex(1)) == 32
    assert len(ino_hex((1 << 128) - 1)) == 32
    assert ino_hex(255) == "0" * 30 + "ff"


def test_allocator_is_deterministic():
    a, b = InoAllocator(seed=42), InoAllocator(seed=42)
    assert [a.new() for _ in range(10)] == [b.new() for _ in range(10)]


def test_allocator_unique_and_avoids_root():
    alloc = InoAllocator(seed=0)
    seen = {alloc.new() for _ in range(1000)}
    assert len(seen) == 1000
    assert ROOT_INO not in seen
    assert 0 not in seen


def test_allocator_produces_128bit_values():
    alloc = InoAllocator(seed=1)
    assert any(alloc.new() > (1 << 64) for _ in range(10))


def test_inode_roundtrip():
    ino = Inode(ino=123456789, ftype=FileType.REGULAR, mode=0o640, uid=5,
                gid=6, size=42, nlink=1, atime=1.5, mtime=2.5, ctime=3.5)
    back = Inode.from_bytes(ino.to_bytes())
    assert back == ino


def test_inode_roundtrip_with_acl_and_symlink():
    acl = Acl.from_mode(0o750)
    acl.set_user(99, 5)
    ino = Inode(ino=7, ftype=FileType.SYMLINK, mode=0o777, uid=0, gid=0,
                symlink_target="/some/where", acl=acl)
    back = Inode.from_bytes(ino.to_bytes())
    assert back.symlink_target == "/some/where"
    assert back.acl == acl


def test_directory_nlink_starts_at_two():
    d = Inode(ino=9, ftype=FileType.DIRECTORY, mode=0o755, uid=0, gid=0)
    assert d.nlink == 2


def test_inode_stat_mode_bits():
    ino = Inode(ino=1, ftype=FileType.REGULAR, mode=0o4755, uid=1, gid=2,
                size=10)
    s = ino.stat()
    assert s.is_file and not s.is_dir
    assert s.perm_bits & 0o777 == 0o755
    assert s.st_mode & 0o4000  # setuid preserved
    assert s.st_size == 10


def test_inode_stat_shows_acl_mask_in_group_bits():
    acl = Acl.from_mode(0o770)
    acl.set_user(5, 7)
    acl.mask = 4
    ino = Inode(ino=1, ftype=FileType.REGULAR, mode=0o770, uid=1, gid=2,
                acl=acl)
    assert (ino.stat().perm_bits >> 3) & 7 == 4


def test_inode_copy_is_deep_for_acl():
    acl = Acl.from_mode(0o700)
    ino = Inode(ino=1, ftype=FileType.REGULAR, mode=0o700, uid=0, gid=0,
                acl=acl)
    cp = ino.copy()
    cp.acl.set_user(1, 7)
    assert not ino.acl.named_users


def test_dentry_roundtrip():
    d = Dentry(name="file.txt", ino=999, ftype=FileType.REGULAR)
    assert Dentry.from_bytes(d.to_bytes()) == d


@pytest.mark.parametrize("ftype, code, type_bits", [
    (FileType.REGULAR, "reg", stat.S_IFREG),
    (FileType.DIRECTORY, "dir", stat.S_IFDIR),
    (FileType.SYMLINK, "sym", stat.S_IFLNK),
])
def test_every_file_type_is_stored_as_before(ftype, code, type_bits):
    """The stored bytes are what ``json.dumps`` with compact separators
    wrote, the code is the member's value, and ``mode_bits`` is S_IF*."""
    assert ftype.value == code and FileType(code) is ftype
    assert ftype.mode_bits == type_bits
    acl = Acl.from_mode(0o750)
    acl.set_user(99, 5)
    inode = Inode(ino=7 << 100, ftype=ftype, mode=0o750, uid=3, gid=4,
                  size=5, atime=0.5, mtime=1.25, ctime=2.0, acl=acl,
                  symlink_target="/t" if ftype is FileType.SYMLINK else None)
    dentry = Dentry(name="né", ino=7 << 100, ftype=ftype)
    for obj in (inode, dentry):
        raw = obj.to_bytes()
        assert raw == json.dumps(obj.to_dict(), separators=(",", ":")).encode()
        assert json.loads(raw)["t"] == code
        back = type(obj).from_bytes(raw)
        assert back == obj and back.ftype is ftype
    assert stat.S_IFMT(inode.stat().st_mode) == type_bits


def test_journal_record_and_acl_text_are_compact_json():
    inode = Inode(ino=9, ftype=FileType.DIRECTORY, mode=0o755, uid=0, gid=0)
    dentry = Dentry(name="d", ino=9, ftype=FileType.DIRECTORY)
    txn = Transaction("t1", 1, "prepare",
                      [ops_put_inode(inode), ops_put_dentry(1, dentry)],
                      decision_key="x")
    d = {"txid": "t1", "dir": ino_hex(1), "kind": "prepare", "ops": txn.ops,
         "decision": "x"}
    assert txn.to_bytes() == json.dumps(d, separators=(",", ":")).encode()
    acl = Acl.from_mode(0o640)
    assert acl.to_json() == json.dumps(acl.to_dict(), separators=(",", ":"))


@given(ino=st.integers(1, (1 << 128) - 1), mode=st.integers(0, 0o7777),
       uid=st.integers(0, 1 << 31), size=st.integers(0, 1 << 50),
       t=st.sampled_from(list(FileType)))
def test_inode_roundtrip_property(ino, mode, uid, size, t):
    inode = Inode(ino=ino, ftype=t, mode=mode, uid=uid, gid=uid, size=size,
                  atime=0.25, mtime=0.5, ctime=0.125)
    assert Inode.from_bytes(inode.to_bytes()) == inode


@given(name=st.text(st.characters(blacklist_characters="/\x00",
                                  blacklist_categories=("Cs",)),
                    min_size=1, max_size=50),
       ino=st.integers(1, (1 << 128) - 1))
def test_dentry_roundtrip_property(name, ino):
    d = Dentry(name=name, ino=ino, ftype=FileType.DIRECTORY)
    assert Dentry.from_bytes(d.to_bytes()) == d
