"""Per-directory metadata tables: load path and local operations."""

import pytest

from repro.core import PRT, Metatable, RemoteTable, load_metatable
from repro.core.types import Dentry, Inode
from repro.objectstore import InMemoryObjectStore
from repro.posix import FileType, NotFound
from repro.sim import Simulator


def dir_inode(ino=100):
    return Inode(ino=ino, ftype=FileType.DIRECTORY, mode=0o755, uid=0, gid=0)


def file_inode(ino, size=0):
    return Inode(ino=ino, ftype=FileType.REGULAR, mode=0o644, uid=0, gid=0,
                 size=size)


class TestMetatable:
    def test_add_lookup_remove(self):
        mt = Metatable(dir_inode=dir_inode())
        d = Dentry("f", 7, FileType.REGULAR)
        mt.add(d, file_inode(7))
        assert mt.lookup("f") == d
        assert mt.child_inode(7).ino == 7
        assert mt.has("f")
        removed = mt.remove("f")
        assert removed == d
        assert not mt.has("f")
        with pytest.raises(NotFound):
            mt.lookup("f")
        with pytest.raises(NotFound):
            mt.child_inode(7)

    def test_remove_missing_raises(self):
        mt = Metatable(dir_inode=dir_inode())
        with pytest.raises(NotFound):
            mt.remove("ghost")

    def test_directory_children_have_no_inode_here(self):
        mt = Metatable(dir_inode=dir_inode())
        mt.add(Dentry("sub", 8, FileType.DIRECTORY), None)
        assert mt.has("sub")
        with pytest.raises(NotFound):
            mt.child_inode(8)

    def test_names_sorted_and_empty(self):
        mt = Metatable(dir_inode=dir_inode())
        assert mt.is_empty
        for n in ["c", "a", "b"]:
            mt.add(Dentry(n, hash(n) & 0xFFFF, FileType.REGULAR), None)
        assert mt.names() == ["a", "b", "c"]
        assert not mt.is_empty

    def test_dir_ino_property(self):
        mt = Metatable(dir_inode=dir_inode(123))
        assert mt.dir_ino == 123


class TestRemoteTable:
    def test_validity_window(self):
        rt = RemoteTable(5, "client3", expires_at=10.0)
        assert rt.valid(9.9)
        assert not rt.valid(10.0)
        assert rt.leader == "client3"


class TestLoadMetatable:
    def test_loads_dentries_and_file_inodes(self):
        sim = Simulator()
        prt = PRT(InMemoryObjectStore(sim), 1024)
        di = dir_inode(50)
        sim.run_process(prt.put_inode(di))
        sim.run_process(prt.put_dentry(50, Dentry("reg", 51, FileType.REGULAR)))
        sim.run_process(prt.put_inode(file_inode(51, size=9)))
        sim.run_process(prt.put_dentry(50, Dentry("sub", 52,
                                                  FileType.DIRECTORY)))
        sim.run_process(prt.put_inode(dir_inode(52)))
        link = Inode(ino=53, ftype=FileType.SYMLINK, mode=0o777, uid=0,
                     gid=0, symlink_target="/x")
        sim.run_process(prt.put_dentry(50, Dentry("ln", 53,
                                                  FileType.SYMLINK)))
        sim.run_process(prt.put_inode(link))

        mt = sim.run_process(load_metatable(prt, 50, None,
                                            lease_expires=5.0, epoch=2))
        assert mt.names() == ["ln", "reg", "sub"]
        assert mt.child_inode(51).size == 9
        assert mt.child_inode(53).symlink_target == "/x"
        # Subdirectory inodes stay in their own metatables.
        with pytest.raises(NotFound):
            mt.child_inode(52)
        assert mt.lease_expires == 5.0
        assert mt.epoch == 2
        # The loaded dir inode is a copy (mutations don't leak back).
        mt.dir_inode.mode = 0o000
        assert di.mode == 0o755

    def test_loads_empty_directory(self):
        sim = Simulator()
        prt = PRT(InMemoryObjectStore(sim), 1024)
        di = dir_inode(60)
        sim.run_process(prt.put_inode(di))
        mt = sim.run_process(load_metatable(prt, 60, None, 1.0, 1))
        assert mt.is_empty
