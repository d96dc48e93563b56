"""ArkFS namespace semantics: mkdir/rmdir/create/unlink/readdir/stat/symlink.

All tests run through the full client stack (lease manager, metatables,
journals) on the zero-latency functional store.
"""

import pytest

from repro.posix import (
    AlreadyExists,
    DirectoryNotEmpty,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotFound,
    OpenFlags,
    TooManySymlinks,
)


class TestMkdir:
    def test_mkdir_and_stat(self, fs):
        fs.mkdir("/a", 0o750)
        st = fs.stat("/a")
        assert st.is_dir
        assert st.perm_bits & 0o777 == 0o750

    def test_nested(self, fs):
        fs.makedirs("/a/b/c")
        assert fs.stat("/a/b/c").is_dir

    def test_mkdir_existing_fails(self, fs):
        fs.mkdir("/a")
        with pytest.raises(AlreadyExists):
            fs.mkdir("/a")

    def test_mkdir_root_fails(self, fs):
        with pytest.raises(AlreadyExists):
            fs.mkdir("/")

    def test_mkdir_missing_parent_fails(self, fs):
        with pytest.raises(NotFound):
            fs.mkdir("/no/such/parent")

    def test_mkdir_under_file_fails(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(NotADirectory):
            fs.mkdir("/f/sub")

    def test_parent_nlink_tracks_subdirs(self, fs):
        fs.mkdir("/a")
        base = fs.stat("/a").st_nlink
        fs.mkdir("/a/x")
        fs.mkdir("/a/y")
        assert fs.stat("/a").st_nlink == base + 2

    def test_parent_mtime_updated(self, fs, sim):
        fs.mkdir("/a")
        t0 = fs.stat("/a").st_mtime
        sim.run(until=sim.now + 10)
        fs.mkdir("/a/b")
        assert fs.stat("/a").st_mtime > t0


class TestRmdir:
    def test_rmdir_empty(self, fs):
        fs.mkdir("/a")
        fs.rmdir("/a")
        assert not fs.exists("/a")

    def test_rmdir_nonempty_fails(self, fs):
        fs.makedirs("/a/b")
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/a")

    def test_rmdir_nonempty_with_file_fails(self, fs):
        fs.mkdir("/a")
        fs.write_file("/a/f", b"x")
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/a")

    def test_rmdir_file_fails(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(NotADirectory):
            fs.rmdir("/f")

    def test_rmdir_root_fails(self, fs):
        with pytest.raises(InvalidArgument):
            fs.rmdir("/")

    def test_rmdir_missing_fails(self, fs):
        with pytest.raises(NotFound):
            fs.rmdir("/ghost")

    def test_rmdir_dir_led_by_other_client(self, fs, fs2):
        """The child's leader must verify emptiness and surrender its lease."""
        fs.mkdir("/shared")
        fs2.readdir("/shared")  # fs2 becomes /shared's leader
        fs.rmdir("/shared")
        assert not fs.exists("/shared")

    def test_rmdir_nonempty_led_by_other_client(self, fs, fs2):
        fs.mkdir("/shared")
        fs2.write_file("/shared/f", b"x")  # fs2 leads /shared, non-empty
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/shared")

    def test_recreate_after_rmdir(self, fs):
        fs.mkdir("/a")
        fs.rmdir("/a")
        fs.mkdir("/a")
        assert fs.stat("/a").is_dir


class TestCreateUnlink:
    def test_create_excl(self, fs):
        fs.create("/f").close()
        with pytest.raises(AlreadyExists):
            fs.create("/f")

    def test_open_missing_without_creat(self, fs):
        with pytest.raises(NotFound):
            fs.open("/ghost", OpenFlags.O_RDONLY)

    def test_open_creat_on_existing_ok(self, fs):
        fs.write_file("/f", b"data")
        h = fs.open("/f", OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        assert h.read(10) == b"data"
        h.close()

    def test_open_trunc_clears(self, fs):
        fs.write_file("/f", b"old content")
        fs.open("/f", OpenFlags.O_WRONLY | OpenFlags.O_TRUNC).close()
        assert fs.stat("/f").st_size == 0
        assert fs.read_file("/f") == b""

    def test_open_directory_fails(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.open("/d", OpenFlags.O_RDONLY)

    def test_unlink(self, fs):
        fs.write_file("/f", b"x")
        fs.unlink("/f")
        assert not fs.exists("/f")
        with pytest.raises(NotFound):
            fs.unlink("/f")

    def test_unlink_directory_fails(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.unlink("/d")

    def test_unlink_removes_data_objects(self, fs, cluster, sim):
        fs.write_file("/big", b"z" * (3 * cluster.params.data_object_size),
                      do_fsync=True)
        ino = fs.stat("/big").st_ino
        fs.unlink("/big")
        sim.run(until=sim.now + 1)  # asynchronous purge drains
        assert cluster.store.sync_list(cluster.prt.key_data_prefix(ino)) == []

    def test_file_times_set_on_create(self, fs, sim):
        sim.run(until=5.0)
        fs.create("/f").close()
        st = fs.stat("/f")
        assert st.st_ctime >= 5.0
        assert st.st_mtime >= 5.0


class TestReaddirStat:
    def test_readdir_sorted(self, fs):
        fs.mkdir("/d")
        for n in ["zz", "aa", "mm"]:
            fs.write_file(f"/d/{n}", b"")
        assert fs.readdir("/d") == ["aa", "mm", "zz"]

    def test_readdir_root(self, fs):
        fs.mkdir("/x")
        assert "x" in fs.readdir("/")

    def test_readdir_empty(self, fs):
        fs.mkdir("/d")
        assert fs.readdir("/d") == []

    def test_readdir_of_file_fails(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(NotADirectory):
            fs.readdir("/f")

    def test_stat_root(self, fs):
        st = fs.stat("/")
        assert st.is_dir
        assert st.st_ino == 1

    def test_stat_missing(self, fs):
        with pytest.raises(NotFound):
            fs.stat("/ghost")

    def test_stat_through_file_component_fails(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(NotADirectory):
            fs.stat("/f/deeper")

    def test_stat_reflects_size_after_close(self, fs):
        h = fs.create("/f")
        h.write(b"12345")
        h.close()
        assert fs.stat("/f").st_size == 5

    def test_unique_inode_numbers(self, fs):
        fs.write_file("/a", b"")
        fs.write_file("/b", b"")
        assert fs.stat("/a").st_ino != fs.stat("/b").st_ino


class TestSymlinks:
    def test_create_and_readlink(self, fs):
        fs.mkdir("/target")
        fs.symlink("/target", "/link")
        assert fs.readlink("/link") == "/target"

    def test_lstat_vs_stat(self, fs):
        fs.mkdir("/target")
        fs.symlink("/target", "/link")
        assert fs.lstat("/link").is_symlink
        assert fs.stat("/link").is_dir

    def test_traversal_through_symlink(self, fs):
        fs.makedirs("/real/sub")
        fs.write_file("/real/sub/f", b"via-link")
        fs.symlink("/real", "/alias")
        assert fs.read_file("/alias/sub/f") == b"via-link"

    def test_relative_symlink(self, fs):
        fs.makedirs("/d/sub")
        fs.write_file("/d/sub/f", b"rel")
        fs.symlink("sub/f", "/d/lnk")
        assert fs.read_file("/d/lnk") == b"rel"

    def test_dangling_symlink(self, fs):
        fs.symlink("/nowhere", "/dangle")
        assert fs.lstat("/dangle").is_symlink
        with pytest.raises(NotFound):
            fs.stat("/dangle")

    def test_symlink_loop_detected(self, fs):
        fs.symlink("/b", "/a")
        fs.symlink("/a", "/b")
        with pytest.raises(TooManySymlinks):
            fs.stat("/a")

    def test_open_follows_symlink(self, fs):
        fs.write_file("/real.txt", b"real data")
        fs.symlink("/real.txt", "/ln.txt")
        assert fs.read_file("/ln.txt") == b"real data"

    def test_unlink_symlink_keeps_target(self, fs):
        fs.write_file("/real.txt", b"keep")
        fs.symlink("/real.txt", "/ln")
        fs.unlink("/ln")
        assert fs.read_file("/real.txt") == b"keep"

    def test_symlink_size_is_target_length(self, fs):
        fs.symlink("/four", "/l")
        assert fs.lstat("/l").st_size == 5


class TestMultiClient:
    def test_cross_client_visibility(self, fs, fs2):
        fs.mkdir("/shared")
        fs.write_file("/shared/f", b"from-c0")
        assert fs2.read_file("/shared/f") == b"from-c0"

    def test_create_in_remote_led_directory(self, fs, fs2):
        """Fig. 3(b): a non-leader forwards CREATE to the leader."""
        fs.mkdir("/led")
        fs.write_file("/led/by0", b"")  # fs (client0) leads /led
        fs2.write_file("/led/by1", b"two")  # forwarded to client0
        assert sorted(fs.readdir("/led")) == ["by0", "by1"]
        assert fs.read_file("/led/by1") == b"two"

    def test_both_clients_see_consistent_listing(self, fs, fs2):
        fs.mkdir("/d")
        fs.write_file("/d/a", b"")
        fs2.write_file("/d/b", b"")
        assert fs.readdir("/d") == fs2.readdir("/d") == ["a", "b"]

    def test_leader_is_recorded_at_manager(self, fs, cluster):
        fs.mkdir("/mine")
        fs.write_file("/mine/f", b"")
        dir_ino = fs.stat("/mine").st_ino
        assert cluster.lease_manager.holder_of(dir_ino) == "client0"

    def test_unlink_by_non_leader(self, fs, fs2):
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x")
        fs2.unlink("/d/f")
        assert not fs.exists("/d/f")


class TestStatFS:
    def test_statfs_reports_usage(self, fs, cluster):
        fs.write_file("/payload", b"q" * 10_000, do_fsync=True)
        st = fs.statfs()
        assert st.f_files >= 3          # root inode + file inode + dentry
        assert st.used_bytes >= 10_000
        assert st.free_bytes < st.total_bytes
        assert st.f_bsize == 4096

    def test_statfs_usage_shrinks_after_unlink(self, fs, cluster, sim):
        fs.write_file("/big", b"z" * 50_000, do_fsync=True)
        used_before = fs.statfs().used_bytes
        fs.unlink("/big")
        sim.run(until=sim.now + 3)  # purge + checkpoints drain
        assert fs.statfs().used_bytes < used_before

    def test_statfs_through_fuse_mount(self, cluster):
        from repro.posix import ROOT_CREDS

        st = cluster.sim.run_process(cluster.mount(0).statfs(ROOT_CREDS))
        assert st.total_bytes > 0
