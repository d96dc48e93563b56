"""File types and open flags: today's semantics, without enum.py on the op path."""

import enum
import itertools
import sys

import pytest

from repro.core import build_arkfs
from repro.posix import (
    BadFileHandle,
    Credentials,
    FuseMount,
    OpenFlags,
    PermissionDenied,
    ROOT_CREDS,
    SyncFS,
)
from repro.sim import Simulator

F = OpenFlags
EXTRAS = (F.O_CREAT, F.O_EXCL, F.O_TRUNC, F.O_APPEND)
#: open(2)'s access modes: 3 is neither readable nor writable.
READS = {0: True, 1: False, 2: True, 3: False}
WRITES = {0: False, 1: True, 2: True, 3: False}


def _every_flag_set():
    for accmode in range(4):
        for n in range(len(EXTRAS) + 1):
            for extras in itertools.combinations(EXTRAS, n):
                value = accmode
                for x in extras:
                    value |= x
                yield accmode, set(extras), OpenFlags(value)


def test_flag_tests_keep_their_truth_table():
    for accmode, extras, flags in _every_flag_set():
        assert flags.wants_read is READS[accmode], flags
        assert flags.wants_write is WRITES[accmode], flags
        assert flags.accmode == accmode
        for x in EXTRAS:
            assert bool(flags & x) is (x in extras), (flags, x)
            assert flags & x == (x if x in extras else 0)
            assert int(flags) & x == flags & x        # int & flag alike


def test_or_still_builds_open_flags():
    flags = F.O_CREAT | F.O_EXCL | F.O_WRONLY
    assert isinstance(flags, OpenFlags)
    assert flags.wants_write and not flags.wants_read


USER = Credentials(uid=1000, gid=1000)


@pytest.mark.parametrize("perm, opens", [
    (0o400, {0: True, 1: False, 2: False, 3: True}),
    (0o200, {0: False, 1: True, 2: False, 3: True}),
])
def test_open_checks_the_access_mode_it_asks_for(perm, opens):
    """The leader's permission check and the client's handle checks test
    the plain int of the flags: same truth table as the properties."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=1, functional=True)
    root = SyncFS(cluster.mounts[0], ROOT_CREDS)
    root.write_file("/f", b"abc")
    root.chown("/f", USER.uid, USER.gid)
    root.chmod("/f", perm)
    user = root.as_user(USER)
    for accmode, ok in opens.items():
        if not ok:
            with pytest.raises(PermissionDenied):
                user.open("/f", OpenFlags(accmode))
            continue
        f = user.open("/f", OpenFlags(accmode))
        if READS[accmode]:
            assert f.read(3, 0) == b"abc"
        else:
            with pytest.raises(BadFileHandle):
                f.read(3, 0)
        if WRITES[accmode]:
            assert f.write(b"xyz", 0) == 3
        else:
            with pytest.raises(BadFileHandle):
                f.write(b"xyz", 0)
        f.close()


def test_the_op_path_runs_no_enum_code():
    """Serialising file types and testing open flags costs no Python frame
    in enum.py: ``FileType(code)``, ``.value``, hashing a member and
    ``IntFlag.__and__`` each ran two to four on every op."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=1)
    mount = cluster.mounts[0]
    assert isinstance(mount, FuseMount)
    create_rw = F.O_CREAT | F.O_RDWR
    append = F.O_WRONLY | F.O_APPEND

    def ops():
        yield from mount.mkdir(ROOT_CREDS, "/d")
        h = yield from mount.open(ROOT_CREDS, "/d/f", create_rw)
        yield from mount.write(h, b"abc")
        assert (yield from mount.read(h, 3, 0)) == b"abc"
        yield from mount.close(h)
        h = yield from mount.open(ROOT_CREDS, "/d/f", append)
        yield from mount.write(h, b"de")
        yield from mount.close(h)
        mount.invalidate_dcache()
        cold = yield from mount.stat(ROOT_CREDS, "/d/f")
        cached = yield from mount.stat(ROOT_CREDS, "/d/f")
        assert cold.st_size == cached.st_size == 5 and cold.is_file
        yield from mount.unlink(ROOT_CREDS, "/d/f")

    ran = set()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            ran.add(frame.f_code.co_qualname)

    gen = ops()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        sim.run_process(gen)
    finally:
        sys.setprofile(previous)
    assert not ran, sorted(ran)
