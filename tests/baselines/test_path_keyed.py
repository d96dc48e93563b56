"""S3FS and goofys share one path-keyed namespace; every verb's cost is pinned.

One op script runs on a timed S3 deployment of each baseline. After each op
the test pins its outcome (the result, or the exception's type name), the
simulated clock in ns and the store's request counts (get, put, delete,
head, list). A change to the shared namespace or to either data path that
moves any of them fails here. An op on a handle whose open failed pins
``KeyError``. The tests after the pins hold one regression per bug that the
shared verbs fixed.
"""

import zlib

import pytest

from repro.baselines import build_goofys, build_s3fs
from repro.posix import (
    Credentials,
    FileHandle,
    InvalidArgument,
    OpenFlags as F,
    ROOT_CREDS,
    StatResult,
    SyncFS,
)
from repro.sim import Simulator

USER = Credentials(1000, 1000)
NEW = F.O_CREAT | F.O_WRONLY | F.O_TRUNC
BLOB = bytes(range(256)) * 12


def opened(name, path, flags, mode=0o666):
    """An open that keeps its handle under ``name`` for later ops."""
    def op(c, h):
        h[name] = yield from c.open(USER, path, flags, mode)
        return h[name]
    return op


SCRIPT = [
    ("mkdir /d", lambda c, h: c.mkdir(USER, "/d", 0o750)),
    ("mkdir /d again", lambda c, h: c.mkdir(USER, "/d")),
    ("mkdir /", lambda c, h: c.mkdir(USER, "/")),
    ("stat /", lambda c, h: c.stat(USER, "/")),
    ("stat /d", lambda c, h: c.stat(USER, "/d")),
    ("lstat /d", lambda c, h: c.lstat(USER, "/d")),
    ("lookup / d", lambda c, h: c.lookup(USER, "/", "d")),
    ("lookup /d nope", lambda c, h: c.lookup(USER, "/d", "nope")),
    ("stat /nope", lambda c, h: c.stat(USER, "/nope")),
    ("readdir /", lambda c, h: c.readdir(USER, "/")),
    ("readdir /nope", lambda c, h: c.readdir(USER, "/nope")),
    ("rmdir /", lambda c, h: c.rmdir(USER, "/")),
    ("rmdir /nope", lambda c, h: c.rmdir(USER, "/nope")),
    ("unlink /d", lambda c, h: c.unlink(USER, "/d")),
    ("unlink /nope", lambda c, h: c.unlink(USER, "/nope")),
    ("access /d", lambda c, h: c.access(USER, "/d", 4)),
    ("access /nope", lambda c, h: c.access(USER, "/nope", 4)),
    ("open w /d/f", opened("w", "/d/f", NEW, 0o640)),
    ("write w", lambda c, h: c.write(h["w"], BLOB)),
    ("pwrite w", lambda c, h: c.write(h["w"], b"tail", len(BLOB))),
    ("fsync w", lambda c, h: c.fsync(h["w"])),
    ("close w", lambda c, h: c.close(h["w"])),
    ("stat /d/f", lambda c, h: c.stat(USER, "/d/f")),
    ("readdir /d", lambda c, h: c.readdir(USER, "/d")),
    ("open /d/f excl", lambda c, h: c.open(USER, "/d/f", NEW | F.O_EXCL)),
    ("open /d", lambda c, h: c.open(USER, "/d", F.O_RDONLY)),
    ("open /nope", lambda c, h: c.open(USER, "/nope", F.O_RDONLY)),
    ("readdir /d/f", lambda c, h: c.readdir(USER, "/d/f")),
    ("rmdir /d", lambda c, h: c.rmdir(USER, "/d")),
    ("rmdir /d/f", lambda c, h: c.rmdir(USER, "/d/f")),
    ("open r /d/f", opened("r", "/d/f", F.O_RDONLY)),
    ("read r", lambda c, h: c.read(h["r"], 1000)),
    ("pread r", lambda c, h: c.read(h["r"], 100, 3000)),
    ("read r rest", lambda c, h: c.read(h["r"], 10_000)),
    ("read r eof", lambda c, h: c.read(h["r"], 10)),
    ("close r", lambda c, h: c.close(h["r"])),
    ("open a /d/f", opened("a", "/d/f", F.O_WRONLY | F.O_APPEND)),
    ("write a", lambda c, h: c.write(h["a"], b"more")),
    ("close a", lambda c, h: c.close(h["a"])),
    ("chmod /d/f", lambda c, h: c.chmod(USER, "/d/f", 0o600)),
    ("chown /d/f", lambda c, h: c.chown(ROOT_CREDS, "/d/f", 7, 8)),
    ("utimens /d/f", lambda c, h: c.utimens(USER, "/d/f", 1.0, 2.0)),
    ("chmod /d", lambda c, h: c.chmod(USER, "/d", 0o700)),
    ("chmod /nope", lambda c, h: c.chmod(USER, "/nope", 0o700)),
    ("stat /d/f attrs", lambda c, h: c.stat(USER, "/d/f")),
    ("stat /d attrs", lambda c, h: c.stat(USER, "/d")),
    ("getfacl /d/f", lambda c, h: c.getfacl(USER, "/d/f")),
    ("setfacl /d/f", lambda c, h: c.setfacl(USER, "/d/f", None)),
    ("statfs", lambda c, h: c.statfs(USER)),
    ("symlink /ln", lambda c, h: c.symlink(USER, "/d/f", "/ln")),
    ("readlink /ln", lambda c, h: c.readlink(USER, "/ln")),
    ("open /ln", lambda c, h: c.open(USER, "/ln", F.O_RDONLY)),
    ("readlink /d/f", lambda c, h: c.readlink(USER, "/d/f")),
    ("truncate /d/f 10", lambda c, h: c.truncate(USER, "/d/f", 10)),
    ("truncate /d/f 0", lambda c, h: c.truncate(USER, "/d/f", 0)),
    ("rename /d/f /d/g", lambda c, h: c.rename(USER, "/d/f", "/d/g")),
    ("rename /nope", lambda c, h: c.rename(USER, "/nope", "/x")),
    ("mkdir /d/sub", lambda c, h: c.mkdir(USER, "/d/sub")),
    ("open s /d/sub/x", opened("s", "/d/sub/x", NEW)),
    ("write s", lambda c, h: c.write(h["s"], BLOB[:2048])),
    ("close s", lambda c, h: c.close(h["s"])),
    ("rename /d /e", lambda c, h: c.rename(USER, "/d", "/e")),
    ("readdir /e", lambda c, h: c.readdir(USER, "/e")),
    ("readdir /e/sub", lambda c, h: c.readdir(USER, "/e/sub")),
    ("unlink /e/g", lambda c, h: c.unlink(USER, "/e/g")),
    ("unlink /e/sub/x", lambda c, h: c.unlink(USER, "/e/sub/x")),
    ("rmdir /e/sub", lambda c, h: c.rmdir(USER, "/e/sub")),
    ("rmdir /e", lambda c, h: c.rmdir(USER, "/e")),
    ("unlink /d/g", lambda c, h: c.unlink(USER, "/d/g")),
    ("unlink /d/sub/x", lambda c, h: c.unlink(USER, "/d/sub/x")),
    ("rmdir /d/sub", lambda c, h: c.rmdir(USER, "/d/sub")),
    ("rmdir /d", lambda c, h: c.rmdir(USER, "/d")),
    ("unlink /ln", lambda c, h: c.unlink(USER, "/ln")),
    ("sync", lambda c, h: c.sync()),
    ("drop_caches", lambda c, h: c.drop_caches()),
    ("readdir / end", lambda c, h: c.readdir(USER, "/")),
]


def outcome(value):
    if isinstance(value, StatResult):
        return (oct(value.st_mode), value.st_size, value.st_uid,
                value.st_gid, round(value.st_mtime * 1e9))
    if isinstance(value, FileHandle):
        return ("handle", value.pos)
    if isinstance(value, bytes):
        return (len(value), zlib.crc32(value))
    return value


def run_script(build):
    """``(label, outcome, sim ns, store op counts)`` after each op."""
    sim = Simulator()
    cluster = build(sim)
    client, counts = cluster.client(0), cluster.store.backing.op_counts
    handles, rows = {}, []
    for label, op in SCRIPT:
        try:
            got = outcome(sim.run_process(op(client, handles)))
        except Exception as exc:  # noqa: BLE001 - the type is the pin
            got = type(exc).__name__
        rows.append((label, got, round(sim.now * 1e9),
                     tuple(counts.values())))
    return rows


# Recorded before S3FS and goofys shared their namespace verbs.
PINS = {
    "s3fs": [
        ("mkdir /d", None, 26058000, (0, 1, 0, 0, 0)),
        ("mkdir /d again", "AlreadyExists", 35066000, (0, 1, 0, 1, 0)),
        ("mkdir /", "AlreadyExists", 35074000, (0, 1, 0, 1, 0)),
        ("stat /", ("0o40777", 0, 0, 0, 35082000), 35082000, (0, 1, 0, 1, 0)),
        ("stat /d", ("0o40750", 0, 1000, 1000, 26058000),
         44090000, (0, 1, 0, 2, 0)),
        ("lstat /d", ("0o40750", 0, 1000, 1000, 26058000),
         53098000, (0, 1, 0, 3, 0)),
        ("lookup / d", ("0o40750", 0, 1000, 1000, 26058000),
         62106000, (0, 1, 0, 4, 0)),
        ("lookup /d nope", "NotFound", 62114000, (0, 1, 0, 4, 0)),
        ("stat /nope", "NotFound", 62122000, (0, 1, 0, 4, 0)),
        ("readdir /", ["d"], 102130000, (0, 1, 0, 4, 1)),
        ("readdir /nope", "NotFound", 102138000, (0, 1, 0, 4, 1)),
        ("rmdir /", "InvalidArgument", 102146000, (0, 1, 0, 4, 1)),
        ("rmdir /nope", "NotFound", 102154000, (0, 1, 0, 4, 1)),
        ("unlink /d", "IsADirectory", 111162000, (0, 1, 0, 5, 1)),
        ("unlink /nope", "NotFound", 111170000, (0, 1, 0, 5, 1)),
        ("access /d", True, 120178000, (0, 1, 0, 6, 1)),
        ("access /nope", "NotFound", 120186000, (0, 1, 0, 6, 1)),
        ("open w /d/f", ("handle", 0), 146244000, (0, 2, 0, 6, 1)),
        ("write w", 3072, 147259360, (0, 2, 0, 6, 1)),
        ("pwrite w", 4, 148259380, (0, 2, 0, 6, 1)),
        ("fsync w", None, 175359963, (0, 3, 0, 6, 1)),
        ("close w", None, 175359963, (0, 3, 0, 6, 1)),
        ("stat /d/f", ("0o100640", 3076, 1000, 1000, 175359963),
         184367963, (0, 3, 0, 7, 1)),
        ("readdir /d", ["f"], 233375963, (0, 3, 0, 8, 2)),
        ("open /d/f excl", "AlreadyExists", 242383963, (0, 3, 0, 9, 2)),
        ("open /d", "IsADirectory", 251391963, (0, 3, 0, 10, 2)),
        ("open /nope", "NotFound", 251399963, (0, 3, 0, 10, 2)),
        ("readdir /d/f", "NotADirectory", 260407963, (0, 3, 0, 11, 2)),
        ("rmdir /d", "DirectoryNotEmpty", 309415963, (0, 3, 0, 12, 3)),
        ("rmdir /d/f", "NotADirectory", 318423963, (0, 3, 0, 13, 3)),
        ("open r /d/f", ("handle", 0), 327431963, (0, 3, 0, 14, 3)),
        ("read r", (1000, 1961098049), 328436963, (0, 3, 0, 14, 3)),
        ("pread r", (76, 1253188310), 329437343, (0, 3, 0, 14, 3)),
        ("read r rest", (2076, 2080032185), 330447723, (0, 3, 0, 14, 3)),
        ("read r eof", (0, 0), 331447723, (0, 3, 0, 14, 3)),
        ("close r", None, 331447723, (0, 3, 0, 14, 3)),
        ("open a /d/f", ("handle", 3076), 340455723, (0, 3, 0, 15, 3)),
        ("write a", 4, 341455743, (0, 3, 0, 15, 3)),
        ("close a", None, 368556392, (0, 4, 0, 15, 3)),
        ("chmod /d/f", None, 417734890, (1, 5, 0, 16, 3)),
        ("chown /d/f", None, 466913388, (2, 6, 0, 17, 3)),
        ("utimens /d/f", None, 516091885, (3, 7, 0, 18, 3)),
        ("chmod /d", None, 525099885, (3, 7, 0, 19, 3)),
        ("chmod /nope", "NotFound", 525107885, (3, 7, 0, 19, 3)),
        ("stat /d/f attrs", ("0o100600", 3080, 7, 8, 2000000000),
         534115885, (3, 7, 0, 20, 3)),
        ("stat /d attrs", ("0o40700", 0, 1000, 1000, 26058000),
         543123885, (3, 7, 0, 21, 3)),
        ("getfacl /d/f", "UnsupportedOperation", 543123885, (3, 7, 0, 21, 3)),
        ("setfacl /d/f", "UnsupportedOperation", 543123885, (3, 7, 0, 21, 3)),
        ("statfs", "UnsupportedOperation", 543123885, (3, 7, 0, 21, 3)),
        ("symlink /ln", None, 569181931, (3, 8, 0, 21, 3)),
        ("readlink /ln", "/d/f", 578189931, (3, 8, 0, 22, 3)),
        ("open /ln", ("handle", 0), 596205931, (3, 8, 0, 24, 3)),
        ("readlink /d/f", "InvalidArgument", 596213931, (3, 8, 0, 24, 3)),
        ("truncate /d/f 10", None, 645357294, (4, 9, 0, 25, 3)),
        ("truncate /d/f 0", None, 694465409, (5, 10, 0, 26, 3)),
        ("rename /d/f /d/g", None, 753573409, (6, 11, 1, 27, 3)),
        ("rename /nope", "NotFound", 753581409, (6, 11, 1, 27, 3)),
        ("mkdir /d/sub", None, 779639409, (6, 12, 1, 27, 3)),
        ("open s /d/sub/x", ("handle", 0), 805697409, (6, 13, 1, 27, 3)),
        ("write s", 2048, 806707649, (6, 13, 1, 27, 3)),
        ("close s", None, 833791327, (6, 14, 1, 27, 3)),
        ("rename /d /e", None, 1083246204, (10, 18, 5, 28, 4)),
        ("readdir /e", ["g", "sub"], 1132254204, (10, 18, 5, 29, 5)),
        ("readdir /e/sub", ["x"], 1181262204, (10, 18, 5, 30, 6)),
        ("unlink /e/g", None, 1200270204, (10, 18, 6, 31, 6)),
        ("unlink /e/sub/x", None, 1219278204, (10, 18, 7, 32, 6)),
        ("rmdir /e/sub", None, 1278286204, (10, 18, 8, 33, 7)),
        ("rmdir /e", None, 1337294204, (10, 18, 9, 34, 8)),
        ("unlink /d/g", "NotFound", 1337302204, (10, 18, 9, 34, 8)),
        ("unlink /d/sub/x", "NotFound", 1337310204, (10, 18, 9, 34, 8)),
        ("rmdir /d/sub", "NotFound", 1337318204, (10, 18, 9, 34, 8)),
        ("rmdir /d", "NotFound", 1337326204, (10, 18, 9, 34, 8)),
        ("unlink /ln", None, 1356334204, (10, 18, 10, 35, 8)),
        ("sync", None, 1356334204, (10, 18, 10, 35, 8)),
        ("drop_caches", None, 1356334204, (10, 18, 10, 35, 8)),
        ("readdir / end", [], 1396342204, (10, 18, 10, 35, 9)),
    ],
    "goofys": [
        ("mkdir /d", None, 26055000, (0, 1, 0, 0, 0)),
        ("mkdir /d again", "AlreadyExists", 35060000, (0, 1, 0, 1, 0)),
        ("mkdir /", "AlreadyExists", 35065000, (0, 1, 0, 1, 0)),
        ("stat /", ("0o40755", 0, 0, 0, 35070000), 35070000, (0, 1, 0, 1, 0)),
        ("stat /d", ("0o40755", 0, 0, 0, 44075000), 44075000, (0, 1, 0, 2, 0)),
        ("lstat /d", ("0o40755", 0, 0, 0, 53080000),
         53080000, (0, 1, 0, 3, 0)),
        ("lookup / d", ("0o40755", 0, 0, 0, 62085000),
         62085000, (0, 1, 0, 4, 0)),
        ("lookup /d nope", "NotFound", 62090000, (0, 1, 0, 4, 0)),
        ("stat /nope", "NotFound", 62095000, (0, 1, 0, 4, 0)),
        ("readdir /", ["d"], 102100000, (0, 1, 0, 4, 1)),
        ("readdir /nope", "NotFound", 102105000, (0, 1, 0, 4, 1)),
        ("rmdir /", "InvalidArgument", 102110000, (0, 1, 0, 4, 1)),
        ("rmdir /nope", "NotFound", 102115000, (0, 1, 0, 4, 1)),
        ("unlink /d", "IsADirectory", 111120000, (0, 1, 0, 5, 1)),
        ("unlink /nope", "NotFound", 111125000, (0, 1, 0, 5, 1)),
        ("access /d", True, 120125000, (0, 1, 0, 6, 1)),
        ("access /nope", "NotFound", 120125000, (0, 1, 0, 6, 1)),
        ("open w /d/f", ("handle", 0), 120130000, (0, 1, 0, 6, 1)),
        ("write w", 3072, 120130000, (0, 1, 0, 6, 1)),
        ("pwrite w", 4, 120130000, (0, 1, 0, 6, 1)),
        ("fsync w", None, 155215203, (0, 2, 0, 7, 1)),
        ("close w", None, 155215203, (0, 2, 0, 7, 1)),
        ("stat /d/f", ("0o100644", 3076, 0, 0, 155215203),
         164220203, (0, 2, 0, 8, 1)),
        ("readdir /d", ["f"], 213225203, (0, 2, 0, 9, 2)),
        ("open /d/f excl", "AlreadyExists", 222230203, (0, 2, 0, 10, 2)),
        ("open /d", "IsADirectory", 231235203, (0, 2, 0, 11, 2)),
        ("open /nope", "NotFound", 231240203, (0, 2, 0, 11, 2)),
        ("readdir /d/f", "NotADirectory", 240245203, (0, 2, 0, 12, 2)),
        ("rmdir /d", "DirectoryNotEmpty", 289250203, (0, 2, 0, 13, 3)),
        ("rmdir /d/f", "NotADirectory", 298255203, (0, 2, 0, 14, 3)),
        ("open r /d/f", ("handle", 0), 307260203, (0, 2, 0, 15, 3)),
        ("read r", (1000, 1961098049), 321345406, (1, 2, 0, 15, 3)),
        ("pread r", (76, 1253188310), 321345406, (1, 2, 0, 15, 3)),
        ("read r rest", (2076, 2080032185), 321345406, (1, 2, 0, 15, 3)),
        ("read r eof", (0, 0), 321345406, (1, 2, 0, 15, 3)),
        ("close r", None, 321345406, (1, 2, 0, 15, 3)),
        ("open a /d/f", "UnsupportedOperation", 330350406, (1, 2, 0, 16, 3)),
        ("write a", "KeyError", 330350406, (1, 2, 0, 16, 3)),
        ("close a", "KeyError", 330350406, (1, 2, 0, 16, 3)),
        ("chmod /d/f", None, 330350406, (1, 2, 0, 16, 3)),
        ("chown /d/f", None, 330350406, (1, 2, 0, 16, 3)),
        ("utimens /d/f", None, 330350406, (1, 2, 0, 16, 3)),
        ("chmod /d", None, 330350406, (1, 2, 0, 16, 3)),
        ("chmod /nope", None, 330350406, (1, 2, 0, 16, 3)),
        ("stat /d/f attrs", ("0o100644", 3076, 0, 0, 155215203),
         339355406, (1, 2, 0, 17, 3)),
        ("stat /d attrs", ("0o40755", 0, 0, 0, 348360406),
         348360406, (1, 2, 0, 18, 3)),
        ("getfacl /d/f", "UnsupportedOperation", 348360406, (1, 2, 0, 18, 3)),
        ("setfacl /d/f", "UnsupportedOperation", 348360406, (1, 2, 0, 18, 3)),
        ("statfs", "UnsupportedOperation", 348360406, (1, 2, 0, 18, 3)),
        ("symlink /ln", "UnsupportedOperation", 348360406, (1, 2, 0, 18, 3)),
        ("readlink /ln", "UnsupportedOperation", 348360406, (1, 2, 0, 18, 3)),
        ("open /ln", "NotFound", 348365406, (1, 2, 0, 18, 3)),
        ("readlink /d/f", "UnsupportedOperation", 348365406, (1, 2, 0, 18, 3)),
        ("truncate /d/f 10", "UnsupportedOperation",
         348365406, (1, 2, 0, 18, 3)),
        ("truncate /d/f 0", None, 374415406, (1, 3, 0, 18, 3)),
        ("rename /d/f /d/g", None, 433520406, (2, 4, 1, 19, 3)),
        ("rename /nope", "NotFound", 433525406, (2, 4, 1, 19, 3)),
        ("mkdir /d/sub", None, 459580406, (2, 5, 1, 19, 3)),
        ("open s /d/sub/x", ("handle", 0), 459585406, (2, 5, 1, 19, 3)),
        ("write s", 2048, 459585406, (2, 5, 1, 19, 3)),
        ("close s", None, 494658844, (2, 6, 1, 20, 3)),
        ("rename /d /e", "UnsupportedOperation", 503663844, (2, 6, 1, 21, 3)),
        ("readdir /e", "NotFound", 503668844, (2, 6, 1, 21, 3)),
        ("readdir /e/sub", "NotFound", 503673844, (2, 6, 1, 21, 3)),
        ("unlink /e/g", "NotFound", 503678844, (2, 6, 1, 21, 3)),
        ("unlink /e/sub/x", "NotFound", 503683844, (2, 6, 1, 21, 3)),
        ("rmdir /e/sub", "NotFound", 503688844, (2, 6, 1, 21, 3)),
        ("rmdir /e", "NotFound", 503693844, (2, 6, 1, 21, 3)),
        ("unlink /d/g", None, 522698844, (2, 6, 2, 22, 3)),
        ("unlink /d/sub/x", None, 541703844, (2, 6, 3, 23, 3)),
        ("rmdir /d/sub", None, 600708844, (2, 6, 4, 24, 4)),
        ("rmdir /d", None, 659713844, (2, 6, 5, 25, 5)),
        ("unlink /ln", "NotFound", 659718844, (2, 6, 5, 25, 5)),
        ("sync", None, 659718844, (2, 6, 5, 25, 5)),
        ("drop_caches", None, 659718844, (2, 6, 5, 25, 5)),
        ("readdir / end", [], 699723844, (2, 6, 5, 25, 6)),
    ],
}


@pytest.mark.parametrize("name,build", [("s3fs", build_s3fs),
                                        ("goofys", build_goofys)])
def test_every_verb_keeps_its_outcome_and_cost(name, build):
    rows = run_script(build)
    for got, want in zip(rows, PINS[name]):
        assert got == want
    assert len(rows) == len(PINS[name])


# -- the bugs the shared verbs fixed -----------------------------------------


def mounted(build):
    cluster = build(Simulator(), functional=True)
    return cluster, SyncFS(cluster.client(0), ROOT_CREDS)


def test_s3fs_chmod_of_the_root_keeps_it_a_directory():
    _cluster, fs = mounted(build_s3fs)
    fs.chmod("/", 0o700)
    assert fs.stat("/").st_mode == 0o040700


def test_goofys_file_rename_moves_the_headers():
    cluster, fs = mounted(build_goofys)
    fs.write_file("/a", b"x", do_fsync=True)
    fs.rename("/a", "/b")
    assert fs.stat("/b").perm_bits == 0o644
    assert "a" not in cluster.bucket.attrs


def test_goofys_refuses_to_rename_a_file_under_itself():
    cluster, fs = mounted(build_goofys)
    fs.write_file("/a", b"x", do_fsync=True)
    with pytest.raises(InvalidArgument):
        fs.rename("/a", "/a/b")
    assert fs.read_file("/a") == b"x"
    assert "a/b" not in cluster.store


def test_s3fs_rename_carries_unflushed_writes():
    cluster, fs = mounted(build_s3fs)
    h = fs.open("/f", F.O_CREAT | F.O_WRONLY)
    h.write(b"staged")
    fs.rename("/f", "/g")
    assert fs.read_file("/g") == b"staged"
    h.close()
    assert "f" not in cluster.store


def test_s3fs_open_handle_reads_on_after_renames():
    cluster, fs = mounted(build_s3fs)
    fs.mkdir("/d")
    fs.write_file("/d/f", b"abcdef", do_fsync=True)
    h = fs.open("/d/f", F.O_RDONLY)
    assert h.read(3) == b"abc"
    fs.rename("/d/f", "/d/g")
    assert h.read(3) == b"def"
    fs.rename("/d", "/e")
    assert h.read(6, offset=0) == b"abcdef"
    h.close()
    assert fs.read_file("/e/g") == b"abcdef"
    assert "d/f" not in cluster.store
