"""Model-based property suite: ArkFS vs a trivial in-memory reference FS.

Random operation sequences (two clients, shared namespace) are applied
both to the full ArkFS stack and to a dict-based oracle, and
results/errors must agree. This is the strongest semantic check in the
suite: it exercises leases, forwarding, journaling and caching together.

Two generators feed the same checker:

* Hypothesis (``test_arkfs_agrees_with_oracle``) — shrinking finds the
  minimal counterexample; Hypothesis prints its own reproduction recipe
  (``@reproduce_failure`` / the falsifying example) on failure.
* A seeded ``random.Random`` stream (``test_seeded_random_sequences``)
  — longer sequences than Hypothesis can afford, parametrized over fixed
  seeds and overridable with ``REPRO_SEED=<int>``. Any failure message
  carries the seed, so a CI failure is replayable verbatim with
  ``REPRO_SEED=<seed> pytest tests/core/test_model_based.py -k seeded``.
"""

import os
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import build_arkfs, fsck
from repro.core.params import DEFAULT_PARAMS
from repro.posix import FSError, OpenFlags, ROOT_CREDS, SyncFS
from repro.sim import Simulator

from .test_flag_lattice import FLAGS, ROWS


DIRS = ["/d0", "/d1", "/d0/sub"]
FILES = ["f0", "f1", "f2"]
PLACES = ["/"] + DIRS

# Sharded-directory mode: a threshold of 3 makes every directory that ever
# holds three dentries split into hash-ranged sub-shards, so the same op
# sequences span the split (creates/lookups/renames/readdirs route across
# shard ranges) while the flat oracle stays oblivious — sharding must be
# semantically invisible.
SHARD_PARAMS = DEFAULT_PARAMS.with_(shards_enabled=True,
                                    shard_split_threshold=3,
                                    shard_fanout=4)

# Found by hypothesis: client 1's permission cache still maps /d0 to the
# directory client 0 removed, and its final stat('/d0') must resolve the
# new one. In the second, client 0 leads the old directory when client 1
# looks it up, so the removal is reported from the forwarded op.
STALE_DENTRY = [("mkdir", "/d0"), ("client", 1), ("read", ("/d0", "f0")),
                ("client", 0), ("rmdir", "/d0"), ("mkdir", "/d0")]
STALE_DENTRY_FORWARDED = [("mkdir", "/d0"), ("read", ("/d0", "f0")),
                          *STALE_DENTRY[1:]]


class Oracle:
    """Reference model: a dict of path -> bytes, set of dirs."""

    def __init__(self):
        self.dirs = {"/"}
        self.files = {}

    def parent_ok(self, path):
        parent = path.rsplit("/", 1)[0] or "/"
        return parent in self.dirs

    def mkdir(self, path):
        if path in self.dirs or path in self.files:
            return "EEXIST"
        if not self.parent_ok(path):
            return "ENOENT"
        self.dirs.add(path)
        return "ok"

    def rmdir(self, path):
        if path == "/":
            return "EINVAL"
        if path in self.files:
            return "ENOTDIR"
        if path not in self.dirs:
            return "ENOENT"
        if any(d != path and d.startswith(path + "/") for d in self.dirs) or \
           any(f.startswith(path + "/") for f in self.files):
            return "ENOTEMPTY"
        self.dirs.discard(path)
        return "ok"

    def create(self, path):
        """O_CREAT|O_EXCL: fails if anything is already at the path."""
        if path in self.dirs or path in self.files:
            return "EEXIST"
        if not self.parent_ok(path):
            return "ENOENT"
        self.files[path] = b""
        return "ok"

    def write(self, path, data):
        if path in self.dirs:
            return "EISDIR"
        if not self.parent_ok(path):
            return "ENOENT"
        self.files[path] = data
        return "ok"

    def read(self, path):
        if path in self.dirs:
            return "EISDIR"
        if path not in self.files:
            return "ENOENT"
        return self.files[path]

    def unlink(self, path):
        if path in self.dirs:
            return "EISDIR"
        if path not in self.files:
            return "ENOENT"
        del self.files[path]
        return "ok"

    def listdir(self, path):
        if path in self.files:
            return "ENOTDIR"
        if path not in self.dirs:
            return "ENOENT"
        prefix = path.rstrip("/") + "/"
        names = set()
        for p in list(self.dirs) + list(self.files):
            if p != path and p.startswith(prefix):
                names.add(p[len(prefix):].split("/")[0])
        return sorted(names)

    def rename(self, src, dst):
        if src == "/" or dst == "/" or dst.startswith(src + "/"):
            return "EINVAL"
        if src in self.files:
            if dst in self.dirs:
                return "EISDIR"
            if not self.parent_ok(dst):
                return "ENOENT"
            self.files[dst] = self.files.pop(src)
            return "ok"
        if src in self.dirs:
            if dst in self.files:
                return "ENOTDIR"
            if dst in self.dirs:
                if self.listdir(dst):
                    return "ENOTEMPTY"
                self.dirs.discard(dst)
            if not self.parent_ok(dst):
                return "ENOENT"
            # Move the whole subtree.
            self.dirs.discard(src)
            self.dirs.add(dst)
            for d in [d for d in self.dirs if d.startswith(src + "/")]:
                self.dirs.discard(d)
                self.dirs.add(dst + d[len(src):])
            for f in [f for f in self.files if f.startswith(src + "/")]:
                self.files[dst + f[len(src):]] = self.files.pop(f)
            return "ok"
        return "ENOENT"


op_st = st.one_of(
    st.tuples(st.just("mkdir"), st.sampled_from(DIRS)),
    st.tuples(st.just("rmdir"), st.sampled_from(DIRS)),
    st.tuples(st.just("create"),
              st.tuples(st.sampled_from(PLACES), st.sampled_from(FILES))),
    st.tuples(st.just("write"),
              st.tuples(st.sampled_from(PLACES), st.sampled_from(FILES),
                        st.binary(max_size=64))),
    st.tuples(st.just("read"),
              st.tuples(st.sampled_from(PLACES), st.sampled_from(FILES))),
    st.tuples(st.just("unlink"),
              st.tuples(st.sampled_from(PLACES), st.sampled_from(FILES))),
    st.tuples(st.just("listdir"), st.sampled_from(PLACES)),
    st.tuples(st.just("rename"),
              st.tuples(st.sampled_from(PLACES), st.sampled_from(FILES),
                        st.sampled_from(PLACES), st.sampled_from(FILES))),
    st.tuples(st.just("client"), st.integers(0, 1)),
)


def random_ops(rng, n):
    """The same op distribution as ``op_st``, drawn from a seeded PRNG."""
    ops = []
    for _ in range(n):
        kind = rng.choice(["mkdir", "rmdir", "create", "write", "write",
                           "read", "unlink", "listdir", "rename", "rename",
                           "client"])
        if kind in ("mkdir", "rmdir"):
            ops.append((kind, rng.choice(DIRS)))
        elif kind in ("create", "read", "unlink"):
            ops.append((kind, (rng.choice(PLACES), rng.choice(FILES))))
        elif kind == "write":
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            ops.append((kind, (rng.choice(PLACES), rng.choice(FILES), data)))
        elif kind == "listdir":
            ops.append((kind, rng.choice(PLACES)))
        elif kind == "rename":
            ops.append((kind, (rng.choice(PLACES), rng.choice(FILES),
                               rng.choice(PLACES), rng.choice(FILES))))
        else:
            ops.append((kind, rng.randrange(2)))
    return ops


def path_join(d, f):
    return (d.rstrip("/") + "/" + f)


def fs_result(fn, *args):
    """Run and normalize to ('ok', value) or the errno name."""
    import errno as errmod

    try:
        value = fn(*args)
        return ("ok", value)
    except FSError as e:
        return (errmod.errorcode[e.errno], None)


def fs_create(fs, path):
    """O_CREAT|O_EXCL create-and-close through the SyncFS view."""
    fs.open(path, OpenFlags.O_CREAT | OpenFlags.O_EXCL
            | OpenFlags.O_WRONLY).close()


def run_sequence(ops, params=DEFAULT_PARAMS):
    """Apply ``ops`` to a fresh 2-client cluster and the oracle in
    lockstep, asserting agreement per-op, on the final namespace from
    both clients, and from fsck. Returns the cluster (settled) so mode-
    specific tests can inspect the on-storage layout."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True, params=params)
    views = [SyncFS(cluster.client(0), ROOT_CREDS),
             SyncFS(cluster.client(1), ROOT_CREDS)]
    fs = views[0]
    oracle = Oracle()

    for op, arg in ops:
        if op == "client":
            fs = views[arg]
            continue
        if op == "mkdir":
            expect = oracle.mkdir(arg)
            code, _ = fs_result(fs.mkdir, arg)
            assert code == ("ok" if expect == "ok" else expect), (op, arg)
        elif op == "rmdir":
            expect = oracle.rmdir(arg)
            code, _ = fs_result(fs.rmdir, arg)
            assert code == ("ok" if expect == "ok" else expect), (op, arg)
        elif op == "create":
            d, f = arg
            path = path_join(d, f)
            expect = oracle.create(path)
            code, _ = fs_result(fs_create, fs, path)
            assert code == ("ok" if expect == "ok" else expect), (op, path)
        elif op == "write":
            d, f, data = arg
            path = path_join(d, f)
            expect = oracle.write(path, data)
            code, _ = fs_result(fs.write_file, path, data)
            assert code == ("ok" if expect == "ok" else expect), (op, path)
        elif op == "read":
            d, f = arg
            path = path_join(d, f)
            expect = oracle.read(path)
            code, value = fs_result(fs.read_file, path)
            if isinstance(expect, bytes):
                assert code == "ok" and value == expect, (op, path)
            else:
                assert code == expect, (op, path, code)
        elif op == "unlink":
            d, f = arg
            path = path_join(d, f)
            expect = oracle.unlink(path)
            code, _ = fs_result(fs.unlink, path)
            assert code == ("ok" if expect == "ok" else expect), (op, path)
        elif op == "listdir":
            expect = oracle.listdir(arg)
            code, value = fs_result(fs.readdir, arg)
            if isinstance(expect, list):
                assert code == "ok" and value == expect, (op, arg)
            else:
                assert code == expect, (op, arg, code)
        elif op == "rename":
            sd, sf, dd, df = arg
            src, dst = path_join(sd, sf), path_join(dd, df)
            expect = oracle.rename(src, dst)
            code, _ = fs_result(fs.rename, src, dst)
            if expect == "ok":
                assert code == "ok", (op, src, dst, code)
            else:
                assert code != "ok", (op, src, dst)

    # Final state agreement from both clients' perspectives.
    for view in views:
        for d in sorted(oracle.dirs):
            assert view.stat(d).is_dir, d
            assert view.readdir(d) == oracle.listdir(d), d
        for f, data in oracle.files.items():
            assert view.read_file(f) == data, f

    # The on-storage layout must also be structurally consistent.
    for client in cluster.clients:
        sim.run_process(client.sync())
    sim.run(until=sim.now + 3)
    report = sim.run_process(fsck(cluster.prt))
    assert report.clean, report.summary()
    return cluster


class RemovedDirListed(Exception):
    """Every earlier op agreed with the oracle, and a client listed a
    removed directory as empty instead of failing with ENOENT: ROADMAP
    1(vi), and nothing else."""


@pytest.mark.xfail(raises=RemovedDirListed, strict=True, reason=(
    "before the parent checkpoints a removed directory's del_inode, a "
    "stale pcache dentry lets a client acquire and load that directory "
    "(ROADMAP 1(vi))"))
def test_stale_dentry_does_not_reload_a_removed_directory():
    # [mkdir /d0; c1: read /d0/f0; c0: rmdir /d0; c1: listdir /d0]
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True)
    c0, c1 = (SyncFS(cluster.client(i), ROOT_CREDS) for i in (0, 1))
    c0.mkdir("/d0")
    assert fs_result(c1.read_file, "/d0/f0")[0] == "ENOENT"
    c0.rmdir("/d0")
    code, value = fs_result(c1.readdir, "/d0")
    if (code, value) == ("ok", []):
        raise RemovedDirListed("client 1 listed the removed /d0 as empty")
    assert code == "ENOENT"


class RemovedDirMkdirOk(Exception):
    """Every earlier op agreed with the oracle, and a client created a
    subdirectory inside a removed directory instead of failing with
    ENOENT: ROADMAP 1(vi)'s second path, and nothing else."""


@pytest.mark.xfail(raises=RemovedDirMkdirOk, strict=True, reason=(
    "the stale pcache dentry of ROADMAP 1(vi) also lets a client mkdir "
    "inside the removed directory"))
def test_stale_dentry_does_not_mkdir_in_a_removed_directory():
    # [mkdir /d0; c1: rmdir /d0/sub; c0: rmdir /d0; c1: mkdir /d0/sub]
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2, functional=True)
    c0, c1 = (SyncFS(cluster.client(i), ROOT_CREDS) for i in (0, 1))
    c0.mkdir("/d0")
    assert fs_result(c1.rmdir, "/d0/sub")[0] == "ENOENT"
    c0.rmdir("/d0")
    code, _ = fs_result(c1.mkdir, "/d0/sub")
    if code == "ok":
        raise RemovedDirMkdirOk("client 1 made /d0/sub in the removed /d0")
    assert code == "ENOENT"


def _split_happened(cluster) -> bool:
    """Did any directory actually split (a shard map exists on storage)?"""
    keys = cluster.sim.run_process(cluster.store.list("s"))
    return bool(keys)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(ops=st.lists(op_st, max_size=40))
@example(ops=STALE_DENTRY)
@example(ops=STALE_DENTRY_FORWARDED)
def test_arkfs_agrees_with_oracle(ops):
    run_sequence(ops)


DEFAULT_SEEDS = [1, 7, 42, 1337, 271828]


def _seeds():
    env = os.environ.get("REPRO_SEED")
    return [int(env)] if env else DEFAULT_SEEDS


@pytest.mark.parametrize("seed", _seeds())
def test_seeded_random_sequences(seed):
    """Longer random sequences than Hypothesis can afford, from a fixed
    seed. On failure the seed is in the parametrize id AND the message:
    replay with ``REPRO_SEED=<seed> pytest -k seeded_random``."""
    print(f"model-based sequence seed: REPRO_SEED={seed}")
    ops = random_ops(random.Random(seed), 120)
    try:
        run_sequence(ops)
    except AssertionError as e:
        e.add_note(f"replay with REPRO_SEED={seed} "
                   f"pytest tests/core/test_model_based.py -k seeded_random")
        raise


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(ops=st.lists(op_st, max_size=40))
@example(ops=STALE_DENTRY)
@example(ops=STALE_DENTRY_FORWARDED)
def test_arkfs_agrees_with_oracle_sharded(ops):
    """The same oracle agreement with directory sharding on and a split
    threshold low enough that any directory reaching three entries
    splits mid-sequence."""
    run_sequence(ops, params=SHARD_PARAMS)


@pytest.mark.parametrize("seed", _seeds())
def test_seeded_random_sequences_sharded(seed):
    """Seeded long sequences across directory splits: same flat oracle,
    sharding must be invisible. Replay any failure verbatim with
    ``REPRO_SEED=<seed> pytest -k seeded_random_sequences_sharded``."""
    print(f"model-based sharded sequence seed: REPRO_SEED={seed}")
    ops = random_ops(random.Random(seed), 120)
    try:
        cluster = run_sequence(ops, params=SHARD_PARAMS)
    except AssertionError as e:
        e.add_note(f"replay with REPRO_SEED={seed} pytest "
                   f"tests/core/test_model_based.py -k seeded_random_sequences_sharded")
        raise
    if not os.environ.get("REPRO_SEED"):
        # Every default seed's sequence is known to cross at least one
        # split — the mode must actually exercise sharded routing, not
        # vacuously pass below the threshold.
        assert _split_happened(cluster), \
            f"seed {seed} never split a directory"


# The flag lattice under the oracle: the composition smoke's row (both
# subsystems together) plus tier alone, which no other seeded mode runs. Its parameters, except a split threshold low enough
# for these small directories to split.
LATTICE_ROWS = [*ROWS, ("tier",)]


def _lattice_params(flags):
    params = DEFAULT_PARAMS
    for name in flags:
        params = params.with_(**FLAGS[name])
    if "shards" in flags:
        params = params.with_(shard_split_threshold=3)
    return params


@pytest.mark.parametrize("seed", _seeds()[:2])
@pytest.mark.parametrize("flags", LATTICE_ROWS, ids="+".join)
def test_seeded_random_sequences_flags(flags, seed):
    """Seeded long sequences with optional subsystems on together: the
    same flat oracle and fsck, so no combination may change semantics.
    Replay with ``REPRO_SEED=<seed> pytest -k "flags and <row>"``."""
    ops = random_ops(random.Random(seed), 120)
    try:
        run_sequence(ops, params=_lattice_params(flags))
    except AssertionError as e:
        e.add_note(f"replay with REPRO_SEED={seed} pytest "
                   f"tests/core/test_model_based.py -k 'flags and "
                   f"{'+'.join(flags)}'")
        raise
