"""One path rule on three systems: symlinks, ``..`` and the final link.

Each row of ``ROWS`` is a tree, one verb and the outcome POSIX gives. Every
row runs on ArkFS, CephFS and MarFS, one functional cluster per system;
a row works under its own directory, so the rows share that cluster.

The setup is a ``;``-separated list, each path relative to the row's
directory: ``d a/b`` makes directories, ``f a/t`` a file, ``l TARGET
a/b/up`` a symlink and ``chmod 600 t`` sets a mode. An absolute
TARGET is taken under the row's directory.

An outcome is what the verb observed: the relative path of the file or
directory ``stat`` or ``open`` reached, a value, or the name of the error
raised. The rule itself is ``core/inode_rules.py``
(``follow_symlink``, ``up``, ``FOLLOWS_FINAL``); ``test_seeded_path_bugs``
breaks it two ways and requires the table to fail on ArkFS and on
CephFS/MarFS each time, so both walks are shown to read it.
"""

import sys

import pytest

from repro.baselines import build_cephfs, build_marfs
from repro.core import build_arkfs, inode_rules
from repro.posix import (Credentials, FSError, OpenFlags, R_OK, ROOT_CREDS,
                         SyncFS)
from repro.posix.acl import Acl
from repro.sim import Simulator

USER = Credentials(uid=1000, gid=1000)
BUILDS = {"arkfs": build_arkfs, "cephfs": build_cephfs, "marfs": build_marfs}


def chain(n: int) -> str:
    """``l0 -> /l1 -> ... -> /l{n-1} -> /f``: ``n`` final links in a row."""
    links = "; ".join(f"l /l{i + 1} l{i}" for i in range(n - 1))
    return f"f f; l /f l{n - 1}; {links}"


def stat_of(rel):
    return lambda fs, p: reached(fs, p, fs.stat(f"{p}/{rel}").st_ino)


def access_of(rel):
    return lambda fs, p: fs.as_user(USER).access(f"{p}/{rel}", R_OK)


def open_of(rel, flags=OpenFlags.O_RDONLY):
    def verb(fs, p):
        with fs.open(f"{p}/{rel}", flags) as f:
            return reached(fs, p, f.handle.ino)
    return verb


def then(act, look):
    """Run ``act`` on the row, then return what ``look`` observes."""
    def verb(fs, p):
        act(fs, p)
        return look(fs, p)
    return verb


def modes(fs, p):
    return oct(fs.lstat(f"{p}/l").st_mode), oct(fs.lstat(f"{p}/t").st_mode)


def owners(fs, p):
    return [(st.st_uid, st.st_gid)
            for st in (fs.lstat(f"{p}/l"), fs.lstat(f"{p}/t"))]


def mtimes(fs, p):
    return fs.lstat(f"{p}/l").st_mtime == 6.0, fs.lstat(f"{p}/t").st_mtime


def present(*rels):
    return lambda fs, p: tuple(fs.exists(f"{p}/{r}") for r in rels)


CREAT = OpenFlags.O_CREAT | OpenFlags.O_WRONLY
LINK = "f t; l /t l"          # a file and an absolute link to it

ROWS = [
    # 1(x): a relative target climbs with ``..`` from the link's directory.
    ("dotdot_stat", "d a/b; f a/t; l ../t a/b/up", stat_of("a/b/up"), "a/t"),
    ("dotdot_open", "d a/b; f a/t; l ../t a/b/up", open_of("a/b/up"), "a/t"),
    # ``..`` pops the resolved stack: /a/b is a link to /x/y.
    ("dotdot_after_dir_link", "d x/y; f x/t; d a; l /x/y a/b; l ../t x/y/up",
     stat_of("a/b/up"), "x/t"),
    ("dotdot_after_dir_link_open",
     "d x/y; f x/t; d a; l /x/y a/b; l ../t x/y/up",
     open_of("a/b/up"), "x/t"),
    # A target that ends in ``..`` names the link's grandparent.
    ("dotdot_final_stat", "d a/b; l .. a/b/l", stat_of("a/b/l"), "a"),
    ("dotdot_final_open", "d a/b; l .. a/b/l", open_of("a/b/l"),
     "IsADirectory"),
    # The root's ``..`` is the root.
    ("root_dotdot", "f t; l ../../../root_dotdot/t l", open_of("l"), "t"),
    # 1(xii): five final links are well inside one resolution's budget.
    ("chain5_stat", chain(5), stat_of("l0"), "f"),
    ("chain5_access", chain(5), access_of("l0"), True),
    ("chain5_open", chain(5), open_of("l0"), "f"),
    # One ELOOP budget of 40, as in Linux.
    ("chain40_stat", chain(40), stat_of("l0"), "f"),
    ("chain40_open", chain(40), open_of("l0"), "f"),
    ("chain41_stat", chain(41), stat_of("l0"), "TooManySymlinks"),
    ("chain41_open", chain(41), open_of("l0"), "TooManySymlinks"),
    ("loop", "l /y x; l /x y", stat_of("x"), "TooManySymlinks"),
    # 1(xiii): a final link's target may pass through a directory link.
    ("final_via_dir_link_stat", "d real; f real/f; l /real alias; l /alias/f l",
     stat_of("l"), "real/f"),
    ("final_via_dir_link_open", "d real; f real/f; l /real alias; l /alias/f l",
     open_of("l"), "real/f"),
    # 1(xiv): O_CREAT through a dangling link creates its target.
    ("creat_dangling", "l /nowhere dl", open_of("dl", CREAT), "nowhere"),
    ("creat_dangling_relative", "d d; d e; l ../d/new e/dl",
     open_of("e/dl", CREAT), "d/new"),
    ("creat_excl_on_link", "l /nowhere dl",
     open_of("dl", OpenFlags.O_CREAT | OpenFlags.O_EXCL | OpenFlags.O_WRONLY),
     "AlreadyExists"),
    # FOLLOWS_FINAL: these verbs act on a final link's target (1(xi)).
    ("follow_open", LINK, open_of("l"), "t"),
    ("follow_stat", LINK, stat_of("l"), "t"),
    ("follow_access", "f t; l /t l; chmod 600 t", access_of("l"), False),
    ("follow_getfacl", "f t; l /t l; chmod 640 t",
     lambda fs, p: fs.getfacl(f"{p}/l") == Acl.from_mode(0o640), True),
    ("follow_chmod", LINK, then(lambda fs, p: fs.chmod(f"{p}/l", 0o600), modes),
     ("0o120777", "0o100600")),
    ("follow_chown", LINK,
     then(lambda fs, p: fs.chown(f"{p}/l", 7, 8), owners), [(0, 0), (7, 8)]),
    ("follow_utimens", LINK,
     then(lambda fs, p: fs.utimens(f"{p}/l", 5.0, 6.0), mtimes), (False, 6.0)),
    ("follow_setfacl", LINK,
     then(lambda fs, p: fs.setfacl(f"{p}/l", Acl.from_mode(0o604)),
          lambda fs, p: fs.getfacl(f"{p}/t") == Acl.from_mode(0o604)), True),
    ("follow_truncate", "f long; l /long l",
     then(lambda fs, p: fs.truncate(f"{p}/l", 2),
          lambda fs, p: (fs.lstat(f"{p}/l").st_size == len(f"{p}/long"),
                         fs.stat(f"{p}/long").st_size)), (True, 2)),
    # The other verbs act on the link itself.
    ("nofollow_lstat", LINK, lambda fs, p: fs.lstat(f"{p}/l").is_symlink, True),
    ("nofollow_readlink", "f t; l t l", lambda fs, p: fs.readlink(f"{p}/l"),
     "t"),
    ("nofollow_unlink", LINK,
     then(lambda fs, p: fs.unlink(f"{p}/l"), present("l", "t")),
     (False, True)),
    ("nofollow_rename", LINK,
     then(lambda fs, p: fs.rename(f"{p}/l", f"{p}/l2"),
          lambda fs, p: (fs.lstat(f"{p}/l2").is_symlink, fs.exists(f"{p}/t"))),
     (True, True)),
    ("nofollow_mkdir", "l /nowhere l",
     lambda fs, p: fs.mkdir(f"{p}/l"), "AlreadyExists"),
]


def setup_row(fs: SyncFS, p: str, spec: str) -> None:
    """Build ``spec`` under the row's directory ``p``."""
    made = set()
    fs.mkdir(p)
    for step in filter(None, (s.strip() for s in spec.split(";"))):
        verb, *args = step.split()
        if verb == "d":
            parts = args[0].split("/")
            for i in range(1, len(parts) + 1):
                rel = "/".join(parts[:i])
                if rel not in made:
                    fs.mkdir(f"{p}/{rel}")
                    made.add(rel)
        elif verb == "f":
            fs.write_file(f"{p}/{args[0]}", b"data")
        elif verb == "l":
            target = p + args[0] if args[0].startswith("/") else args[0]
            fs.symlink(target, f"{p}/{args[1]}")
        else:                                       # chmod MODE PATH
            fs.chmod(f"{p}/{args[1]}", int(args[0], 8))


def reached(fs: SyncFS, p: str, ino: int, rel: str = ""):
    """The path of inode ``ino`` relative to the row's directory ``p``."""
    for name in fs.readdir(p + rel):
        path = f"{rel}/{name}"
        st = fs.lstat(p + path)
        if st.st_ino == ino:
            return path[1:]
        if st.is_dir:
            found = reached(fs, p, ino, path)
            if found:
                return found
    return None


def run_row(fs: SyncFS, row) -> object:
    name, spec, verb, _want = row
    p = "/" + name
    setup_row(fs, p, spec)
    try:
        return verb(fs, p)
    except FSError as err:
        return type(err).__name__


def table_outcomes(build) -> dict:
    """Run every row on one fresh cluster; the rows that miss POSIX."""
    fs = SyncFS(build(Simulator(), n_clients=1, functional=True).client(0),
                ROOT_CREDS)
    wrong = {}
    for row in ROWS:
        got = run_row(fs, row)
        if got != row[3]:
            wrong[row[0]] = got
    return wrong


@pytest.fixture(scope="module", params=list(BUILDS))
def system_fs(request):
    """One functional cluster per system, shared by the rows."""
    cluster = BUILDS[request.param](Simulator(), n_clients=1, functional=True)
    return SyncFS(cluster.client(0), ROOT_CREDS)


@pytest.mark.parametrize("row", ROWS, ids=[r[0] for r in ROWS])
def test_path_rule(system_fs, row):
    assert run_row(system_fs, row) == row[3]


_RULE = inode_rules.follow_symlink


def _lexical_dotdot(target, rest, stack, links):
    """The seeded bug: ``..`` in a target collapsed against the target's
    own components, as a lexical path split does."""
    parts, stack = _RULE(target, rest, stack, links)
    out = []
    for c in parts[:len(parts) - len(rest)]:
        if c == "..":
            if out:
                out.pop()
        else:
            out.append(c)
    return out + rest, stack


SEEDED = {
    "dotdot_lexical": ("follow_symlink", _lexical_dotdot,
                       {"dotdot_stat", "dotdot_after_dir_link"}),
    "setattr_acts_on_link": (
        "FOLLOWS_FINAL",
        inode_rules.FOLLOWS_FINAL - {"chmod", "chown", "utimens", "setfacl",
                                     "truncate"},
        {"follow_chmod", "follow_truncate"}),
}


@pytest.mark.parametrize("bug", list(SEEDED))
def test_seeded_path_bugs(bug, monkeypatch):
    """Break the one rule; the table must fail on ArkFS and on
    CephFS/MarFS. A crash sweep makes no symlink, so ``SEEDED_BUGS``
    cannot catch these: they live here."""
    attr, broken, must_fail = SEEDED[bug]
    original = getattr(inode_rules, attr)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro.")
                and getattr(mod, attr, None) is original):
            monkeypatch.setattr(mod, attr, broken)
    for system in BUILDS:
        wrong = table_outcomes(BUILDS[system])
        assert must_fail <= set(wrong), (system, wrong)
