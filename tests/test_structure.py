"""Structural rules: the shapes the simplifications left stay in place.

``RULES`` is one table. Each row is a check named by its ``step`` (most
were CI grep steps), ``pr`` the change that added it; its ``reason`` is
the step's comment. ``pattern`` is grep's, verbatim: extended syntax, or
basic with ``bre``, whole words with ``word``. A rule reads each line of
its ``paths`` (directories recursively, ``*.py`` only with ``py``), or of
one ``function`` (found with ``ast``). A matching ``path:line:text`` is
dropped if an ``allow`` pattern matches it (grep -v). ``forbid``: no line
matches; ``count``: ``n`` lines do; ``require``: one does. A missing path
or function fails the rule, so none goes blind when a file moves, and
each rule must catch its ``example``.
"""

import ast
import dataclasses
import functools
import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FORBID, COUNT, REQUIRE = "forbid", "count", "require"
C, S = "src/repro/core/", "src/repro/baselines/"


@dataclasses.dataclass(frozen=True)
class Rule:
    id: str
    pr: int
    kind: str
    pattern: str
    paths: str          # space-separated, from the repository root
    example: str
    allow: tuple = ()
    function: str = ""
    n: int = 0
    py: bool = False
    bre: bool = False
    word: bool = False
    step: str = ""
    reason: str = ""

    @functools.cached_property
    def regex(self):
        pat = self.pattern
        if self.bre:    # literals in grep -G, which groups with \( \)
            pat = re.sub(r"(?<!\\)([(){}|+?])", r"\\\1", pat)
        return re.compile(rf"(?<!\w)(?:{pat})(?!\w)" if self.word else pat,
                          re.M)


def _step(step, reason, *rules):
    return [dataclasses.replace(r, step=step, reason=reason) for r in rules]


RULES = [
    *_step("Store retry lives in one layer", "store retry is one ObjectStore layer (objectstore/retrying.py) above "
           "each fault shim; RetryPolicy.call is kept for lease RPCs only",
        Rule("retry-wrapper", 24, FORBID, r"retry\.call\(|\._call\(lambda", "src/repro", "self.retry.call(lambda: get(k))",
             py=True, allow=(r"src/repro/(objectstore/retrying|core/retry|core/client)\.py",)),
        Rule("retry-two-calls", 28, COUNT, r"retry\.call(", f"{C}client.py", "self.retry.call(op)", n=1, bre=True),
        Rule("retry-lease-rpc", 24, COUNT, r"retry\.call(", f"{C}client.py", "self.retry.call(op)", n=1, bre=True,
             function="ArkFSClient._mgr"),
        Rule("retry-plumbing", 24, FORBID, r"_retry\b|\bretry *[:=]|RetryPolicy", f"{C}prt.py {C}cache.py {C}journal.py "
             "src/repro/objectstore/tiered.py", "def f(self, retry=None):")),
    *_step("One performance record", "each benchmark asserts its own exact counters and the ledger records host "
           "time: no second perf record (the brackets keep the pattern from matching itself)",
        Rule("one-perf-record", 25, FORBID, r"perf_tren[d]|perf_baselin[e]|benchmark[.]pedanti[c]|extra_inf[o]|--benchmark[-]",
             "src tests benchmarks scripts .github", "import perf_" "trend")),
    *_step("One object per OSD request", "a queued OSD request is one ServiceHold, which "
           "ClusterObjectStore._service builds without being a generator itself",
        Rule("osd-request-object", 38, FORBID, "yield", "src/repro/objectstore/cluster.py", "yield from q.use(hold)",
             bre=True, function="ClusterObjectStore._service")),
    *_step("One definition of a queue hold", "sim/resources.py alone waits for and holds a queue: no "
           "hand-rolled hold",
        Rule("queue-hold", 21, FORBID, r"def _lock\(|def _acquire\(", "src/repro", "def _lock(self, res):")),
    *_step("One inline rule, in one module", "the inline rule and the queues it reads belong to sim/engine.py; "
           "other modules ask a Simulator method",
        Rule("scheduler-internals", 23, FORBID, r"sim\._(ready|heap|cb_pending)", "src/repro", "if sim._ready:",
             py=True, allow=("sim/engine.py",)),
        Rule("one-send", 23, COUNT, "gen.send", "src/repro/sim/engine.py", "ev = gen.send(v)", n=1, bre=True)),
    *_step("The collector policy lives in the kernel", "Simulator.run pauses the cyclic collector for its "
           "loop (DESIGN §10), and nothing else sets its policy",
        Rule("gc-policy", 39, FORBID, r"gc\.(disable|enable|freeze|set_threshold)\(", "src", "gc.freeze()", py=True,
             allow=(r"^src/repro/sim/engine\.py:",)),
        Rule("gc-pause", 39, REQUIRE, r"gc\.disable()", "src/repro/sim/engine.py", "gc.disable()", bre=True,
             function="Simulator.run")),
    *_step("Tracing state lives in the process", "tracing state is Process.tracer, layer spans are recorded "
           "from outside (LAYER_SPANS), and only the primitive sites open a span in code",
        Rule("tracer-state", 32, FORBID, r"_tracer\b|_sample_tracer|trace_on|_span\(|NULL_SPAN", "src/repro",
             "self._tracer = t", py=True, allow=("^src/repro/obs/",)),
        Rule("span-sites", 32, FORBID, r"\.span(", "src/repro", 'with tr.span("op", "vfs"):', py=True, bre=True,
             allow=(r"^src/repro/(obs/|sim/(resources|network)\.py|objectstore/cluster\.py|posix/fuse\.py|core/(cache|client)\.py|baselines/(mds|goofys)\.py)",))),
    *_step("One lease service, one way to stop leading", "the lease service is a fenced ring of >= 1 "
           "managers, and a client drops a metatable only in ArkFSClient._stop_leading",
        Rule("fenced-ring", 22, FORBID,
             r"cluster is None|fencing is (not )?None|token_of is (not )?None|_restarted|manager-restarted",
             "src/repro", "if self.fencing is None:"),
        Rule("one-metatable-drop", 22, COUNT, "metatables.pop", f"{C}client.py", "metatables.pop(d)", n=1, bre=True),
        Rule("drop-in-stop-leading", 22, COUNT, "metatables.pop", f"{C}client.py", "metatables.pop(d)", n=1,
             bre=True, function="ArkFSClient._stop_leading")),
    *_step("Shard state lives in one module", "sharding is ShardedClient, a client class build_arkfs picks "
           "once: no shard state in the plain client",
        Rule("shard-state", 27, FORBID,
             r"_split_busy|_shard_maps|_shard_home|_splitters|_dir_inflight|shard_ctx|\bpeers\b|from \.shards|roll_forward_split|make_ranges",
             f"{C}client.py {C}ops.py {C}datapath.py", "self._shard_maps = {}")),
    *_step("No packed small-file containers", "packing left whole: chunks live only as their own d "
           "objects, so no half of the extent index outlives the module",
        Rule("no-extent-index", 53, FORBID, r'pack_enabled|PackExtent|key_pack|key_extent_index|apply_extent_delta|"extents"',
             "src/repro", 'return {"op": "extents", "ino": ino_hex(ino)}')),
    *_step("No multi-tenant plane", "QoS left whole: every queue is FIFO, a hold carries no tenant or cost "
           "tag, and no client binds a tenant",
        Rule("no-qos", 56, FORBID, r"[Qq][Oo][Ss]|[Tt]enant|WFQ|wfq|_grantless_holds", "src/repro",
             "client.bind_tenant(t)")),
    *_step("One path-keyed namespace", "S3FS and goofys share PathKeyedClient and keep only their data "
           "paths; Bucket never asks for a store class",
        Rule("s3-namespace-verbs", 31, FORBID,
             r"def (_head|_stat_of|stat|lookup|mkdir|rmdir|readdir|unlink|getfacl|setfacl)\(",
             f"{S}s3fs.py {S}goofys.py", "def stat(self, creds, path):"),
        Rule("store-class-branch", 31, FORBID, r"isinstance\([^)]*Store\b", "src/repro/baselines",
             "if isinstance(st, MemoryStore):")),
    *_step("One leased data path", "ArkFS and CephFS/MarFS run LeasedDataPath: CephFS keeps only its hooks, "
           "and only LeasedDataPath._revoked flushes a holder's cache on a revocation",
        Rule("ceph-data-verbs", 36, FORBID, r"def (read|write|close|_check_handle|_ensure_caps|_revoke_caps)\(",
             f"{S}cephfs.py", "def read(self, h, off, n):"),
        Rule("revoke-all-caller", 36, FORBID, "_revoke_all(", "src/repro", "fleases._revoke_all(ino)", py=True,
             bre=True, allow=(r"^src/repro/core/filelease\.py:",)),
        Rule("one-revocation-handler", 46, FORBID, "flush_dirty=True", f"{C}client.py {S}cephfs.py",
             "drop(ino, flush_dirty=True)", bre=True),
        Rule("ceph-fsync", 46, FORBID, "def fsync(", f"{S}cephfs.py", "def fsync(self, creds, h):", bre=True)),
    *_step("One set of POSIX rules", "POSIX inode rules and the path rule live in core/inode_rules.py: only "
           "follow_symlink / up split a symlink target",
        Rule("inode-rules", 37, FORBID, r"check_perm\(|apply_umask\(|NotPermitted", f"{C}ops.py {S}namespace.py",
             "check_perm(i)"),
        Rule("symlink-split", 41, FORBID,
             r'_FINAL_HOPS|_expand_symlink|\.split\(.?/.?\)|split_path\([a-z_.]*target|"/" \+ target',
             f"{C}client.py {C}ops.py {S}namespace.py {S}cephfs.py", 'parts = target.split("/")')),
    *_step("One eviction loop", "the client cache evicts in _make_room alone, which counts resident "
           "entries only: a fetch takes its slot when its bytes land and makes room through it",
        Rule("one-eviction-loop", 50, COUNT, r"_c_evictions\.inc", f"{C}cache.py", "self._c_evictions.inc()", n=1)),
    *_step("One drain path", "the tier moves staged objects to cold through its one drain pool, "
           "whose drainers count each object they drain",
        Rule("one-drain-path", 52, COUNT, r"_c_drained_objects\.inc", "src/repro/objectstore/tiered.py",
             "self._c_drained_objects.inc(len(items))", n=1)),
    *_step("The model imports no numpy", "the package runs on the standard library "
           "(tests/workloads/test_imports.py checks it at run time)",
        Rule("no-numpy", 43, FORBID, r"^\s*(import|from) numpy", "src/repro", "import numpy as np")),
]


@functools.lru_cache(maxsize=None)
def _files(path, py):
    """``path``, or every file below it outside caches and egg-info."""
    if (ROOT / path).is_file():
        return (path,)
    found = []
    for top, dirs, names in os.walk(ROOT / path):
        dirs[:] = [d for d in dirs if not d.startswith(".")
                   and d != "__pycache__" and not d.endswith(".egg-info")]
        top = os.path.relpath(top, ROOT)
        found += [f"{top}/{n}" for n in names if not py or n.endswith(".py")]
    return tuple(found)


@functools.lru_cache(maxsize=None)
def _text(path, function=""):
    """``(first line number, text)`` of a file or a method, or ``None``."""
    try:
        text = (ROOT / path).read_text()
    except UnicodeDecodeError:      # a binary file
        return 1, ""
    if not function:
        return 1, text
    cls, name = function.split(".")
    for node in ast.parse(text).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and f.name == name:
                    lines = text.split("\n")[f.lineno - 1:f.end_lineno]
                    return f.lineno, "\n".join(lines)
    return None


def _keep(rule, hits):
    return [h for h in hits if not any(re.search(a, h) for a in rule.allow)]


@functools.lru_cache(maxsize=None)
def matches(rule):
    """Matching ``path:line:text`` lines, and what the rule names in vain."""
    hits, missing = [], []
    for path in rule.paths.split():
        if not (ROOT / path).exists():
            missing.append(f"{path}: no such file or directory")
            continue
        for f in _files(path, rule.py):
            found = _text(f, rule.function)
            if found is None:
                missing.append(f"{f}: no function {rule.function}")
            elif rule.regex.search(found[1]):   # then line by line
                hits += [f"{f}:{i}:{line}"
                         for i, line in enumerate(found[1].split("\n"),
                                                  found[0])
                         if rule.regex.search(line)]
    return tuple(_keep(rule, hits)), tuple(missing)


def failures(rule, hits):
    if rule.kind == COUNT and len(hits) != rule.n:
        return [f"{len(hits)} matching lines, not {rule.n}", *hits]
    if rule.kind == REQUIRE:
        return [] if hits else ["no line matches"]
    return list(hits) if rule.kind == FORBID else []


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.id)
def test_rule_holds(rule):
    hits, missing = matches(rule)
    assert missing == () and failures(rule, hits) == [], rule.reason


def test_every_rule_catches_its_example():
    """The example, added to the rule's first path, breaks a forbid or
    count rule; it alone meets a require rule, which nothing fails."""
    assert len({r.id for r in RULES}) == len(RULES) == 30
    blind = []
    for rule in RULES:
        path = rule.paths.split()[0]
        path += "" if path.endswith(".py") else "/example.py"
        example = _keep(rule, [f"{path}:1:{rule.example}"]
                        if rule.regex.search(rule.example) else [])
        if rule.kind == REQUIRE:
            caught = failures(rule, example) == [] and failures(rule, [])
        else:
            caught = failures(rule, [*matches(rule)[0], *example])
        if not (example and caught):
            blind.append(rule.id)
    assert blind == []


@pytest.mark.parametrize("paths, function", [
    (f"{C}no_such.py", ""),
    ("src/repro/sim/engine.py src/repro/no_such_dir", ""),
    ("src/repro/sim/engine.py", "Simulator.no_such")])
def test_a_rule_naming_what_is_missing_fails(paths, function):
    """grep exits 2 on a missing file, which ``if grep ...; then`` took as
    a pass even when another listed file held the violation."""
    rule = Rule("probe", 0, FORBID, "gen", paths, "", function=function)
    assert matches(rule)[1]
