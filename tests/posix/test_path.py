"""Path utilities: normalization, splitting, validation."""

import pytest
from hypothesis import given, strategies as st

from repro.posix import InvalidArgument, NameTooLong
from repro.posix.path import (
    _PARSE_CACHE_SIZE,
    _parse,
    is_ancestor,
    join,
    normalize,
    parent_and_name,
    split_path,
    validate_name,
)


class TestSplitPath:
    def test_basic(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]

    def test_root(self):
        assert split_path("/") == []

    def test_collapses_slashes(self):
        assert split_path("//a///b/") == ["a", "b"]

    def test_resolves_dot(self):
        assert split_path("/a/./b/.") == ["a", "b"]

    def test_resolves_dotdot(self):
        assert split_path("/a/b/../c") == ["a", "c"]

    def test_dotdot_above_root_clamps(self):
        assert split_path("/../../a") == ["a"]

    def test_relative_rejected(self):
        with pytest.raises(InvalidArgument):
            split_path("a/b")

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            split_path("")

    def test_nul_rejected(self):
        with pytest.raises(InvalidArgument):
            split_path("/a\x00b")

    def test_long_component_rejected(self):
        with pytest.raises(NameTooLong):
            split_path("/" + "x" * 256)

    def test_255_byte_component_ok(self):
        assert split_path("/" + "x" * 255) == ["x" * 255]

    def test_multibyte_length_counted_in_bytes(self):
        # 86 three-byte chars = 258 bytes > 255
        with pytest.raises(NameTooLong):
            split_path("/" + "あ" * 86)


class TestNormalize:
    def test_examples(self):
        assert normalize("/a//b/./c/") == "/a/b/c"
        assert normalize("/") == "/"
        assert normalize("/a/../b") == "/b"


class TestParentAndName:
    def test_basic(self):
        assert parent_and_name("/a/b/c") == ("/a/b", "c")

    def test_top_level(self):
        assert parent_and_name("/a") == ("/", "a")

    def test_root_rejected(self):
        with pytest.raises(InvalidArgument):
            parent_and_name("/")


class TestJoin:
    def test_basic(self):
        assert join("/a", "b", "c") == "/a/b/c"

    def test_root_base(self):
        assert join("/", "x") == "/x"

    def test_invalid_component(self):
        with pytest.raises(InvalidArgument):
            join("/a", "b/c")
        with pytest.raises(InvalidArgument):
            join("/a", "..")


class TestValidateName:
    @pytest.mark.parametrize("bad", ["", ".", "..", "a/b", "a\x00b"])
    def test_rejects(self, bad):
        with pytest.raises(InvalidArgument):
            validate_name(bad)

    def test_accepts_normal(self):
        assert validate_name("file.txt") == "file.txt"


class TestIsAncestor:
    def test_proper_ancestor(self):
        assert is_ancestor("/a", "/a/b")
        assert is_ancestor("/a", "/a/b/c")
        assert is_ancestor("/", "/a")

    def test_not_self(self):
        assert not is_ancestor("/a/b", "/a/b")

    def test_not_sibling(self):
        assert not is_ancestor("/a/b", "/a/bc")

    def test_not_reversed(self):
        assert not is_ancestor("/a/b", "/a")


# -- properties -----------------------------------------------------------

name_st = st.text(
    alphabet=st.characters(blacklist_characters="/\x00", blacklist_categories=("Cs",)),
    min_size=1, max_size=40,
).filter(lambda s: s not in (".", ".."))


@given(st.lists(name_st, min_size=0, max_size=6))
def test_normalize_is_idempotent(parts):
    p = "/" + "/".join(parts)
    n = normalize(p)
    assert normalize(n) == n


@given(st.lists(name_st, min_size=1, max_size=6))
def test_split_join_roundtrip(parts):
    p = join("/", *parts)
    assert split_path(p) == parts


@given(st.lists(name_st, min_size=1, max_size=6))
def test_parent_name_recompose(parts):
    p = "/" + "/".join(parts)
    parent, name = parent_and_name(p)
    assert join(parent, name) == normalize(p)


# -- the memoised parse ---------------------------------------------------

#: Paths as they arrive from outside: valid names, dot entries, empty
#: components (``//``), NUL, and components on both sides of NAME_MAX.
_raw_component = st.one_of(
    name_st,
    st.sampled_from(["", ".", "..", "a\x00b", "x" * 255, "x" * 256,
                     "あ" * 85, "あ" * 86]),
)
_raw_path = st.builds(
    lambda lead, comps: lead + "/".join(comps),
    st.sampled_from(["/", "", "//"]), st.lists(_raw_component, max_size=6))


def _outcome(fn, path):
    try:
        return list(fn(path))
    except (InvalidArgument, NameTooLong) as exc:
        return type(exc), exc.args


@given(_raw_path)
def test_split_path_equals_the_uncached_parse(path):
    """Cold, warm, and never-cached parses agree — on the result and on
    the error, which a bad path raises on *every* call."""
    expected = _outcome(_parse.__wrapped__, path)
    assert _outcome(split_path, path) == expected
    assert _outcome(split_path, path) == expected


def test_split_path_result_is_the_callers_to_mutate():
    first = split_path("/a/b/c")
    first.append("d")
    del first[0]
    assert split_path("/a/b/c") == ["a", "b", "c"]
    assert split_path("/a/b/c") is not split_path("/a/b/c")


def test_split_path_cache_is_bounded():
    for i in range(_PARSE_CACHE_SIZE + 50):
        split_path(f"/bounded/{i}")
    assert _parse.cache_info().currsize <= _PARSE_CACHE_SIZE
