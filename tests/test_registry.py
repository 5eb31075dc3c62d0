"""Tests for :mod:`repro.registry` — the one name table — and for the
seven live tables built on it."""

import pytest

from repro.cli import COMMAND_REGISTRY
from repro.core import decoders
from repro.core.scheme import PLACEMENT_REGISTRY
from repro.engine.spec import BACKEND_REGISTRY, SCHEME_REGISTRY
from repro.env import ENV_REGISTRY
from repro.exceptions import ConfigurationError
from repro.registry import Registry, did_you_mean
from repro.staticcheck import RULE_REGISTRY, StaticCheckError


class Oops(Exception):
    pass


@pytest.fixture
def fruit():
    registry = Registry("fruit", "fruits", Oops)
    registry.register("pear", 1, aliases=("poire",))
    registry.register("apple", 2, aliases=("pomme", "malus"))
    registry.register("fig", 3)
    return registry


class TestRegistry:
    def test_register_returns_the_value(self):
        registry = Registry("fruit", "fruits", Oops)
        assert registry.register("pear", 1) == 1

    def test_iteration_is_canonical_names_in_registration_order(self, fruit):
        assert list(fruit) == ["pear", "apple", "fig"]
        assert len(fruit) == 3
        assert list(fruit.values()) == [1, 2, 3]
        assert dict(fruit) == {"pear": 1, "apple": 2, "fig": 3}

    def test_every_spelling_resolves_to_the_entry(self, fruit):
        assert fruit.resolve("apple") == fruit.resolve("pomme") == 2
        assert fruit["malus"] == 2
        assert fruit.get("poire") == 1
        assert "poire" in fruit
        assert set(fruit.spellings()) == {
            "pear", "poire", "apple", "pomme", "malus", "fig",
        }

    def test_get_of_unknown_name_is_the_default(self, fruit):
        assert fruit.get("kiwi") is None
        assert fruit.get("kiwi", 0) == 0
        assert "kiwi" not in fruit

    def test_duplicate_name_rejected(self, fruit):
        with pytest.raises(Oops, match="fruit 'pear' already registered"):
            fruit.register("pear", 9)
        with pytest.raises(Oops, match="already registered"):
            fruit["pear"] = 9
        assert fruit["pear"] == 1

    def test_alias_cannot_hijack_a_canonical_name(self, fruit):
        with pytest.raises(Oops, match="fruit 'fig' already registered"):
            fruit.register("date", 9, aliases=("fig",))
        # Rejected before anything changed.
        assert fruit["fig"] == 3
        assert "date" not in fruit and list(fruit) == ["pear", "apple", "fig"]

    def test_name_cannot_hijack_an_alias(self, fruit):
        with pytest.raises(Oops, match="fruit 'pomme' already registered"):
            fruit.register("pomme", 9)
        assert fruit["pomme"] == 2

    def test_alias_cannot_hijack_an_alias(self, fruit):
        with pytest.raises(Oops, match="fruit 'poire' already registered"):
            fruit.register("quince", 9, aliases=("poire",))
        assert fruit["poire"] == 1 and "quince" not in fruit

    def test_spelling_repeated_within_one_registration_rejected(self):
        registry = Registry("fruit", "fruits", Oops)
        with pytest.raises(Oops, match="already registered"):
            registry.register("kiwi", 1, aliases=("kiwi",))
        assert len(registry) == 0

    @pytest.mark.parametrize("bad", [42, None, ("a",), ["a"]])
    def test_non_string_name_rejected(self, fruit, bad):
        with pytest.raises(Oops, match="fruit must be a string, got"):
            fruit.resolve(bad)
        with pytest.raises(Oops, match="fruit must be a string, got"):
            fruit.register(bad, 9)
        with pytest.raises(Oops, match="fruit must be a string, got"):
            fruit.register("kiwi", 9, aliases=(bad,))
        assert "kiwi" not in fruit

    def test_unknown_name_message_wording(self, fruit):
        with pytest.raises(Oops) as err:
            fruit.resolve("figg")
        assert str(err.value) == fruit.unknown_message("figg") == (
            "unknown fruit 'figg' — did you mean 'fig'? "
            "(registered fruits: apple, fig, pear)"
        )

    def test_hints_are_best_first_at_most_three_and_include_aliases(self):
        registry = Registry("word", "words", Oops)
        for name in ("abcd", "abce", "abcf", "abcg", "zzzz"):
            registry.register(name, name, aliases=(name.upper(),))
        registry.register("abxx", 0, aliases=("abcde",))
        # More than three spellings are close; the best three are
        # named, closest first, the alias 'abcde' among them — but only
        # canonical names are listed.
        assert registry.unknown_message("abcdx") == (
            "unknown word 'abcdx' — did you mean 'abcd' or 'abcde' or "
            "'abxx'? (registered words: abcd, abce, abcf, abcg, abxx, zzzz)"
        )

    def test_no_hint_when_nothing_is_close(self, fruit):
        assert fruit.unknown_message("zzzzzz") == (
            "unknown fruit 'zzzzzz' (registered fruits: apple, fig, pear)"
        )
        assert did_you_mean("zzzzzz", fruit.spellings()) == ""

    def test_delete_drops_the_aliases(self, fruit):
        del fruit["apple"]
        assert list(fruit) == ["pear", "fig"]
        for spelling in ("apple", "pomme", "malus"):
            assert spelling not in fruit
        # ... which frees every spelling for re-registration.
        fruit.register("pomme", 7, aliases=("apple",))
        assert fruit["apple"] == 7

    def test_pop_and_delete_take_canonical_names_only(self, fruit):
        assert fruit.pop("fig") == 3
        assert fruit.pop("fig", None) is None
        with pytest.raises(KeyError):
            del fruit["poire"]
        assert fruit["poire"] == 1


LIVE_TABLES = {
    "placement": (PLACEMENT_REGISTRY, ConfigurationError),
    "decoder": (decoders._REGISTRY, ConfigurationError),
    "scheme": (SCHEME_REGISTRY, ConfigurationError),
    "backend": (BACKEND_REGISTRY, ConfigurationError),
    **{
        f"env-{layer}": (table, ConfigurationError)
        for layer, table in ENV_REGISTRY.items()
    },
    "command": (COMMAND_REGISTRY, ValueError),
    "rule": (RULE_REGISTRY, StaticCheckError),
}


@pytest.mark.parametrize("table, error", LIVE_TABLES.values(), ids=LIVE_TABLES)
class TestLiveTables:
    def test_is_a_populated_registry(self, table, error):
        assert isinstance(table, Registry)
        assert len(table) > 0
        assert table.error is error

    def test_aliases_resolve_to_the_canonical_entry(self, table, error):
        for name, entry in table.items():
            assert table.resolve(name) is entry
        declared = [
            (alias, entry)
            for entry in table.values()
            for alias in getattr(entry, "aliases", ())
        ]
        assert len(declared) == len(table.spellings()) - len(table)
        for alias, entry in declared:
            assert table.resolve(alias) is entry

    def test_unknown_message_lists_every_canonical_name(self, table, error):
        message = table.unknown_message("no-such-name")
        listing = message[message.index("(registered "):]
        assert listing == (
            f"(registered {table.plural}: {', '.join(sorted(table))})"
        )
        with pytest.raises(error) as err:
            table.resolve("no-such-name")
        assert str(err.value) == message

    def test_claimed_spellings_and_non_strings_rejected(self, table, error):
        before = table.spellings()
        for spelling in before:
            with pytest.raises(error, match="already registered"):
                table.register(spelling, object())
            with pytest.raises(error, match="already registered"):
                table.register("no-such-name", object(), aliases=(spelling,))
        with pytest.raises(error, match="must be a string"):
            table.resolve(["no-such-name"])
        assert table.spellings() == before
