"""Space accounting and the scheme contract."""

import enum

import pytest

from repro.routing.model import SizedTable, words_of


class TestWordsOf:
    def test_scalars(self):
        class Port(enum.IntEnum):
            UP = 7

        assert words_of(5) == 1
        assert words_of(2.5) == 1
        assert words_of("tag") == 1
        assert words_of(Port.UP) == 1
        assert words_of(("h", Port.UP)) == 2

    def test_none_and_bool_free(self):
        assert words_of(None) == 0
        assert words_of(True) == 0
        # True == 1 == 1.0, but a bool is a flag and costs nothing
        assert words_of((True, 1, 1.0)) == 2
        assert words_of({True: 1}) == 1
        assert words_of({1: True, 2: 3}) == 3

    def test_containers(self):
        assert words_of((1, 2, 3)) == 3
        assert words_of([1, (2, 3)]) == 3
        assert words_of(("h", [1, (2, None)], 3)) == 4
        assert words_of({1: 2, 3: (4, 5)}) == 5
        assert words_of(()) == 0

    def test_nested_none_free(self):
        assert words_of((1, None, 2)) == 2

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            words_of(object())

    def test_custom_words_protocol(self):
        class Thing:
            def words(self):
                return 7

        assert words_of(Thing()) == 7


class TestSizedTable:
    def test_put_get_has(self):
        t = SizedTable(0)
        t.put("cat", 1, (10, 20))
        assert t.get("cat", 1) == (10, 20)
        assert t.has("cat", 1)
        assert not t.has("cat", 2)
        assert t.get("missing", 1) is None
        assert t.get("cat", 9, default="x") == "x"

    def test_overwrite(self):
        t = SizedTable(0)
        t.put("cat", 1, 5)
        t.put("cat", 1, 6)
        assert t.get("cat", 1) == 6
        assert t.total_words() == 2  # key + value

    def test_words_by_category(self):
        t = SizedTable(0)
        t.put("a", 1, (2, 3))       # 1 + 2 = 3 words
        t.put("b", "k", [1, 2, 3])  # 1 + 3 = 4 words
        by_cat = t.words_by_category()
        assert by_cat == {"a": 3, "b": 4}
        assert t.total_words() == 7

    def test_categories_listing(self):
        t = SizedTable(3)
        t.put("x", 0, 0)
        t.put("y", 0, 0)
        assert set(t.categories()) == {"x", "y"}
        assert t.owner == 3

    def test_category_raw_access(self):
        t = SizedTable(0)
        t.put("c", 5, 50)
        assert t.category("c") == {5: 50}
        assert t.category("nope") == {}
