"""RowStore: the id <-> row ribbon, free list and growable columns shared
by the sparse, dense and CLK candidate indexes."""

import numpy as np
import pytest

from repro.data.rowstore import RowStore


def store(capacity=2):
    return RowStore(capacity, vec=((3,), np.int8, 0),
                    scale=((), np.float32, 1.0), obj=((), object, None))


class TestRowStore:
    def test_rows_handed_out_in_order(self):
        rows = store(4)
        assert [rows.take(rid) for rid in "abc"] == [0, 1, 2]
        assert len(rows) == 3 and "b" in rows and "z" not in rows
        assert rows.rows == {"a": 0, "b": 1, "c": 2}
        assert rows.ids == ["a", "b", "c"]
        assert sorted(rows.live_rows().tolist()) == [0, 1, 2]

    def test_release_tombstones_and_resets(self):
        rows = store(4)
        row = rows.take("a")
        rows["vec"][row] = 7
        rows["scale"][row] = 0.5
        rows["obj"][row] = "payload"
        assert rows.release("a") == row
        assert rows.release("a") is None
        assert rows.ids[row] is None and "a" not in rows
        assert rows.free == [row]
        assert rows["vec"][row].tolist() == [0, 0, 0]
        assert rows["scale"][row] == 1.0 and rows["obj"][row] is None

    def test_free_rows_reused_lifo(self):
        rows = store(8)
        for rid in "abcd":
            rows.take(rid)
        rows.release("b")
        rows.release("d")
        assert rows.take("e") == 3
        assert rows.take("f") == 1
        assert rows.take("g") == 4      # free list empty: next unused row

    def test_growth_doubles_and_keeps_values(self):
        rows = store(2)
        for i, rid in enumerate("ab"):
            rows["vec"][rows.take(rid)] = i + 1
        rows.take("c")
        assert rows.capacity == 4
        assert rows["vec"].shape == (4, 3)
        assert rows["vec"][:2, 0].tolist() == [1, 2]
        assert rows["scale"][2:].tolist() == [1.0, 1.0]

    def test_take_live_id_refused(self):
        rows = store()
        rows.take("a")
        with pytest.raises(KeyError):
            rows.take("a")

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RowStore(0)
