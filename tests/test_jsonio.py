import io
import json
import math

import numpy as np
import pytest

from resdp import jsonio


class TestDumps:
    def test_float_17g_roundtrip(self):
        values = [1 / 3, 2 ** 0.5, 1e-300, 1.2599210498948732, -0.0, 5.0]
        text = jsonio.dumps({"v": values})
        parsed = json.loads(text)
        assert parsed["v"] == values

    def test_17_significant_digits(self):
        assert jsonio.dumps(1 / 3) == "0.33333333333333331"

    def test_nested_and_types(self):
        obj = {"a": [1, 2.5, True, None, "s"], "b": {"c": np.float64(0.1)},
               "d": np.int64(7), "e": np.bool_(False)}
        parsed = json.loads(jsonio.dumps(obj))
        assert parsed == {"a": [1, 2.5, True, None, "s"], "b": {"c": 0.1},
                          "d": 7, "e": False}

    def test_preserves_key_order(self):
        obj = {"z": 1, "a": 2, "m": 3}
        text = jsonio.dumps(obj)
        assert text.index('"z"') < text.index('"a"') < text.index('"m"')

    def test_indented_output_parses(self):
        obj = {"x": [1.5, {"y": []}], "z": 2}
        text = jsonio.dumps(obj, indent=2)
        assert "\n" in text
        assert json.loads(text) == obj

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            jsonio.dumps(math.inf)
        with pytest.raises(ValueError):
            jsonio.dumps({"x": math.nan})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            jsonio.dumps({"x": object()})
        with pytest.raises(TypeError):
            jsonio.dumps({1: "non-string key"})

    def test_ndarray_serialized_as_list(self):
        text = jsonio.dumps({"v": np.array([1.0, 2.0])})
        assert json.loads(text) == {"v": [1.0, 2.0]}

    def test_deterministic(self):
        obj = {"a": [0.1, 0.2, {"b": 3.3}]}
        assert jsonio.dumps(obj) == jsonio.dumps(obj)


class TestWriteRows:
    def test_records_cross_the_block_boundary(self):
        rows = np.random.default_rng(3).normal(size=(4097 + 5, 3)) * 1e7
        out = io.StringIO()
        jsonio.write_rows(out, rows, ",", "v ")
        want = "".join("v " + ",".join(format(float(x), ".17g") for x in row) + "\n"
                       for row in rows)
        assert out.getvalue() == want

    def test_custom_formatter_and_no_rows(self):
        # Integer arrays are written as integers, with no formatter argument.
        out = io.StringIO()
        jsonio.write_rows(out, np.array([[1, 2, 3], [40, 50, 60]]), " ", "f ")
        jsonio.write_rows(out, np.zeros((0, 3)), ",")
        assert out.getvalue() == "f 1 2 3\nf 40 50 60\n"

    def test_float_spec_matches_format_on_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
                 math.nan, -math.nan, 1 / 3, 1e16, 123456789012345680.0]
        values = edges + bits.view(np.float64).tolist()
        assert np.isnan(values[len(edges):]).any()
        assert [jsonio._FLOAT_SPEC % x for x in values] == [format(x, ".17g") for x in values]

    def test_int64_extremes_match_str(self):
        info = np.iinfo(np.int64)
        rows = np.array([[info.min, info.min + 1, -1], [0, 1, info.max]], dtype=np.int64)
        out = io.StringIO()
        jsonio.write_rows(out, rows, " ", "f ")
        assert out.getvalue() == "".join("f " + " ".join(str(i) for i in row) + "\n"
                                         for row in rows.tolist())

    def test_no_write_carries_more_than_one_block(self):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                assert text.count("\n") <= jsonio._BLOCK_ROWS
                self.writes.append(text)

        rows = np.random.default_rng(4).normal(size=(3 * jsonio._BLOCK_ROWS + 5, 3))
        out = Recorder()
        jsonio.write_rows(out, rows, ",")
        assert len(out.writes) == 4
        assert "".join(out.writes) == "".join(",".join(jsonio.format_float(x) for x in row)
                                              + "\n" for row in rows)

    def test_empty_array_writes_nothing(self):
        class NoWrites:
            def write(self, text):
                raise AssertionError(f"unexpected write {text!r}")

        for k in (1, 3):
            jsonio.write_rows(NoWrites(), np.zeros((0, k)), ",", "v ")
            jsonio.write_rows(NoWrites(), np.zeros((0, k), dtype=int), " ", "f ")

    @pytest.mark.parametrize("count", [1, jsonio._BLOCK_ROWS - 1, jsonio._BLOCK_ROWS,
                                       jsonio._BLOCK_ROWS + 1, 2 * jsonio._BLOCK_ROWS + 44])
    def test_one_column_matches_per_value_loop(self, count):
        values = np.random.default_rng(count).normal(size=(count, 1)) * 1e-5
        out = io.StringIO()
        jsonio.write_rows(out, values, ",", "v ")
        assert out.getvalue() == "".join("v " + jsonio.format_float(x) + "\n"
                                         for x in values[:, 0])
