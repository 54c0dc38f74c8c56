import itertools

import pytest

from conftest import computable_with_zero_messages
from ratered.errors import ConfigError
from ratered.probability import ProductPmf
from ratered.target_functions import BUILTIN_NAMES, FunctionTable, builtin_table, load_table


class TestBuiltins:
    def test_min_equals_and(self):
        f_min = builtin_table("min", 3)
        f_and = builtin_table("and", 3)
        assert f_min.table == f_and.table

    def test_max_equals_or(self):
        assert builtin_table("max", 2).table == builtin_table("or", 2).table

    def test_parity(self):
        f = builtin_table("parity", 3)
        assert f((1, 1, 0)) == 0
        assert f((1, 0, 0)) == 1
        assert f((1, 1, 1)) == 1

    def test_constant_is_constant(self):
        f = builtin_table("constant", 4)
        assert set(f.table.values()) == {0}

    def test_min_values(self):
        f = builtin_table("min", 2)
        assert f((0, 0)) == 0
        assert f((0, 1)) == 0
        assert f((1, 1)) == 1

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin_table("xor3", 3)

    def test_arity_below_two(self):
        with pytest.raises(ConfigError):
            builtin_table("min", 1)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_total_over_cube(self, name):
        f = builtin_table(name, 3)
        assert len(f.table) == 8


class TestFunctionTableValidation:
    def test_missing_entry_rejected(self):
        table = {x: 0 for x in itertools.product((0, 1), repeat=2)}
        del table[(1, 1)]
        with pytest.raises(ConfigError):
            FunctionTable(m=2, output_alphabet=(0,), table=table)

    def test_output_outside_alphabet_rejected(self):
        table = {x: 0 for x in itertools.product((0, 1), repeat=2)}
        table[(1, 1)] = 5
        with pytest.raises(ConfigError):
            FunctionTable(m=2, output_alphabet=(0, 1), table=table)

    def test_rejects_nonbinary_alphabets(self):
        # a table over {0,1} x {0,1,2}: more rows than the 2^m binary inputs
        table = {x: 0 for x in itertools.product((0, 1), (0, 1, 2))}
        with pytest.raises(ConfigError, match="non-total table: 6 entries, expected 4"):
            FunctionTable(m=2, output_alphabet=(0,), table=table)
        # as many rows as a binary table, one of them with a ternary symbol
        table = {x: 0 for x in itertools.product((0, 1), repeat=2)}
        del table[(1, 1)]
        table[(1, 2)] = 0
        with pytest.raises(ConfigError, match=r"input symbol out of range in \(1, 2\)"):
            FunctionTable(m=2, output_alphabet=(0,), table=table)

    def test_input_symbol_out_of_range_rejected(self):
        table = {x: 0 for x in itertools.product((0, 1), repeat=2)}
        table[(0, 2)] = 0
        with pytest.raises(ConfigError):
            FunctionTable(m=2, output_alphabet=(0,), table=table)


class TestZeroMessageComputability:
    """For MIN over m=3 the computable pmfs are exactly: some marginal is a
    point mass at 0, or every marginal is a point mass at 1."""

    def test_min_characterization(self):
        f = builtin_table("min", 3)
        assert computable_with_zero_messages(f, ProductPmf((0.0, 0.5, 0.9)))
        assert computable_with_zero_messages(f, ProductPmf((1.0, 1.0, 1.0)))
        assert not computable_with_zero_messages(f, ProductPmf((0.5, 0.5, 0.5)))
        assert not computable_with_zero_messages(f, ProductPmf((1.0, 1.0, 0.5)))

    def test_constant_always_computable(self):
        f = builtin_table("constant", 3)
        assert computable_with_zero_messages(f, ProductPmf((0.5, 0.3, 0.7)))

    def test_parity_needs_point_masses(self):
        f = builtin_table("parity", 2)
        assert computable_with_zero_messages(f, ProductPmf((1.0, 0.0)))
        assert not computable_with_zero_messages(f, ProductPmf((1.0, 0.5)))

    def test_arity_mismatch(self):
        f = builtin_table("min", 3)
        with pytest.raises(ValueError):
            computable_with_zero_messages(f, ProductPmf((0.5, 0.5)))


class TestLoadTable:
    def write(self, tmp_path, text):
        path = tmp_path / "table.txt"
        path.write_text(text)
        return path

    def test_round_trip_min(self, tmp_path):
        rows = "\n".join(
            f"{a} {b} {c} -> {min(a, b, c)}"
            for a, b, c in itertools.product((0, 1), repeat=3)
        )
        path = self.write(
            tmp_path,
            "# hand-written table\narity m=3 alphabets=2,2,2 outputs=0,1\n" + rows,
        )
        f = load_table(path)
        assert f.table == builtin_table("min", 3).table

    def test_comments_and_blank_lines(self, tmp_path):
        path = self.write(
            tmp_path,
            "arity m=2 alphabets=2,2 outputs=0,1\n"
            "\n"
            "0 0 -> 0  # zero\n"
            "0 1 -> 1\n"
            "1 0 -> 1\n"
            "1 1 -> 0\n",
        )
        f = load_table(path)
        assert f((1, 1)) == 0
        assert f((0, 1)) == 1

    def test_duplicate_row(self, tmp_path):
        path = self.write(
            tmp_path,
            "arity m=2 alphabets=2,2 outputs=0\n"
            "0 0 -> 0\n0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n1 1 -> 0\n",
        )
        with pytest.raises(ConfigError, match="duplicate"):
            load_table(path)

    def test_non_total(self, tmp_path):
        path = self.write(
            tmp_path,
            "arity m=2 alphabets=2,2 outputs=0\n0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n",
        )
        with pytest.raises(ConfigError, match="non-total"):
            load_table(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "m=2 alphabets=2,2 outputs=0\n0 0 -> 0\n")
        with pytest.raises(ConfigError, match="header"):
            load_table(path)

    def test_bad_arrow(self, tmp_path):
        path = self.write(
            tmp_path, "arity m=2 alphabets=2,2 outputs=0\n0 0 = 0\n"
        )
        with pytest.raises(ConfigError):
            load_table(path)

    def test_rejects_nonbinary_alphabets_naming_header_line(self, tmp_path):
        rows = "".join(f"{a} {b} -> {int(b == 2)}\n"
                       for a, b in itertools.product((0, 1), (0, 1, 2)))
        path = self.write(
            tmp_path, "# x2 is ternary\narity m=2 alphabets=2,3 outputs=0,1\n" + rows
        )
        with pytest.raises(ConfigError) as exc:
            load_table(path)
        assert str(exc.value) == (
            f"{path}:2: alphabets=2,3: only binary source alphabets are supported"
        )

    def test_input_symbol_out_of_range_names_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "arity m=2 alphabets=2,2 outputs=0\n0 0 -> 0\n0 1 -> 0\n1 0 -> 0\n1 5 -> 0\n",
        )
        with pytest.raises(ConfigError) as exc:
            load_table(path)
        assert str(exc.value) == f"{path}:5: input symbol out of range in (1, 5)"

    def test_alphabet_count_names_header_line(self, tmp_path):
        rows = "".join(f"{a} {b} {c} -> 0\n" for a, b, c in itertools.product((0, 1), repeat=3))
        path = self.write(tmp_path, "# three inputs\narity m=3 alphabets=2,2 outputs=0\n" + rows)
        with pytest.raises(ConfigError) as exc:
            load_table(path)
        assert str(exc.value) == f"{path}:2: alphabets= lists 2 sizes, expected m=3"

    def test_output_outside_alphabet_names_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "arity m=2 alphabets=2,2 outputs=0,1\n0 0 -> 0\n0 1 -> 1\n\n1 0 -> 7\n1 1 -> 0\n",
        )
        with pytest.raises(ConfigError) as exc:
            load_table(path)
        assert str(exc.value) == f"{path}:5: output 7 for (1, 0) not in output alphabet"

    def test_line_number_in_message(self, tmp_path):
        path = self.write(
            tmp_path,
            "arity m=2 alphabets=2,2 outputs=0\n0 0 -> 0\nbroken line\n",
        )
        with pytest.raises(ConfigError, match=":3:"):
            load_table(path)
