from __future__ import annotations

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import effortsim
from conftest import synthetic_student_pop
from effortsim import data_path, studentgen
from effortsim.dataset import (
    DataError,
    Feature,
    FeatureKind,
    FeatureSchema,
    Population,
    SchemaError,
    generate_synthetic,
    load_csv,
    load_schema,
    read_table,
    restrict_features,
    split,
    write_csv,
    write_table,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def tiny_schema_file(tmp_path):
    schema = {
        "features": [
            {"name": "g", "kind": "immutable", "levels": ["x", "y"], "mutable": False},
            {"name": "cat", "kind": "categorical", "levels": ["A", "B"], "mutable": True},
            {"name": "num", "kind": "numerical_monotone", "direction": "increasing", "mutable": True},
        ],
        "sensitive": "g",
        "label": "score",
    }
    return _write(tmp_path / "schema.json", json.dumps(schema))


class TestLoadCsv:
    def test_loads_rows_and_maps_levels(self, tmp_path, tiny_schema_file):
        csv_path = _write(
            tmp_path / "d.csv", "g,cat,num,score\nx,A,1.5,3\nx,B,2.5,4\ny,A,0.25,5\n"
        )
        pop = load_csv(csv_path, tiny_schema_file)
        assert pop.size == 3
        assert pop.groups == ("x", "x", "y")
        assert pop.X[1, 1] == 1.0  # level "B" -> index 1
        assert pop.y.tolist() == [3.0, 4.0, 5.0]

    def test_semicolon_delimiter_accepted(self, tmp_path, tiny_schema_file):
        csv_path = _write(tmp_path / "d.csv", 'g;cat;num;score\n"x";"A";1.5;3\n"y";"B";2;4\n')
        pop = load_csv(csv_path, tiny_schema_file)
        assert pop.size == 2 and pop.X[1, 1] == 1.0

    def test_undeclared_level_rejected(self, tmp_path, tiny_schema_file):
        csv_path = _write(tmp_path / "d.csv", "g,cat,num,score\nx,Z,1.5,3\n")
        with pytest.raises(DataError, match="'Z'"):
            load_csv(csv_path, tiny_schema_file)

    def test_missing_column_rejected(self, tmp_path, tiny_schema_file):
        csv_path = _write(tmp_path / "d.csv", "g,cat,score\nx,A,3\n")
        with pytest.raises(DataError, match="num"):
            load_csv(csv_path, tiny_schema_file)

    def test_unparseable_cell_rejected(self, tmp_path, tiny_schema_file):
        csv_path = _write(tmp_path / "d.csv", "g,cat,num,score\nx,A,abc,3\n")
        with pytest.raises(DataError, match="abc"):
            load_csv(csv_path, tiny_schema_file)

    def test_delimiter_comes_from_the_header_line(self, tmp_path, tiny_schema_file):
        rows = "".join(f"x,A,{i},3,a;b;c;d;e;f;g\n" for i in range(4))
        csv_path = _write(tmp_path / "d.csv", "g,cat,num,score,notes\n" + rows)
        pop = load_csv(csv_path, tiny_schema_file)
        assert pop.size == 4 and pop.X[:, 2].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_bad_cell_is_reported_at_its_physical_line(self, tmp_path, tiny_schema_file):
        csv_path = _write(
            tmp_path / "d.csv", 'g,cat,num,score,notes\nx,A,1,3,"two\nlines"\ny,B,abc,4,ok\n'
        )
        with pytest.raises(DataError, match=r":4: column 'num': 'abc'"):
            load_csv(csv_path, tiny_schema_file)

    def test_first_bad_column_in_schema_order_is_reported(self, tmp_path, tiny_schema_file):
        csv_path = _write(tmp_path / "d.csv", "g,cat,num,score\nx,A,inf,3\nx,Z,1,4\n")
        with pytest.raises(DataError, match=r":3: column 'cat': value 'Z'"):
            load_csv(csv_path, tiny_schema_file)

    def test_wrong_width_row_and_empty_file_rejected(self, tmp_path, tiny_schema_file):
        csv_path = _write(tmp_path / "d.csv", "g,cat,num,score\nx,A,1,3\n\nx,B,2\n")
        with pytest.raises(DataError, match=r":4: expected 4 cells, got 3"):
            load_csv(csv_path, tiny_schema_file)
        for text, message in (("", "empty file"), ("g,cat,num,score\n\n", "no data rows")):
            with pytest.raises(DataError, match=message):
                load_csv(_write(tmp_path / "e.csv", text), tiny_schema_file)

    def test_reader_holds_no_copy_of_the_text(self, tmp_path):
        # The rows are read off the open file: beyond the table it returns,
        # the reader's traced peak stays well below the file's own size.
        path = tmp_path / "synthetic.csv"
        write_csv(synthetic_student_pop(3000), path)
        tracemalloc.start()
        try:
            table = read_table(path, "dataset")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table[2]) == 3000
        assert peak - kept < path.stat().st_size / 4, (peak, kept)

    def test_roundtrip_is_bit_exact(self, tmp_path, tiny_schema_file):
        csv_path = _write(
            tmp_path / "d.csv",
            "g,cat,num,score\nx,A,1.230000000000000982,3.25\nx,B,-7,4\ny,A,0.1,5\ny,B,-0.0,-0\n",
        )
        pop = load_csv(csv_path, tiny_schema_file)
        assert np.signbit(pop.X[3, 2]) and np.signbit(pop.y[3])
        out = tmp_path / "out.csv"
        write_csv(pop, out)
        assert out.read_text().splitlines()[-1] == "y,B,-0,-0"
        again = load_csv(out, tiny_schema_file)
        # every bit, the sign of a zero included (array_equal takes -0.0 == 0.0)
        assert np.array_equal(pop.X.view(np.uint64), again.X.view(np.uint64))
        assert np.array_equal(pop.y.view(np.uint64), again.y.view(np.uint64))
        assert pop.groups == again.groups


class TestWriteTable:
    def test_cells_are_formatted_and_quoted_where_needed(self, tmp_path):
        out = tmp_path / "t.csv"
        write_table(out, ["model", "value"], [["lin,ear", 2.0], ['say "hi"', None], ["m", 0.1]])
        assert out.read_text() == 'model,value\n"lin,ear",2\n"say ""hi""",\nm,0.1\n'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_non_finite_cells_are_refused(self, tmp_path, value):
        out = tmp_path / "t.csv"
        with pytest.raises(DataError, match="t.csv: a value to write is NaN or infinite"):
            write_table(out, ["model", "value"], [["m", 1.5], ["m", value]])
        assert out.read_text() == "model,value\nm,1.5\n"  # the rows before it, and no NaN

    def test_studentgen_reproduces_the_bundled_csv(self, tmp_path):
        studentgen.write_csv(tmp_path / "student.csv")
        bundled = data_path("student_por_synthetic.csv").read_bytes()
        assert (tmp_path / "student.csv").read_bytes() == bundled


def test_only_dataset_imports_csv():
    """The CSV format lives in ``dataset`` alone: no other module imports ``csv``."""
    importers = []
    for path in sorted(Path(effortsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(n == "csv" or n.startswith("csv.") for n in names):
                importers.append(path.name)
    assert importers == ["dataset.py"]


class TestSchemaValidation:
    def test_sensitive_must_be_immutable(self):
        with pytest.raises(SchemaError):
            FeatureSchema(
                features=(
                    Feature("g", FeatureKind("categorical", levels=("x", "y")), mutable=True),
                ),
                sensitive="g",
                label="y",
            )

    def test_categorical_needs_two_levels(self):
        with pytest.raises(SchemaError):
            FeatureKind("categorical", levels=("only",))

    def test_monotone_needs_direction(self):
        with pytest.raises(SchemaError):
            FeatureKind("ordinal_monotone")

    def test_mutability_flag_must_match_kind(self):
        with pytest.raises(SchemaError):
            Feature("f", FeatureKind("immutable"), mutable=True)
        with pytest.raises(SchemaError):
            Feature("f", FeatureKind("numerical_nonmonotone"), mutable=False)

    def test_schema_file_errors_are_schema_errors(self, tmp_path):
        bad = _write(tmp_path / "s.json", "{not json")
        with pytest.raises(SchemaError):
            load_schema(bad)


class TestSplit:
    def test_student_sizes(self, student_pop):
        train, test = split(student_pop, 0.7, seed=28)
        assert (train.size, test.size) == (454, 195)

    def test_two_rows_half(self, tmp_path, tiny_schema_file):
        csv_path = _write(tmp_path / "d.csv", "g,cat,num,score\nx,A,1,1\nx,B,2,2\n")
        pop = load_csv(csv_path, tiny_schema_file)
        a, b = split(pop, 0.5, seed=0)
        assert (a.size, b.size) == (1, 1)

    def test_same_seed_same_members(self, student_pop):
        a1, b1 = split(student_pop, 0.7, seed=5)
        a2, b2 = split(student_pop, 0.7, seed=5)
        assert np.array_equal(a1.X, a2.X) and np.array_equal(b1.y, b2.y)
        assert a1.groups == a2.groups

    def test_disjoint_union(self, student_pop):
        train, test = split(student_pop, 0.7, seed=3)
        combined = np.vstack([train.X, test.X])
        key = lambda M: sorted(map(tuple, M.tolist()))
        assert key(combined) == key(student_pop.X)

    def test_tables_rebuilt_per_part(self, student_pop):
        train, _ = split(student_pop, 0.7, seed=3)
        for g in train.group_names:
            table = train.feature_table(g)
            assert table.shape[0] == train.group_size(g)
            assert np.all(np.diff(table, axis=0) >= 0)

    def test_empty_group_rejected(self, tmp_path, tiny_schema_file):
        csv_path = _write(tmp_path / "d.csv", "g,cat,num,score\nx,A,1,1\nx,B,2,2\ny,A,3,3\n")
        pop = load_csv(csv_path, tiny_schema_file)
        with pytest.raises(DataError):
            split(pop, 0.5, seed=1)  # group y has one row; some part loses it

    def test_error_names_the_lost_group(self):
        schema = FeatureSchema(
            features=(Feature("g", FeatureKind("immutable", levels=("a", "b")), mutable=False),),
            sensitive="g",
            label="y",
        )
        pop = Population(schema, np.zeros((10, 1)), np.zeros(10), ["a"] * 9 + ["b"])
        with pytest.raises(DataError, match="split leaves group 'b' empty in one part"):
            split(pop, 0.7, seed=0)


class TestRestrictFeatures:
    def _schema(self):
        feats = [Feature("s", FeatureKind("immutable", levels=("a", "b")), mutable=False)]
        for i in range(5):
            feats.append(Feature(f"m{i}", FeatureKind("numerical_nonmonotone"), mutable=True))
        for i in range(3):
            feats.append(Feature(f"im{i}", FeatureKind("immutable"), mutable=False))
        return FeatureSchema(features=tuple(feats), sensitive="s", label="y")

    def test_keeps_sensitive_and_mutable(self):
        schema = self._schema()
        pop = generate_synthetic(schema, {"a": 4, "b": 4}, seed=0)
        restricted = restrict_features(pop, "mutable_plus_sensitive")
        assert restricted.schema.size == 6  # 5 mutable + sensitive
        assert "s" in restricted.schema.names

    def test_all_is_identity(self, student_pop):
        full = restrict_features(student_pop, "all")
        assert full.schema.size == 23
        assert np.array_equal(full.X, student_pop.X)

    def test_student_mutable_keeps_sensitive(self, student_pop):
        restricted = restrict_features(student_pop, "mutable_plus_sensitive")
        assert restricted.schema.sensitive == "sex"
        assert restricted.schema.size == 19  # 18 mutable + sensitive

    def test_unknown_filter(self, student_pop):
        with pytest.raises(SchemaError):
            restrict_features(student_pop, "everything")


class TestGenerateSynthetic:
    def _schema(self):
        return FeatureSchema(
            features=(
                Feature("s", FeatureKind("immutable", levels=("a", "b")), mutable=False),
                Feature("n1", FeatureKind("numerical_monotone", direction="increasing"), mutable=True),
                Feature("n2", FeatureKind("numerical_nonmonotone"), mutable=True),
                Feature("c", FeatureKind("categorical", levels=("u", "v", "w")), mutable=True),
            ),
            sensitive="s",
            label="y",
        )

    def test_deterministic(self):
        schema = self._schema()
        p1 = generate_synthetic(schema, {"a": 30, "b": 20}, seed=7, shift=0.4)
        p2 = generate_synthetic(schema, {"a": 30, "b": 20}, seed=7, shift=0.4)
        assert np.array_equal(p1.X, p2.X) and np.array_equal(p1.y, p2.y)

    def test_group_sizes_sum(self):
        pop = generate_synthetic(self._schema(), {"a": 100, "b": 50}, seed=1)
        assert pop.size == 150
        assert pop.group_size("a") == 100 and pop.group_size("b") == 50

    def test_zero_shift_means_agree_within_3_sigma(self):
        # Sampling oracle: numerical features are unit-variance per group, so
        # the group mean difference has standard error sqrt(1/na + 1/nb).
        na, nb = 400, 300
        pop = generate_synthetic(self._schema(), {"a": na, "b": nb}, seed=11, shift=0.0)
        k = pop.schema.index("n1")
        diff = abs(
            pop.X[pop.group_rows("a"), k].mean() - pop.X[pop.group_rows("b"), k].mean()
        )
        assert diff <= 3.0 * np.sqrt(1.0 / na + 1.0 / nb)

    def test_quantile_table_invariants(self):
        pop = generate_synthetic(self._schema(), {"a": 25, "b": 15}, seed=3, shift=0.2)
        for g in pop.group_names:
            table = pop.feature_table(g)
            assert table.shape == (pop.group_size(g), pop.schema.size)
            assert np.all(np.diff(table, axis=0) >= 0)
            for k in range(pop.schema.size):
                assert sorted(pop.X[pop.group_rows(g), k].tolist()) == table[:, k].tolist()
