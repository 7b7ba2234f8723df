import hypothesis
import pytest

from gbsample import stats
from gbsample.dataset import CATEGORICAL, NUMERIC, ColumnSchema, Relation

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("ci")


STUDENT_SCHEMA = (
    ColumnSchema("id", CATEGORICAL),
    ColumnSchema("age", NUMERIC),
    ColumnSchema("gpa", NUMERIC),
    ColumnSchema("sat", NUMERIC),
    ColumnSchema("major", CATEGORICAL),
    ColumnSchema("college", CATEGORICAL),
)

# 8-row demo table: two majors per college, two rows per major
STUDENT_ROWS = [
    ("1", 25.0, 3.4, 1250.0, "CS", "Science"),
    ("2", 22.0, 3.1, 1280.0, "CS", "Science"),
    ("3", 24.0, 3.8, 1230.0, "Math", "Science"),
    ("4", 28.0, 3.6, 1270.0, "Math", "Science"),
    ("5", 21.0, 3.5, 1210.0, "EE", "Engineering"),
    ("6", 23.0, 3.2, 1260.0, "EE", "Engineering"),
    ("7", 27.0, 3.7, 1220.0, "ME", "Engineering"),
    ("8", 26.0, 3.3, 1230.0, "ME", "Engineering"),
]


@pytest.fixture
def student_rel() -> Relation:
    return Relation.from_records(STUDENT_SCHEMA, STUDENT_ROWS)


@pytest.fixture
def student_csv(tmp_path):
    path = tmp_path / "student.csv"
    lines = ["id,age,gpa,sat,major,college"]
    for row in STUDENT_ROWS:
        lines.append(
            f"{row[0]},{row[1]:g},{row[2]:g},{row[3]:g},{row[4]},{row[5]}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


FIX_A_SCHEMA = (
    ColumnSchema("grp", CATEGORICAL),
    ColumnSchema("v", NUMERIC),
)

# two strata of 8 rows; values are +-3 and +-1 around the same mean, so the
# CV ratio between the strata is exactly 3:1
FIX_A_ROWS = [("a", float(v)) for v in (12, 18) * 4] + [
    ("b", float(v)) for v in (14, 16) * 4
]


@pytest.fixture
def fix_a_rel() -> Relation:
    return Relation.from_records(FIX_A_SCHEMA, FIX_A_ROWS)


@pytest.fixture
def fix_a_csv(tmp_path):
    path = tmp_path / "fix_a.csv"
    lines = ["grp,v"] + [f"{g},{v:g}" for g, v in FIX_A_ROWS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def computed_catalogs(monkeypatch) -> list[tuple]:
    """The (group attributes, column) of every column's moments computed,
    rather than read from a relation's memo, while the test runs: a catalog
    computes one such entry per column it does not find kept."""
    computed = []
    compute = stats._column_moments

    def counting(rel, attrs, column):
        computed.append((attrs, column))
        return compute(rel, attrs, column)

    monkeypatch.setattr(stats, "_column_moments", counting)
    return computed
