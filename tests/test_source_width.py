"""Every line of the package's source fits in 79 columns."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "semitoric"


def test_source_lines_fit_79_columns():
    long = [f"{path.name}:{n}: {len(line)} columns"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert SRC.is_dir() and not long, long
