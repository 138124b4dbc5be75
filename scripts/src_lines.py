"""Count the lines of Python sources as code, docstrings, blank lines and comments.

A docstring line is any line of a string-expression statement (module,
class and function docstrings, and any other bare string).  Every other
line is blank, a ``#`` comment or code.  Prints one row per file, named
from the repository root when it lies inside it, and a total row:

    python scripts/src_lines.py            # every .py file under src/
    python scripts/src_lines.py PATH ...   # files, or directories searched for .py files
"""

import argparse
import ast
import pathlib

KINDS = ("code", "docstrings", "blank", "comments")
ROOT = pathlib.Path(__file__).resolve().parents[1]


def count_lines(source: str) -> dict[str, int]:
    """The counts of each kind in ``KINDS`` for one file's source."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            doc.update(range(node.lineno, node.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if number in doc:
            counts["docstrings"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comments"] += 1
        else:
            counts["code"] += 1
    return counts


def python_files(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    """The .py files among ``paths`` and under the directories among them, sorted."""
    return sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=pathlib.Path, default=[ROOT / "src"])
    args = parser.parse_args()
    total = dict.fromkeys(KINDS, 0)
    print(f"{'lines':>6} {'code':>6} {'docs':>6} {'blank':>6} {'comm':>6}  file")
    for path in python_files(args.paths):
        counts = count_lines(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        shown = path.resolve().relative_to(ROOT) if path.resolve().is_relative_to(ROOT) else path
        print(f"{sum(counts.values()):6d} " + " ".join(f"{counts[k]:6d}" for k in KINDS) + f"  {shown}")
    print(f"{sum(total.values()):6d} " + " ".join(f"{total[k]:6d}" for k in KINDS) + "  total")


if __name__ == "__main__":
    main()
