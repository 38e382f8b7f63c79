"""Compare two cfdens output directories file by file.

    python3 scripts/compare_outputs.py DIR_A DIR_B

For each file in either directory (searched recursively) it prints ``same``
when the bytes are equal.  Otherwise it prints ``differs`` with the row
(line) count of each side, the largest relative gap |a - b| / max(|a|, |b|)
over the numeric fields at the same row and position, the number of rows
whose ``valid_flag`` changed, and the number of other fields that differ as
text.  Fields are split at commas, ``=`` and whitespace, so the same
comparison covers the long-format CSVs, ``mc_report.csv`` and the
``key = value`` lines of ``model_*.txt``.  A last ``total`` line gives the
files compared, the files that differ, the largest relative gap over all
files and the changed ``valid_flag`` rows over all files.  The exit status
is 0 when every file is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

FIELD = re.compile(r"[^,=\s]+")


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _gap(a: float, b: float) -> float:
    """Relative gap of two numbers: 0 when equal (NaN equals NaN), inf across non-finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_text(text_a: str, text_b: str) -> tuple[str, float, int]:
    """The summary of how two differing files differ, their largest gap and changed flags."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    header = FIELD.findall(lines_a[0]) if lines_a else []
    flag = header.index("valid_flag") if "valid_flag" in header else None
    gap, flags, texts = 0.0, 0, 0
    for row, (line_a, line_b) in enumerate(zip(lines_a, lines_b)):
        fields_a, fields_b = FIELD.findall(line_a), FIELD.findall(line_b)
        texts += abs(len(fields_a) - len(fields_b))
        for k, (a, b) in enumerate(zip(fields_a, fields_b)):
            if a == b:
                continue
            if k == flag and row > 0:
                flags += 1
            elif (x := _number(a)) is not None and (y := _number(b)) is not None:
                gap = max(gap, _gap(x, y))
            else:
                texts += 1
    return (f"rows {len(lines_a)}/{len(lines_b)}, max rel gap {gap:.3g}, "
            f"valid_flag changed in {flags} rows, {texts} text fields differ"), gap, flags


def compare_dirs(dir_a: Path, dir_b: Path) -> bool:
    """Print one line per file, then the totals; True when every file is byte-identical."""
    names = sorted({p.relative_to(d) for d in (dir_a, dir_b) for p in d.rglob("*") if p.is_file()})
    differ, gap, flags = 0, 0.0, 0
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.is_file() and path_b.is_file()):
            print(f"only in {dir_a if path_a.is_file() else dir_b}: {name}")
            differ += 1
        elif path_a.read_bytes() == path_b.read_bytes():
            print(f"same     {name}")
        else:
            summary, file_gap, file_flags = compare_text(path_a.read_text(encoding="utf-8"),
                                                         path_b.read_text(encoding="utf-8"))
            print(f"differs  {name}: {summary}")
            differ, gap, flags = differ + 1, max(gap, file_gap), flags + file_flags
    print(f"total    {len(names)} files, {differ} differ, max rel gap {gap:.3g}, "
          f"valid_flag changed in {flags} rows")
    return differ == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    return 0 if compare_dirs(args.dir_a, args.dir_b) else 1


if __name__ == "__main__":
    sys.exit(main())
