#!/usr/bin/env python3
"""Name the records that differ between two files of
``scripts/seeded_outputs.py``.

Prints one line per differing record, its command line and which of
``exit``, ``stdout`` and ``stderr`` changed (``stdout`` covers both the
parsed report and the raw text), then ``k of N records differ``. Exits 0
when no record differs, 1 when some do, and 2 when a file cannot be read
or the two files do not hold the same command lines in the same order.

Usage: python scripts/diff_outputs.py OLD.json NEW.json
"""

import json
import sys

FIELDS = {"exit": ("exit",), "stdout": ("stdout", "stdout_text"), "stderr": ("stderr",)}


def _records(path):
    try:
        with open(path, encoding="utf-8") as f:
            records = json.load(f)
        return records, [r["argv"] for r in records]
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"diff_outputs.py: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def main(argv):
    if len(argv) != 2:
        print("usage: diff_outputs.py OLD.json NEW.json", file=sys.stderr)
        return 2
    (old, old_argv), (new, new_argv) = map(_records, argv)
    if old_argv != new_argv:
        print("diff_outputs.py: the two files hold different command lists", file=sys.stderr)
        return 2
    differing = 0
    for a, b in zip(old, new):
        changed = [name for name, keys in FIELDS.items()
                   if any(a.get(k) != b.get(k) for k in keys)]
        if changed:
            differing += 1
            print(f"{a['argv']}: {', '.join(changed)}")
    print(f"{differing} of {len(old)} records differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
