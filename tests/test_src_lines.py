import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "src_lines.py")

# 13 non-blank lines; code lines are 5, 8, 11-13, 15 and 19: a trailing
# comment leaves a line code, and so does a "#" inside a string that is no
# docstring
MODULE = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string
# not a comment
"""

    def f(self):
        """Function

        docstring."""
        return os.sep
'''


def run(*args):
    done = subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


def test_counts_non_blank_and_code_lines_per_module(tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert run(str(tmp_path)) == [
        ["13", "7", "a.py"], ["1", "1", "b.py"], ["14", "8", "total"]
    ]


def test_counts_the_package_by_default():
    rows = run()
    *modules, total = rows
    assert total[2] == "total" and "solver.py" in [row[2] for row in modules]
    assert [int(total[0]), int(total[1])] == [
        sum(int(row[k]) for row in modules) for k in (0, 1)
    ]
