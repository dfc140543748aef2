"""Shared pytest wiring: collects acceptance lines for the terminal summary,
and holds the finite groups the code-space tests share."""

from cayleydist import make_spec

# One group per finite family and digit shape, for CodeSpace and code-BFS tests.
CODE_FAMILIES = [make_spec("lamplighter-fin", m=2, n=5), make_spec("lamplighter-fin", m=3, n=4),
                 make_spec("bs-fin", m=2, n=7), make_spec("bs-fin", m=3, n=4),
                 make_spec("sol-fin", n=5), make_spec("sol-fin", n=9, A=((3, 1), (2, 1)))]

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
