"""Shared pytest hooks and test oracles.

The acceptance tests produce one human-readable verdict line per criterion.
Under pytest's default fd-level capture those lines would vanish into the
per-test buffers, so they are queued here and re-emitted after capture is
torn down, in the terminal summary of every run.

lambda_max_dense is the dense eigensolve the iterative lambda_max and the
bounds are checked against; the package itself has no use for it.
"""

import scipy.linalg as sla

_acceptance_lines: list[str] = []


def record_acceptance_line(line: str) -> None:
    _acceptance_lines.append(line)


def lambda_max_dense(A, surrogate) -> float:
    """Largest eigenvalue of the pencil (A, M-tilde) by dense eigh (small systems only)."""
    return float(sla.eigh(A.toarray(), surrogate.toarray(), eigvals_only=True)[-1])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)
