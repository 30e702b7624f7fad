"""What one benchmark run hands back to the entry point."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class RunResult:
    """Operation counts, correctness problems and metric values.

    ``metrics`` holds the gated values (end-to-end or per-layer, by the
    run's trace flag); ``lines`` holds every figure of the human-readable
    report, with its unit and sample count.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    lines: List[Tuple[str, float, str, Optional[int]]] = field(
        default_factory=list
    )

    def fail(self, problems: List[str], operations: int = 1) -> None:
        """Count ``operations`` as failed when ``problems`` is non-empty."""
        if problems:
            self.failed += operations
            self.problems.extend(problems)

    def report(self, name: str, value: float, unit: str,
               n: Optional[int] = None) -> None:
        """Add a figure to the human-readable report."""
        self.lines.append((name, value, unit, n))
