"""Library functions that lost their last caller outside the tests, kept
here unchanged as oracles: the per-link PRR selector, the selection-file
parser and the trajectory reader."""

from __future__ import annotations

import csv

from rti.geometry import PatternPair
from rti.linkstats import RssTrace
from rti.tracking import TRAJECTORY_HEADER
from select_oracles import Link, SelectionResult, _top_k, reception_ratios


def select_prr(
    trace: RssTrace,
    window: tuple[int, int],
    link: Link,
    k: int,
) -> list[PatternPair]:
    """Top-k pairs of one link by packet reception ratio over the window.
    Pairs with zero receptions are ineligible. Ties rank ascending
    lexicographic."""
    return _top_k(reception_ratios(trace, window).get(link), link, k)


def parse_selection(text: str) -> SelectionResult:
    pairs_by_link: dict[Link, list[PatternPair]] = {}
    method: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if (
            len(parts) < 7
            or parts[0] != "link"
            or parts[3] != "method"
            or parts[5] != "pairs"
        ):
            raise ValueError(
                f"line {lineno}: expected 'link <tx> <rx> method <name> pairs ...'"
            )
        try:
            tx, rx = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed node id") from None
        if method is None:
            method = parts[4]
        elif method != parts[4]:
            raise ValueError(f"line {lineno}: mixed selection methods in one file")
        pairs = []
        for token in parts[6:]:
            if not (token.startswith("(") and token.endswith(")")):
                raise ValueError(f"line {lineno}: malformed pair {token!r}")
            try:
                t, r = (int(v) for v in token[1:-1].split(","))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed pair {token!r}") from None
            pairs.append(PatternPair(t, r))
        if not pairs:
            raise ValueError(f"line {lineno}: link with no pairs")
        pairs_by_link[(tx, rx)] = pairs
    if method is None:
        raise ValueError("selection file contains no links")
    return SelectionResult(method=method, params={}, pairs_by_link=pairs_by_link)


def read_trajectory(path) -> list[tuple[int, float, float, float, float, float]]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"unexpected trajectory header {header}")
        rows = []
        for row in reader:
            tick, ex, ey, tx, ty, err = row
            rows.append((int(tick), float(ex), float(ey), float(tx), float(ty), float(err)))
        return rows
