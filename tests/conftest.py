import csv
import pathlib

import numpy as np
import pytest

import adaptometry as am

DATA = pathlib.Path(__file__).parent / "data"

PERIODS = ("2009-08", "2010-03", "2011-03", "2012-07")
REGIONS = ("West", "Centre", "North", "East", "South", "Donbas")


@pytest.fixture(scope="session")
def panel_text() -> str:
    return (DATA / "ukraine_fears_panel.csv").read_text()


@pytest.fixture(scope="session")
def sparse_panel_text() -> str:
    """10,000 rows, each with a new period, unit and indicator: 257 KB that
    span 10**12 cells, so a table of every cell would ask for terabytes."""
    return "period,unit,indicator_id,indicator_name,value\n" + "".join(
        f"p{k:05d},u{k},{k},x{k},5\n" for k in range(10_000)
    )


@pytest.fixture(scope="session")
def panel(panel_text) -> am.IndicatorPanel:
    return am.parse_panel(panel_text)


@pytest.fixture(scope="session")
def grouped_table():
    return am.variation.parse_grouped_table((DATA / "political_groups.csv").read_text())


@pytest.fixture(scope="session")
def printed_cv() -> dict[int, float]:
    """The published per-indicator CV column for the political grouping."""
    with open(DATA / "political_printed_cv.csv") as fh:
        return {int(r["indicator_id"]): float(r["cv"]) for r in csv.DictReader(fh)}


@pytest.fixture(scope="session")
def golden_corr():
    """period -> published 19x19 correlation matrix (2-decimal)."""

    def load(period: str) -> np.ndarray:
        with open(DATA / f"expected_corr_{period}.csv") as fh:
            rows = list(csv.reader(fh))
        return np.array([[float(x) for x in row[1:]] for row in rows[1:]])

    return {p: load(p) for p in PERIODS}


@pytest.fixture(scope="session")
def published_distances() -> dict[tuple[str, str], dict[str, float]]:
    """(unit_a, unit_b) -> period -> published pairwise distance."""
    out: dict[tuple[str, str], dict[str, float]] = {}
    with open(DATA / "expected_distances.csv") as fh:
        for row in csv.DictReader(fh):
            out[(row["unit_a"], row["unit_b"])] = {
                p: float(row[p]) for p in PERIODS
            }
    return out
