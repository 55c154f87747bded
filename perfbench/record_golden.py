"""Record the fixture golden set the benchmark's correctness gate compares with.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run it only when a change to the analysis output is intended, and say so in
the change: the golden set is the byte-for-byte contract for the fixtures.
"""

import contextlib
import io
import json

import qdsa.cli
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.modelio import model_spec_from_fixture
from qdsa.models import fixture_names
from workloads import ANALYSIS_SEED, GOLDEN


def main():
    reports = {name: run_analyze(model_spec_from_fixture(name),
                                 AnalysisOptions(seed=ANALYSIS_SEED)).to_json_dict()
               for name in fixture_names()}
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        qdsa.cli.main(["examples", "list"])
    GOLDEN.write_text(json.dumps({"reports": reports, "examples_list": listing.getvalue()},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
