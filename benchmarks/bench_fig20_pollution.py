"""Figure 20 (appendix): LLC pollution classes under a streaming prefetcher.

Paper shape: the overwhelming majority of victims of inaccurate prefetches
were already dead (NoReuse, ~84% even at 2MB); true BadPollution is a few
percent; smaller LLCs shift a little mass from NoReuse toward the other
classes.
"""

from repro.experiments.figures import fig20_pollution


def test_fig20_pollution(figure):
    fig = figure(fig20_pollution)
    # Validity before shape: a row without data (no victim classified at
    # that LLC size) is an invalid measurement, not 0% of anything.
    empty = [llc for llc, row in fig.rows.items() if None in row.values()]
    assert not empty, f"fig20 rows with no data (no victims classified): {empty}"
    for llc in ("8MB", "4MB", "2MB"):
        row = fig.rows[llc]
        assert row["NoReuse"] > 50.0, (llc, row)
        assert row["BadPollution"] < 25.0, (llc, row)
    # Shrinking the LLC does not reduce pollution.
    assert fig.rows["2MB"]["BadPollution"] >= fig.rows["8MB"]["BadPollution"] - 1.0
