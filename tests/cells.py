"""Cell weights for tests, keyed by cell: built from cell texts such as
"12GG", and read one cell at a time. Indices come from the codec order of
CELLS."""

from merminsim.model import CELLS, N_CELLS, CellWeights

INDEX_BY_TEXT = {"".join(map(str, cell)): index for index, cell in enumerate(CELLS)}


def cell_weights(counts):
    """CellWeights with counts[text] on each named cell and 0 elsewhere."""
    weights = [0] * N_CELLS
    for text, count in counts.items():
        weights[INDEX_BY_TEXT[text]] += count
    return CellWeights(tuple(weights), sum(weights))


def cell_weight(table, swa, swb, oa, ob):
    """The weight of cell (swa, swb, oa, ob) in table."""
    return table.weights[CELLS.index((swa, swb, oa, ob))]
