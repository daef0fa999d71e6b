import itertools

from parkseq import (
    Collision,
    Layout,
    Parked,
    PastEnd,
    PrefSequence,
    SizeVector,
    simulate_circular,
    simulate_linear,
)


def naive_tally(sizes: SizeVector, flavor: str) -> tuple[int, int, int]:
    """Literal one-simulation-per-tuple classification of the whole domain.

    Deliberately naive: this is the independent reference the aggregated
    oracle and the closed-form counts are both checked against.
    """
    base = sizes.total if flavor == "linear" else sizes.circle_size
    simulate = simulate_linear if flavor == "linear" else simulate_circular
    parked = collisions = past_end = 0
    for tup in itertools.product(range(1, base + 1), repeat=sizes.n):
        result = simulate(sizes, PrefSequence(tup, flavor))
        if isinstance(result, Parked):
            parked += 1
        elif isinstance(result, Collision):
            collisions += 1
        else:
            assert isinstance(result, PastEnd)
            past_end += 1
    return parked, collisions, past_end


def naive_parking_set(sizes: SizeVector, flavor: str) -> set[tuple[int, ...]]:
    base = sizes.total if flavor == "linear" else sizes.circle_size
    simulate = simulate_linear if flavor == "linear" else simulate_circular
    return {
        tup
        for tup in itertools.product(range(1, base + 1), repeat=sizes.n)
        if isinstance(simulate(sizes, PrefSequence(tup, flavor)), Parked)
    }


def naive_free_spots(layout: Layout) -> set[int]:
    """The spots of a circular layout that no car covers, listed spot by
    spot: the literal reference for empty_spot."""
    m = layout.sizes.circle_size
    covered = {
        (s - 1 + k) % m + 1
        for s, y in zip(layout.starts, layout.sizes.sizes)
        for k in range(y)
    }
    return set(range(1, m + 1)) - covered
