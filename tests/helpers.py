"""Graph and store builders shared by the test modules."""
import io

import numpy as np

from kgembed.data import TripleStore, load_triples


def triples_text(rows) -> io.StringIO:
    return io.StringIO("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))


def store_from_arrays(train, valid=None, test=None, num_entities=None,
                      num_relations=None) -> TripleStore:
    """Numeric-id store builder for in-test graphs."""
    sources = {"train": triples_text(train)}
    if valid is not None:
        sources["valid"] = triples_text(valid)
    if test is not None:
        sources["test"] = triples_text(test)
    return load_triples(sources, fmt="numeric", num_entities=num_entities,
                        num_relations=num_relations)


def random_store(num_entities, num_relations, num_triples, seed=0,
                 splits=(1.0, 0.0, 0.0)) -> TripleStore:
    rng = np.random.default_rng(seed)
    h = rng.integers(0, num_entities, num_triples)
    r = rng.integers(0, num_relations, num_triples)
    t = rng.integers(0, num_entities, num_triples)
    rows = np.stack([h, r, t], axis=1)
    n_train = int(round(splits[0] * num_triples))
    n_valid = int(round(splits[1] * num_triples))
    return store_from_arrays(
        rows[:n_train],
        valid=rows[n_train:n_train + n_valid] if splits[1] else None,
        test=rows[n_train + n_valid:] if splits[2] else None,
        num_entities=num_entities, num_relations=num_relations,
    )


def make_cyclic_kg(num_entities=300, num_relations=10, holdout=150, seed=7):
    """A KG whose relations are additive shifts mod |E|.

    Every relation j maps x -> (x + offset_j) mod n.  Rotations (rotate)
    and interht can represent that exactly; TransE cannot, since a shift
    of order n needs n * r = 0, which forces r = 0.  The held-out triples
    follow the same rule and are predictable from the train split.
    """
    rng = np.random.default_rng(seed)
    offsets = rng.choice(np.arange(1, num_entities), size=num_relations,
                         replace=False)
    rows = np.array([
        (x, j, (x + off) % num_entities)
        for j, off in enumerate(offsets.tolist())
        for x in range(num_entities)
    ], dtype=np.int64)
    rows = rows[rng.permutation(len(rows))]
    n_valid = holdout // 2
    n_test = holdout - n_valid
    train = rows[: len(rows) - holdout]
    valid = rows[len(train): len(train) + n_valid]
    test = rows[len(train) + n_valid:]
    store = store_from_arrays(train, valid=valid, test=test,
                              num_entities=num_entities,
                              num_relations=num_relations)
    return store, offsets
