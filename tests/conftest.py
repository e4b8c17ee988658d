import pytest

from helpers import store_from_arrays


@pytest.fixture
def three_edge_store():
    """v --r0--> A, v --r0--> x, x --r1--> B  with ids v=0 A=1 x=2 B=3."""
    return store_from_arrays([(0, 0, 1), (0, 0, 2), (2, 1, 3)],
                             num_entities=4, num_relations=2)


@pytest.fixture
def five_node_store():
    """v touches non-anchors x, y; both reach anchor B, only x reaches C.

    ids: v=0 x=1 y=2 B=3 C=4.  B's one-hop non-anchor support {x, y} beats
    C's {x}.
    """
    return store_from_arrays(
        [(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3), (1, 0, 4)],
        num_entities=5, num_relations=1,
    )
