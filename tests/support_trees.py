"""Leaf queries the tests make of a BoxTree, through its public arrays."""


def live_ids(tree) -> list:
    """Ids of the live leaves, ascending."""
    return tree.live_arrays()[0].tolist()


def has_leaf(tree, lid) -> bool:
    return lid in live_ids(tree)


def leaf_address(tree, lid) -> tuple:
    """(depth, grid indices) of a live leaf."""
    depth, *idx = tree.address_table([lid])[0].tolist()
    return depth, tuple(idx)
