"""A HotSketch's slot payloads, read and written through ``locate`` (the way
the CAFE layer reaches them) for tests that set up or inspect a slot."""

import numpy as np

from repro.embeddings.plan import FreeRowPool
from repro.sketch.hotsketch import NO_PAYLOAD


def payloads_of(sketch, keys) -> np.ndarray:
    """Each key's payload, ``NO_PAYLOAD`` where the key is not recorded."""
    found, buckets, slots = sketch.locate(np.asarray(keys))
    return np.where(found, sketch.payloads[buckets, slots], NO_PAYLOAD)


def set_payload(sketch, key: int, payload: int) -> bool:
    """Attach ``payload`` to the slot of ``key``; False, writing nothing,
    when the key is not recorded."""
    found, buckets, slots = sketch.locate(np.asarray([key]))
    if found[0]:
        sketch.payloads[buckets[0], slots[0]] = payload
    return bool(found[0])


def assign_row(layer, key: int, row: int) -> bool:
    """Point ``key``'s slot at exclusive ``row`` and rebuild the CAFE layer's
    free pool without it, as a promotion would; False, writing nothing,
    when the key is not recorded."""
    if not set_payload(layer.sketch, key, row):
        return False
    free = layer._free_rows.rows
    layer._free_rows = FreeRowPool(free[free != row])
    return True
