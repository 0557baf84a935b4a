"""Canonical JSON encoding for content hashes.

A spec's content hash (:meth:`repro.api.spec.SweepSpec.content_hash`) and
the benchmark's statistics digests name their payload by its bytes, so two
processes — or two Python versions — encoding the same data must produce the
same bytes.  Plain ``json.dumps`` does not guarantee that: dictionary key
order follows insertion order, which varies with how the spec was built.
This module pins the encoding:

* keys sorted at every nesting level;
* compact separators (no whitespace to vary);
* ASCII-only escapes (independent of locale/encoding defaults);
* ``NaN``/``Infinity`` rejected (they are not JSON and would make equal
  payloads compare unequal after a round trip).

Lists are serialized in the order given — callers are responsible for
putting order-insensitive collections (e.g. option names) into a stable
order before encoding, which :meth:`repro.api.spec.SweepSpec.to_dict` does.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["canonical_dumps", "content_digest"]


def canonical_dumps(obj: object) -> str:
    """Encode ``obj`` as canonical JSON (sorted keys, compact, ASCII)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def content_digest(obj: object) -> str:
    """Hex SHA-256 digest of the canonical JSON encoding of ``obj``.

    Equal payloads hash equally regardless of dict ordering or the process
    that built them.
    """
    return hashlib.sha256(canonical_dumps(obj).encode("ascii")).hexdigest()
