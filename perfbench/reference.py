"""Expected outputs of the benchmarked commands, computed without matchroid.

Every command the benchmark runs has an expected exit code and an expected
output document.  They are derived here from the input alone, so a wrong
answer from the program under test cannot agree with them by construction:

* ``induce`` documents are rebuilt from an independent subset sweep.  The
  sweep walks subsets depth first, each child adding one left vertex of
  higher index, and updates the parent's matching instead of solving from
  scratch: deferred acceptance resumes with one new proposer (the outcome is
  independent of proposal order), and the maximum-weight matching changes by
  one alternating path starting at the new vertex (the perturbed optimum is
  unique).  Witnesses keep their definition: the first subset in popcount
  order, then binary order.
* ``roundtrip``, ``oracle-check`` and ``fuzz`` documents are fully determined
  by the input when the program is correct (every family equal, no mismatch,
  no failure), so they are written down directly.

An expected document is kept only as the SHA-256 of its serialisation,
which is exactly the CLI's (``json.dumps`` with ``indent=2`` and
``sort_keys=True`` plus a newline).  The text is hashed as it is encoded and
never held whole, so that checking an output costs less memory than the
command that made it: the run's peak memory is the program's.
"""

from __future__ import annotations

import hashlib
import json

SUCCESS_DIAGNOSTIC = {
    "accessibility_witness": None,
    "accessible": True,
    "has_empty_set": True,
    "reason": "all axioms hold",
    "union_closed": True,
    "union_witness": None,
}


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)
_BATCH = 4096  # encoder chunks hashed at a time


def digest(doc: dict) -> str:
    """SHA-256 of the document serialised as the CLI writes it."""
    h = hashlib.sha256()
    batch: list[str] = []
    for chunk in _ENCODER.iterencode(doc):
        batch.append(chunk)
        if len(batch) == _BATCH:
            h.update("".join(batch).encode("utf-8"))
            batch.clear()
    batch.append("\n")
    h.update("".join(batch).encode("utf-8"))
    return h.hexdigest()


def _keep_witness(family: dict[int, int], v_mask: int, u_mask: int) -> None:
    old = family.get(v_mask)
    if old is None or (u_mask.bit_count(), u_mask) < (old.bit_count(), old):
        family[v_mask] = u_mask


def stable_family(n_left: int, n_right: int, adj: list[list[int]], rank_right: list[dict[int, int]]) -> dict[int, int]:
    """Matched-right-set mask -> witness left mask, over all left subsets.

    adj[u] lists u's neighbours best first; rank_right[v][u] is u's position
    in v's ranking (lower is better).
    """
    family: dict[int, int] = {}

    def grow(start: int, u_mask: int, v_mask: int, match: list[int], ptr: list[int]) -> None:
        _keep_witness(family, v_mask, u_mask)
        for u in range(start, n_left):
            match_c = match[:]
            ptr_c = ptr[:]
            cur = u
            while cur >= 0:
                prefs = adj[cur]
                k = ptr_c[cur]
                if k == len(prefs):
                    break
                v = prefs[k]
                holder = match_c[v]
                if holder < 0:
                    match_c[v] = cur
                    cur = -1
                elif rank_right[v][cur] < rank_right[v][holder]:
                    match_c[v] = cur
                    ptr_c[holder] += 1
                    cur = holder
                else:
                    ptr_c[cur] += 1
            matched = 0
            for v in range(n_right):
                if match_c[v] >= 0:
                    matched |= 1 << v
            grow(u + 1, u_mask | 1 << u, matched, match_c, ptr_c)

    grow(0, 0, 0, [-1] * n_right, [0] * n_left)
    return family


def perturbed_weights(weights: list[int]) -> list[int]:
    """w'(e) = w(e) * 2**(m+1) - 2**e: the true weight first, then the
    smallest edge-id bitmask among ties, which makes the optimum unique."""
    shift = len(weights) + 1
    return [(w << shift) - (1 << e) for e, w in enumerate(weights)]


def weighted_family(n_left: int, n_right: int, edges: list[tuple[int, int]], weights: list[int]) -> dict[int, int]:
    """Covered-right-set mask -> witness left mask for integer weights.

    edges[e] = (u, v) with dense indices; the maximum perturbed-weight
    matching is maintained incrementally as left vertices are added.
    """
    pw = perturbed_weights(weights)
    out_edges: list[list[tuple[int, int, int]]] = [[] for _ in range(n_left)]
    for e, (u, v) in enumerate(edges):
        out_edges[u].append((v, e, pw[e]))
    family: dict[int, int] = {}

    def best_path(new: int, allowed: int, match_l: list[int], match_r: list[int]):
        # longest alternating path from the new (unmatched) left vertex; no
        # positive alternating cycle exists because the parent is optimal
        dist_l = {new: 0}
        via_l: dict[int, int] = {new: -1}  # left vertex -> edge that reached it
        dist_r: dict[int, int] = {}
        via_r: dict[int, int] = {}
        queue = [new]
        while queue:
            nxt = []
            for x in queue:
                dx = dist_l[x]
                mine = match_l[x]
                for v, e, w in out_edges[x]:
                    if e == mine:
                        continue
                    cand = dx + w
                    if v not in dist_r or cand > dist_r[v]:
                        dist_r[v] = cand
                        via_r[v] = e
                        held = match_r[v]
                        if held >= 0:
                            y = edges[held][0]
                            cand_y = cand - pw[held]
                            if y not in dist_l or cand_y > dist_l[y]:
                                dist_l[y] = cand_y
                                via_l[y] = held
                                nxt.append(y)
            queue = nxt
        best_gain, best_end = 0, None
        for v, d in dist_r.items():
            if match_r[v] < 0 and d > best_gain:
                best_gain, best_end = d, ("r", v)
        for y, d in dist_l.items():
            if y != new and d > best_gain:
                best_gain, best_end = d, ("l", y)
        return best_end, via_l, via_r

    def augment(end, via_l, via_r, match_l: list[int], match_r: list[int]) -> None:
        side, node = end
        if side == "l":
            # the path ends by dropping the matched edge into this left vertex
            held = via_l[node]
            v = edges[held][1]
            match_l[node] = -1
            match_r[v] = -1
            node = v
        v = node
        while True:
            e = via_r[v]
            x = edges[e][0]
            prev = match_l[x]
            match_l[x] = e
            match_r[v] = e
            if prev < 0:
                return
            v = edges[prev][1]

    def grow(start: int, u_mask: int, match_l: list[int], match_r: list[int]) -> None:
        covered = 0
        for v in range(n_right):
            if match_r[v] >= 0:
                covered |= 1 << v
        _keep_witness(family, covered, u_mask)
        for u in range(start, n_left):
            ml = match_l[:]
            mr = match_r[:]
            end, via_l, via_r = best_path(u, u_mask | 1 << u, ml, mr)
            if end is not None:
                augment(end, via_l, via_r, ml, mr)
            grow(u + 1, u_mask | 1 << u, ml, mr)

    grow(0, 0, [-1] * n_left, [-1] * n_right)
    return family


def induce_doc(kind: str, left: list[str], right: list[str], family: dict[int, int]) -> dict:
    """The ``induce`` document for a family given as member mask -> witness mask."""

    def member_key(mask: int):
        bits = tuple(i for i in range(len(right)) if mask >> i & 1)
        return (len(bits), bits)

    members = sorted(family, key=member_key)
    sets = [[right[i] for i in member_key(m)[1]] for m in members]
    witnesses = {
        ",".join(s): [left[i] for i in range(len(left)) if family[m] >> i & 1]
        for s, m in zip(sets, members)
    }
    return {
        "command": "induce",
        "kind": kind,
        "antimatroid": True,
        "diagnostic": SUCCESS_DIAGNOSTIC,
        "family": {"ground": list(right), "sets": sets},
        "witnesses": witnesses,
    }


def roundtrip_doc(kind: str, members: int) -> dict:
    return {
        "command": "roundtrip",
        "equal": True,
        "report": {
            "kind": kind,
            "formula": "corrected" if kind == "weighted" else None,
            "members": members,
            "left_size": members - 1,
            "equal": True,
            "missing": [],
            "extra": [],
            "member_check": True,
        },
    }


def oracle_doc(kind: str, checked: int, skipped: int) -> dict:
    return {
        "command": "oracle-check",
        "kind": kind,
        "subsets_checked": checked,
        "subsets_skipped": skipped,
        "mismatches": 0,
        "detail": [],
    }


def fuzz_doc(kind: str, seed: int, trials: int) -> dict:
    return {
        "command": "fuzz",
        "kind": kind,
        "seed": seed,
        "trials": trials,
        "failures": 0,
        "counterexample_files": [],
    }
