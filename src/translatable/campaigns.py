"""One exhaustive verification campaign per supported structural claim.

Every campaign replays a statement about k-translatable groupoids at desk
scale: the fast side (a closed form on the first row, a constructed table,
or a counting formula) is compared against an independent definitional
sweep, usually over every candidate first row.  A campaign never trusts
the closed form it is checking; the oracle side only reads table cells.

Campaign granularity is one result per (n, k) instance.  Failures carry a
small JSON-safe witness naming the first offending row and cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import batch
from .constructions import (
    UnionSpec,
    block_product_table,
    cancellative_semigroups,
    constant_column_semigroups,
    embed,
    idempotent_groupoid,
    left_unitary_groupoid,
    pair_union,
    union_same_step,
    union_shifted_step,
)
from .core import (
    CayleyTable,
    ConstructionError,
    KSequence,
    Ordering,
    TranslatableError,
    mod_rep,
    reorder,
)
from .properties import (
    LCOND_NAMES,
    LEFT_UNITARY_NAMES,
    check,
    lcond_check,
    lcond_verdicts,
    left_neutral_elements,
    left_unitary_characterize,
    semigroup_criterion,
)
from .structure import (
    decompose,
    ideals,
    idempotent_set,
    idempotent_set_formula,
    iso_idempotent,
    iso_left_unitary,
    iso_to_cyclic,
    left_unitary_idempotents,
)
from .translation import (
    all_rotated_presentations,
    detect,
    dual,
    dual_step,
    is_translatable,
    table_from_sequence,
)


@dataclass(frozen=True)
class InstanceResult:
    """Outcome of one (n, k) instance of a campaign."""

    theorem: str
    n: int | None
    k: int | None
    status: str
    witness: dict | None = None

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "k": self.k,
            "status": self.status,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class Campaign:
    """A named sweep with a default bound and a per-instance runner."""

    theorem_id: str
    summary: str
    default_max_n: int
    instances: Callable[[int], list[tuple]]
    run: Callable[[tuple], list[InstanceResult]]


def _passed(tid: str, n, k, witness=None) -> list[InstanceResult]:
    return [InstanceResult(tid, n, k, "pass", witness)]


def _failed(tid: str, n, k, witness) -> list[InstanceResult]:
    return [InstanceResult(tid, n, k, "fail", witness)]


def _expected_fail(tid: str, n, k, witness) -> list[InstanceResult]:
    return [InstanceResult(tid, n, k, "expected-fail", witness)]


def _all_pairs(max_n: int, min_n: int = 2) -> list[tuple]:
    return [(n, k) for n in range(min_n, max_n + 1) for k in range(1, n)]


def _criterion_pairs(max_n: int) -> list[tuple]:
    return [(n, k) for n, k in _all_pairs(max_n) if (k * k + k) % n == 0]


def _idempotent_pairs(max_n: int) -> list[tuple]:
    return [(n, k) for n, k in _all_pairs(max_n) if math.gcd(k - 1, n) == 1]


def _np_seq(n: int, k: int, row) -> KSequence:
    return KSequence(n, k, tuple(int(v) + 1 for v in row))


def _row_witness(rows: np.ndarray, b: int, note: str) -> dict:
    return {"row": [int(v) + 1 for v in rows[b]], "note": note}


def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


# --- propagation of cancellativity ------------------------------------------

def _run_left_cancellative_propagation(inst):
    tid = "left-cancellative-propagation"
    n, k = inst
    rows = batch.row_array(n, False)
    tables = batch.product_tables(rows, k)
    row_is_perm = batch._distinct(tables, 2)
    some = row_is_perm.any(axis=1)
    every = row_is_perm.all(axis=1)
    bad = np.flatnonzero(some & ~every)
    if bad.size:
        return _failed(tid, n, k, _row_witness(rows, bad[0], "one cancellable element without full cancellativity"))
    return _passed(tid, n, k)


def _run_unique_step(inst):
    tid = "unique-step"
    n, k = inst
    rows = batch.row_array(n, True)
    tables = batch.product_tables(rows, k)
    if not batch.translatable_mask(tables, k).all():
        return _failed(tid, n, k, {"note": "generated table lost its own step"})
    for other in range(1, n):
        if other == k:
            continue
        hit = np.flatnonzero(batch.translatable_mask(tables, other))
        if hit.size:
            return _failed(tid, n, k, _row_witness(rows, hit[0], f"also translatable with step {other}"))
    return _passed(tid, n, k)


def _run_detection_equivalence(inst):
    tid = "detection-equivalence"
    n, k = inst
    if n <= 3:
        grids = np.array(
            list(itertools.product(range(n), repeat=n * n)), dtype=np.int8
        ).reshape(-1, n, n)
    else:
        rows = batch.row_array(n, False)
        grids = batch.product_tables(rows, k)
    by_formula = (grids == batch.product_tables(grids[:, 0, :], k)).all(axis=(1, 2))
    by_shift = batch.translatable_mask(grids, k)
    by_columns = (np.roll(grids, k, axis=2) == np.roll(grids, -1, axis=1)).all(axis=(1, 2))
    if n > 3 and not (by_formula.all() and by_shift.all() and by_columns.all()):
        return _failed(tid, n, k, {"note": "a generated table failed one of the three descriptions"})
    disagree = np.flatnonzero((by_formula != by_shift) | (by_shift != by_columns))
    if disagree.size:
        b = int(disagree[0])
        return _failed(tid, n, k, {
            "table": [[int(v) + 1 for v in r] for r in grids[b]],
            "note": "first-row formula, row shift, and column shift disagree",
        })
    return _passed(tid, n, k)


def _run_modular_conditions(inst):
    tid = "modular-conditions"
    n, k = inst
    rows = batch.row_array(n, True)
    tables = batch.product_tables(rows, k)
    masks = np.stack([batch.MASKS[name](tables) for name in LCOND_NAMES], axis=1)
    wrong = np.stack([lcond_verdicts(rows, k, name) for name in LCOND_NAMES], axis=1) != masks
    # Row 0 again, through lcond_check: this adds no check, as lcond_check is
    # the one-row case of lcond_verdicts.  It stays while bench/tracing.py
    # predicts an lcond_check call on verify-rowspace (ROADMAP item 3).
    first = _np_seq(n, k, rows[0])
    wrong[0] |= np.array([lcond_check(first, name) for name in LCOND_NAMES]) != masks[0]
    if wrong.any():
        b, c = np.unravel_index(int(wrong.argmax()), wrong.shape)
        return _failed(tid, n, k, {
            "row": [int(v) + 1 for v in rows[b]],
            "property": LCOND_NAMES[c],
            "closed-form": not masks[b, c],
            "table": bool(masks[b, c]),
        })
    return _passed(tid, n, k)


# --- idempotent groupoids ----------------------------------------------------

def _run_idempotent_elastic_sum(inst):
    tid = "idempotent-elastic-sum"
    n, k = inst
    table = table_from_sequence(idempotent_groupoid(n, k))
    fast = all(
        mod_rep(table.entry(i, j) + table.entry(j, i), n) == mod_rep(i + j, n)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    slow = check(table, "elastic")[0]
    if fast != slow:
        return _failed(tid, n, k, {"sum-rule": fast, "elastic": slow})
    return _passed(tid, n, k)


def _run_idempotent_distributive_symmetry(inst):
    tid = "idempotent-distributive-symmetry"
    n, k = inst
    table = table_from_sequence(idempotent_groupoid(n, k))
    left = check(table, "left-distributive")[0]
    right = check(table, "right-distributive")[0]
    if left != right:
        return _failed(tid, n, k, {"left-distributive": left, "right-distributive": right})
    return _passed(tid, n, k)


def _instances_alterable_solvable(max_n: int) -> list[tuple]:
    free = [(n, None) for n in range(2, min(max_n, 4) + 1)]
    return free + _all_pairs(max_n)


def _run_alterable_solvable_quasigroup(inst):
    tid = "alterable-solvable-quasigroup"
    n, k = inst
    rows = batch.row_array(n, True)
    if k is None:
        # every table with permutation rows, not only translatable ones,
        # in the lexicographic order of their row tuples
        tables = rows[np.indices((len(rows),) * n).reshape(n, -1).T]
    else:
        # right solvability forces a permutation first row here
        tables = batch.product_tables(rows, k)
    alter = batch.alterable_mask(tables) if k is None else batch.space_verdicts("alterable", n, k, True)
    premise = alter & batch.right_distributive_mask(tables)
    conclusion = batch.idempotent_mask(tables) & batch.quasigroup_mask(tables)
    bad = np.flatnonzero(premise & ~conclusion)
    if bad.size:
        b = int(bad[0])
        return _failed(tid, n, k, {
            "table": [[int(v) + 1 for v in r] for r in tables[b]],
            "note": "alterable right-solvable right-distributive but not an idempotent quasigroup",
        })
    return _passed(tid, n, k)


def _instances_idempotent_existence(max_n: int) -> list[tuple]:
    return [(n, k) for n in range(2, max_n + 1) for k in range(2, n)]


def _run_idempotent_existence(inst):
    tid = "idempotent-existence"
    n, k = inst
    g = math.gcd(k - 1, n)
    if g == 1:
        seq = idempotent_groupoid(n, k)
        table = table_from_sequence(seq)
        ok = (
            check(table, "idempotent")[0]
            and check(table, "left-cancellative")[0]
            and k in detect(table)
        )
        if not ok:
            return _failed(tid, n, k, {"row": list(seq.seq), "note": "construction lost a promised property"})
        return _passed(tid, n, k)
    try:
        seq = idempotent_groupoid(n, k)
    except ConstructionError as err:
        witness = {"obstruction": err.obstruction}
        if n <= 7:
            rows = batch.row_array(n, False)
            tables = batch.product_tables(rows, k)
            hits = np.flatnonzero(batch.idempotent_mask(tables))
            if hits.size:
                return _failed(tid, n, k, _row_witness(rows, hits[0], "an idempotent table exists despite the collision"))
            witness["exhausted-rows"] = int(rows.shape[0])
        return _expected_fail(tid, n, k, witness)
    return _failed(tid, n, k, {"row": list(seq.seq), "note": "construction succeeded where positions must collide"})


def _run_idempotent_isomorphism(inst):
    tid = "idempotent-isomorphism"
    n, k = inst
    seq = idempotent_groupoid(n, k)
    for ordering, rotated in all_rotated_presentations(seq):
        iso = iso_idempotent(seq, rotated)
        if not iso.verified:
            return _failed(tid, n, k, {"ordering": list(ordering.perm), "note": "rotation not isomorphic"})
    if n <= 7:
        rows = batch.row_array(n, True)
        tables = batch.product_tables(rows, k)
        count = int(batch.idempotent_mask(tables).sum())
        if count != 1:
            return _failed(tid, n, k, {"count": count, "note": "idempotent table not unique"})
    return _passed(tid, n, k)


def _run_idempotent_quasigroup(inst):
    tid = "idempotent-quasigroup"
    n, k = inst
    table = table_from_sequence(idempotent_groupoid(n, k))
    got, witness = check(table, "quasigroup")
    expect = math.gcd(k, n) == 1
    if got != expect:
        return _failed(tid, n, k, {
            "gcd": math.gcd(k, n),
            "quasigroup": got,
            "witness": witness.as_dict() if witness else None,
        })
    return _passed(tid, n, k)


def _run_right_cancellable_gcd(inst):
    tid = "right-cancellable-gcd"
    n, k = inst
    if math.gcd(k, n) == 1:
        table = table_from_sequence(left_unitary_groupoid(n, k))
        if not check(table, "right-cancellative")[0]:
            return _failed(tid, n, k, {"note": "no right cancellable element found where one must exist"})
        return _passed(tid, n, k)
    rows = batch.row_array(n, n > 6)
    tables = batch.product_tables(rows, k)
    col_distinct = batch._distinct(tables, 1)
    hits = np.flatnonzero(col_distinct.any(axis=1))
    if hits.size:
        return _failed(tid, n, k, _row_witness(rows, hits[0], "right cancellable element with gcd(k, n) > 1"))
    return _passed(tid, n, k)


# --- alterability and steps --------------------------------------------------

def _run_alterable_cancellative_step(inst):
    tid = "alterable-cancellative-step"
    n, k = inst
    rows = batch.row_array(n, True)
    tables = batch.product_tables(rows, k)
    alter = batch.space_verdicts("alterable", n, k, True)
    target = mod_rep(k * k, n) == n - 1
    if target:
        return _passed(tid, n, k)
    for variant, extra in (("left", np.ones(alter.shape, dtype=bool)), ("right", batch.quasigroup_mask(tables))):
        hit = np.flatnonzero(alter & extra)
        if hit.size:
            return _failed(tid, n, k, _row_witness(rows, hit[0], f"{variant} cancellative alterable table with [k*k] != n-1"))
    return _passed(tid, n, k)


def _run_alterable_square(inst):
    tid = "alterable-square"
    n, k = inst
    rows = batch.row_array(n, True)
    alter = batch.space_verdicts("alterable", n, k, True)
    closed = mod_rep(k * k, n) == n - 1
    bad = np.flatnonzero(alter != closed)
    if bad.size:
        return _failed(tid, n, k, _row_witness(rows, bad[0], f"alterable={not closed} against closed form"))
    return _passed(tid, n, k)


def _run_left_unitary_isomorphism(inst):
    tid = "left-unitary-isomorphism"
    n, k = inst
    canonical = table_from_sequence(left_unitary_groupoid(n, k))
    rows = batch.row_array(n, True)
    tables = batch.product_tables(rows, k)
    holders = np.flatnonzero(batch.left_neutral_mask(tables))
    if holders.size != n // math.gcd(k, n):
        return _failed(tid, n, k, {"count": int(holders.size), "note": "unexpected number of tables owning a left neutral"})
    for b in holders:
        seq = _np_seq(n, k, rows[b])
        table = table_from_sequence(seq)
        e = left_neutral_elements(table)[0]
        phi = (np.arange(n) + e - 1) % n    # x -> [x + e - 1], 0-based
        bad = np.argwhere(table.grid[np.ix_(phi, phi)] != phi[canonical.grid])
        if bad.size:
            x, y = (bad[0] + 1).tolist()
            return _failed(tid, n, k, {
                "row": list(seq.seq), "x": x, "y": y,
                "note": "shift map to the canonical table breaks a product",
            })
    return _passed(tid, n, k)


def _run_left_unitary_medial(inst):
    tid = "left-unitary-medial"
    n, k = inst
    table = table_from_sequence(left_unitary_groupoid(n, k))
    medial, med_wit = check(table, "medial")
    rdist = check(table, "right-distributive")[0]
    if not medial:
        return _failed(tid, n, k, {"witness": med_wit.as_dict() if med_wit else None})
    if rdist:
        return _failed(tid, n, k, {"note": "left unitary table is right distributive"})
    return _passed(tid, n, k)


def _run_unitary_step(inst):
    tid = "unitary-step"
    n, k = inst
    rows = batch.row_array(n, True)
    tables = batch.product_tables(rows, k)
    has_unit = batch.unitary_mask(tables)
    if k == n - 1:
        if not has_unit.any():
            return _failed(tid, n, k, {"note": "no table with a two-sided neutral at the top step"})
    else:
        hit = np.flatnonzero(has_unit)
        if hit.size:
            return _failed(tid, n, k, _row_witness(rows, hit[0], "two-sided neutral away from step n-1"))
    return _passed(tid, n, k)


def _run_group_step_cyclic(inst):
    tid = "group-step-cyclic"
    n, k = inst
    rows = batch.row_array(n, True)
    tables = batch.product_tables(rows, k)
    group_like = batch.space_verdicts("associative", n, k, True) & batch.quasigroup_mask(tables)
    hits = np.flatnonzero(group_like)
    if k != n - 1:
        if hits.size:
            return _failed(tid, n, k, _row_witness(rows, hits[0], "associative quasigroup away from step n-1"))
        return _passed(tid, n, k)
    if not hits.size:
        return _failed(tid, n, k, {"note": "no group found at the top step"})
    for b in hits:
        seq = _np_seq(n, k, rows[b])
        iso = iso_to_cyclic(table_from_sequence(seq))
        if iso is None or not iso.verified:
            return _failed(tid, n, k, {"row": list(seq.seq), "note": "group is not cyclic"})
    return _passed(tid, n, k)


def _run_left_unitary_step_conditions(inst):
    tid = "left-unitary-step-conditions"
    n, k = inst
    table = table_from_sequence(left_unitary_groupoid(n, k))
    chars = left_unitary_characterize(n, k)
    for name in LEFT_UNITARY_NAMES:
        got = check(table, name)[0]
        if got != chars[name]:
            return _failed(tid, n, k, {"property": name, "closed-form": chars[name], "table": got})
    return _passed(tid, n, k)


def _run_left_unitary_modular_links(inst):
    tid = "left-unitary-modular-links"
    n, k = inst
    table = table_from_sequence(left_unitary_groupoid(n, k))
    lmod = check(table, "left-modular")[0]
    rmod = check(table, "right-modular")[0]
    para = check(table, "paramedial")[0]
    elas = check(table, "elastic")[0]
    if lmod != para:
        return _failed(tid, n, k, {"left-modular": lmod, "paramedial": para})
    if rmod and not (lmod and elas and para):
        return _failed(tid, n, k, {"right-modular": rmod, "left-modular": lmod, "elastic": elas, "paramedial": para})
    if check(table, "strongly-elastic")[0]:
        return _failed(tid, n, k, {"note": "left unitary table is strongly elastic"})
    return _passed(tid, n, k)


def _embedding_sources(n: int, k: int) -> list[tuple[str, KSequence]]:
    sources = [("left-unitary", left_unitary_groupoid(n, k))]
    if math.gcd(k - 1, n) == 1:
        sources.append(("idempotent", idempotent_groupoid(n, k)))
    for pos, seq in enumerate(cancellative_semigroups(n, k)):
        sources.append((f"criterion-{pos}", seq))
    for pos, seq in enumerate(constant_column_semigroups(n, k)[:2]):
        sources.append((f"constant-column-{pos}", seq))
    return sources


def _run_embedding(inst):
    tid = "embedding"
    n, k = inst
    for label, seq in _embedding_sources(n, k):
        small = table_from_sequence(seq)
        for t in range(1, 4):
            big, phi = embed(seq, t)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if big.entry(phi[i], phi[j]) != phi[small.entry(i, j)]:
                        return _failed(tid, n, k, {
                            "source": label, "copies": t, "i": i, "j": j,
                            "note": "image product disagrees with embedded product",
                        })
            if not is_translatable(big, k):
                return _failed(tid, n, k, {"source": label, "copies": t, "note": "embedded table lost the step"})
            if seq.is_permutation() and not check(big, "left-cancellative")[0]:
                return _failed(tid, n, k, {"source": label, "copies": t, "note": "left cancellativity lost"})
            if seq.seq == _identity(n) and big.row(1) != _identity(big.n):
                return _failed(tid, n, k, {"source": label, "copies": t, "note": "left neutrality lost"})
    return _passed(tid, n, k)


# --- dual tables -------------------------------------------------------------

def _run_dual_step(inst):
    tid = "dual-step"
    n, k = inst
    rows = batch.row_array(n, True)
    dual_masks = batch.dual_step_verdicts(n, k)
    found = None
    for kstar in range(1, n):
        mask = dual_masks[kstar]
        closed = mod_rep(k * kstar, n) == 1
        if closed:
            found = kstar
        if closed and not mask.all():
            b = int(np.flatnonzero(~mask)[0])
            return _failed(tid, n, k, _row_witness(rows, b, f"dual missed promised step {kstar}"))
        if not closed and mask.any():
            b = int(np.flatnonzero(mask)[0])
            return _failed(tid, n, k, _row_witness(rows, b, f"dual gained unplanned step {kstar}"))
    if dual_step(n, k).kstar != found:
        return _failed(tid, n, k, {"reported": dual_step(n, k).kstar, "observed": found})
    return _passed(tid, n, k)


def _perm_alterable_mask(rows: np.ndarray, n: int, k: int) -> np.ndarray:
    """Alterability over permutation rows via matching product positions.

    For a permutation first row two entries agree exactly when they sit at
    the same position, so only quadruples whose left sides share a position
    need their right sides compared.  Those comparisons read only distinct
    unordered position pairs; a pair of one position always agrees.
    """
    i, j, w = np.indices((n, n, n))
    z = (j - k * i + k * w) % n
    y1 = (w - k * j) % n
    y2 = (i - k * z) % n
    lo, hi = np.minimum(y1, y2), np.maximum(y1, y2)
    pairs = np.unique((lo * n + hi)[lo != hi])
    y1, y2 = pairs // n, pairs % n
    parts = []
    for start in range(0, rows.shape[0], 65536):
        chunk = rows[start:start + 65536]
        parts.append((chunk[:, y1] == chunk[:, y2]).all(axis=1))
    return np.concatenate(parts)


def _run_dual_links(inst):
    tid = "dual-links"
    n, k = inst
    rows = batch.row_array(n, True)
    dual_masks = batch.dual_step_verdicts(n, k)

    same_step = dual_masks[k]
    closed_same = mod_rep(k * k, n) == 1
    if bool(same_step.all()) != closed_same or bool(same_step.any()) != closed_same:
        b = int(np.flatnonzero(same_step != closed_same)[0])
        return _failed(tid, n, k, _row_witness(rows, b, "dual with the same step against [k*k] = 1"))

    lu = table_from_sequence(left_unitary_groupoid(n, k))
    if is_translatable(dual(lu), k) != check(lu, "paramedial")[0]:
        return _failed(tid, n, k, {"note": "left unitary dual step disagrees with paramediality"})

    for t in range(1, n + 1):
        kstar = mod_rep(n - t * k, n)
        if kstar == n:
            continue
        mask = dual_masks[kstar]
        closed = mod_rep(t * k * k, n) == n - 1
        hit = np.flatnonzero(mask != closed)
        if hit.size:
            return _failed(tid, n, k, _row_witness(rows, int(hit[0]), f"dual step n-{t}k against [t*k*k] = n-1"))

    alter = _perm_alterable_mask(rows, n, k)
    if n <= 6 and not (alter == batch.space_verdicts("alterable", n, k, True)).all():
        return _failed(tid, n, k, {"note": "position-based alterability mask disagrees with the cell sweep"})
    opposite = dual_masks[n - k]
    hit = np.flatnonzero(alter != opposite)
    if hit.size:
        return _failed(tid, n, k, _row_witness(rows, int(hit[0]), "alterable against dual step n-k"))
    return _passed(tid, n, k)


# --- associativity -----------------------------------------------------------

def _eas_masks(rows: np.ndarray, n: int, k: int, perm: np.ndarray):
    """Literal sequence forms of associativity, evaluated per row.

    The full form eas covers every row; the cancelled form ee1 covers only
    rows[perm], the permutation rows, where it is read.  Both are sieved
    over x, and each slab spans every (y, z).
    """
    y = np.arange(1, n + 1).reshape(n, 1)
    z = np.arange(1, n + 1).reshape(1, n)

    def inner(chunk, x):
        values = chunk.astype(np.intp) + 1
        inner_xy = values[:, (k - k * x + y - 1) % n]
        inner_yz = values[:, (k - k * y + z - 1) % n]
        return values, inner_xy, inner_yz

    def eas_slab(chunk, x):
        values, inner_xy, inner_yz = inner(chunk, x)
        flat = values.reshape(-1)
        base = (np.arange(values.shape[0]) * n).reshape(-1, 1, 1)
        lhs = flat[base + (k - k * inner_xy + z - 1) % n]
        rhs = flat[base + (k - k * x + inner_yz - 1) % n]
        return (lhs == rhs).all(axis=(1, 2))

    def ee1_slab(chunk, x):
        _, inner_xy, inner_yz = inner(chunk, x)
        left = (z - k * inner_xy - 1) % n
        right = (inner_yz - k * x - 1) % n
        return (left == right).all(axis=(1, 2))

    xs = range(1, n + 1)
    return batch._sieve(rows, eas_slab, xs), batch._sieve(rows[perm], ee1_slab, xs)


def _run_associativity_sequence_form(inst):
    tid = "associativity-sequence-form"
    n, k = inst
    rows = batch.row_array(n, False)
    assoc = batch.space_verdicts("associative", n, k, False)
    perm = np.flatnonzero(batch._distinct(rows, 1))
    eas, ee1 = _eas_masks(rows, n, k, perm)
    bad = np.flatnonzero(eas != assoc)
    if bad.size:
        return _failed(tid, n, k, _row_witness(rows, int(bad[0]), "sequence form against cell associativity"))
    bad = np.flatnonzero(ee1 != assoc[perm])
    if bad.size:
        return _failed(tid, n, k, _row_witness(rows, int(perm[bad[0]]), "cancelled sequence form against cell associativity"))
    return _passed(tid, n, k)


def _run_semigroup_criterion(inst):
    tid = "semigroup-criterion"
    n, k = inst
    rows = batch.row_array(n, True)
    assoc = batch.space_verdicts("associative", n, k, True)
    if (k * k + k) % n != 0:
        crit = np.zeros(len(rows), dtype=bool)
    else:
        values = rows.astype(np.int64) + 1
        ak = values[:, k - 1]
        i = np.arange(1, n + 1)
        expect = (i[None, :] - k - k * ak[:, None] - 1) % n + 1
        crit = (values == expect).all(axis=1)
    bad = np.flatnonzero(crit != assoc)
    if bad.size:
        b = int(bad[0])
        return _failed(tid, n, k, _row_witness(rows, b, f"criterion={bool(crit[b])} associative={bool(assoc[b])}"))
    return _passed(tid, n, k)


def _run_left_neutral_element(inst):
    tid = "left-neutral-element"
    n, k = inst
    rows = batch.row_array(n, False)
    tables = batch.product_tables(rows, k)
    assoc = batch.space_verdicts("associative", n, k, False)
    cancel = batch.left_cancellative_mask(tables)
    neutral = batch.left_neutral_mask(tables)
    bad = np.flatnonzero(assoc & (cancel != neutral))
    if bad.size:
        b = int(bad[0])
        return _failed(tid, n, k, _row_witness(rows, b, f"cancellative={bool(cancel[b])} neutral={bool(neutral[b])}"))
    return _passed(tid, n, k)


def _run_left_unitary_semigroup_criterion(inst):
    tid = "left-unitary-semigroup-criterion"
    n, k = inst
    table = table_from_sequence(left_unitary_groupoid(n, k))
    got = check(table, "associative")[0]
    closed = (k + k * k) % n == 0
    if got != closed or left_unitary_characterize(n, k)["associative"] != closed:
        return _failed(tid, n, k, {"closed-form": closed, "table": got})
    return _passed(tid, n, k)


def _instances_block_product(max_n: int) -> list[tuple]:
    return [(k * k + k, k) for k in range(1, max_n) if k * k + k <= max_n]


def _run_block_product_formula(inst):
    tid = "block-product-formula"
    n, k = inst
    table = block_product_table(k)
    if table != table_from_sequence(left_unitary_groupoid(n, k)):
        return _failed(tid, n, k, {"note": "block formula differs from the generated table"})
    if not check(table, "associative")[0] or not check(table, "left-cancellative")[0]:
        return _failed(tid, n, k, {"note": "block product is not a left cancellative semigroup"})
    if k >= 2 and (check(table, "commutative")[0] or check(table, "quasigroup")[0]):
        return _failed(tid, n, k, {"note": "block product unexpectedly commutative or cancellable"})
    for col in range(1, n + 1):
        counts = {}
        for x in range(1, n + 1):
            v = table.entry(x, col)
            counts[v] = counts.get(v, 0) + 1
        if set(counts.values()) != {k} or len(counts) != n // k:
            return _failed(tid, n, k, {"column": col, "note": f"solvable equations do not have exactly {k} solutions"})
    return _passed(tid, n, k)


# --- cancellative semigroups -------------------------------------------------

def _run_left_unitary_reordering(inst):
    tid = "left-unitary-reordering"
    n, k = inst
    canonical = table_from_sequence(left_unitary_groupoid(n, k))
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        ak = seq.seq[k - 1]
        ordering = Ordering(tuple(mod_rep(-ak - k + s - 2, n) for s in range(1, n + 1)))
        shuffled = reorder(table, ordering)
        front = ordering.perm[0]
        if any(table.entry(front, ordering.perm[s - 1]) != ordering.perm[s - 1] for s in range(1, n + 1)):
            return _failed(tid, n, k, {"row": list(seq.seq), "note": "promised front element is not left neutral"})
        if not is_translatable(shuffled, k):
            return _failed(tid, n, k, {"row": list(seq.seq), "note": "reordering lost the step"})
        relabeled = CayleyTable(n, np.array(ordering.inverse().perm)[shuffled.grid])
        if relabeled != canonical:
            return _failed(tid, n, k, {"row": list(seq.seq), "note": "relabeled table is not the canonical one"})
    return _passed(tid, n, k)


def _run_cancellative_semigroup_isomorphism(inst):
    tid = "cancellative-semigroup-isomorphism"
    n, k = inst
    rows = cancellative_semigroups(n, k)
    for a in range(len(rows)):
        for b in range(a, len(rows)):
            iso = iso_left_unitary(rows[a], rows[b])
            if not iso.verified:
                return _failed(tid, n, k, {"first": list(rows[a].seq), "second": list(rows[b].seq)})
    return _passed(tid, n, k, {"rows": len(rows)})


def _instances_top_step(max_n: int) -> list[tuple]:
    return [(n, n - 1) for n in range(2, max_n + 1)]


def _run_ascending_sequence_cyclic(inst):
    tid = "ascending-sequence-cyclic"
    n, k = inst
    for c in range(n):
        seq = KSequence(n, k, tuple(mod_rep(i + c, n) for i in range(1, n + 1)))
        iso = iso_to_cyclic(table_from_sequence(seq))
        if iso is None or not iso.verified:
            return _failed(tid, n, k, {"row": list(seq.seq), "note": "ascending row is not a cyclic group"})
    return _passed(tid, n, k)


def _run_top_step_cyclic(inst):
    tid = "top-step-cyclic"
    n, k = inst
    found = cancellative_semigroups(n, k)
    if len(found) != n:
        return _failed(tid, n, k, {"count": len(found)})
    for seq in found:
        iso = iso_to_cyclic(table_from_sequence(seq))
        if iso is None or not iso.verified:
            return _failed(tid, n, k, {"row": list(seq.seq), "note": "top step semigroup is not the cyclic group"})
    return _passed(tid, n, k)


def _run_no_idempotent_semigroup(inst):
    tid = "no-idempotent-semigroup"
    n, k = inst
    rows = batch.row_array(n, False)
    tables = batch.product_tables(rows, k)
    both = batch.idempotent_mask(tables) & batch.space_verdicts("associative", n, k, False)
    hit = np.flatnonzero(both)
    if hit.size:
        return _failed(tid, n, k, _row_witness(rows, int(hit[0]), "idempotent semigroup found"))
    return _passed(tid, n, k)


def _run_idempotent_set_formula(inst):
    tid = "idempotent-set-formula"
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        observed = idempotent_set(table)
        if observed != idempotent_set_formula(seq):
            return _failed(tid, n, k, {"row": list(seq.seq), "observed": sorted(observed)})
        if observed != frozenset(left_neutral_elements(table)):
            return _failed(tid, n, k, {"row": list(seq.seq), "note": "idempotents differ from left neutrals"})
        for e in observed:
            for f in observed:
                if table.entry(e, f) != f:
                    return _failed(tid, n, k, {"row": list(seq.seq), "e": e, "f": f, "note": "not a right zero band"})
    return _passed(tid, n, k)


def _run_idempotent_set_left_unitary(inst):
    tid = "idempotent-set-left-unitary"
    n, k = inst
    table = table_from_sequence(left_unitary_groupoid(n, k))
    observed = idempotent_set(table)
    formula = left_unitary_idempotents(n, k)
    if observed != formula or len(observed) != math.gcd(n, k):
        return _failed(tid, n, k, {"observed": sorted(observed), "formula": sorted(formula)})
    return _passed(tid, n, k)


def _run_right_cancellative_semigroup(inst):
    tid = "right-cancellative-semigroup"
    n, k = inst
    rows = batch.row_array(n, True)
    tables = batch.product_tables(rows, k)
    strong = batch.space_verdicts("associative", n, k, True) & batch.right_cancellative_mask(tables)
    hits = np.flatnonzero(strong)
    if k != n - 1:
        if hits.size:
            return _failed(tid, n, k, _row_witness(rows, int(hits[0]), "right cancellative semigroup away from step n-1"))
        return _passed(tid, n, k)
    for b in hits:
        seq = _np_seq(n, k, rows[b])
        iso = iso_to_cyclic(table_from_sequence(seq))
        if iso is None or not iso.verified:
            return _failed(tid, n, k, {"row": list(seq.seq), "note": "not the cyclic group"})
    return _passed(tid, n, k)


def _run_anchor_value_cyclic(inst):
    tid = "anchor-value-cyclic"
    n, k = inst
    hits = 0
    for seq in cancellative_semigroups(n, k):
        if seq.seq[k - 1] not in (1, n - 1):
            continue
        hits += 1
        iso = iso_to_cyclic(table_from_sequence(seq))
        if iso is None or not iso.verified:
            return _failed(tid, n, k, {"row": list(seq.seq), "anchor": seq.seq[k - 1]})
    return _passed(tid, n, k, {"rows": hits})


# --- decomposition -----------------------------------------------------------

def _run_cyclic_decomposition(inst):
    tid = "cyclic-decomposition"
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        try:
            dec = decompose(table, seq)
        except TranslatableError as err:
            return _failed(tid, n, k, {"row": list(seq.seq), "error": str(err)})
        if dec.m != n // math.gcd(n, k) or dec.t != math.gcd(n, k):
            return _failed(tid, n, k, {"row": list(seq.seq), "m": dec.m, "t": dec.t})
    return _passed(tid, n, k)


def _component_table(table: CayleyTable, comp: tuple[int, ...]) -> CayleyTable:
    members = np.array(comp) - 1
    index = np.zeros(table.n, dtype=np.int64)
    index[members] = np.arange(1, len(comp) + 1)
    return CayleyTable(len(comp), index[table.grid[np.ix_(members, members)]])


def _run_ideal_partition(inst):
    tid = "ideal-partition"
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        dec = decompose(table, seq)
        listed = {ideal.elements for ideal in ideals(table, "left", bound=max(n, 14))}
        for comp in dec.components:
            members = set(comp)
            for q in range(1, n + 1):
                for c in comp:
                    if table.entry(q, c) not in members:
                        return _failed(tid, n, k, {"row": list(seq.seq), "component": list(comp), "note": "not a left ideal"})
            if comp not in listed:
                return _failed(tid, n, k, {"row": list(seq.seq), "component": list(comp), "note": "component missing from the ideal list"})
            iso = iso_to_cyclic(_component_table(table, comp))
            if iso is None or not iso.verified:
                return _failed(tid, n, k, {"row": list(seq.seq), "component": list(comp), "note": "component not cyclic"})
    return _passed(tid, n, k)


def _run_block_order_decomposition(inst):
    tid = "block-order-decomposition"
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        dec = decompose(table_from_sequence(seq), seq)
        if dec.m != k + 1 or dec.t != k or len(dec.components) != k:
            return _failed(tid, n, k, {"row": list(seq.seq), "m": dec.m, "t": dec.t})
    return _passed(tid, n, k)


def _iter_subsets(n: int):
    for mask in range(1, 1 << n):
        yield tuple(x for x in range(1, n + 1) if mask >> (x - 1) & 1)


def _run_semiprime_ideals(inst):
    tid = "semiprime-ideals"
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        for side in ("left", "right"):
            listed = ideals(table, side, bound=max(n, 14))
            for ideal in listed:
                members = set(ideal.elements)
                square_in = all(
                    table.entry(x, x) not in members or x in members
                    for x in range(1, n + 1)
                )
                if not ideal.semiprime or not square_in:
                    return _failed(tid, n, k, {"row": list(seq.seq), "side": side, "ideal": list(ideal.elements)})
            if n <= 10:
                brute = set()
                for subset in _iter_subsets(n):
                    members = set(subset)
                    if side == "left":
                        closed = all(table.entry(q, s) in members for q in range(1, n + 1) for s in subset)
                    else:
                        closed = all(table.entry(s, q) in members for q in range(1, n + 1) for s in subset)
                    if closed:
                        brute.add(subset)
                if brute != {ideal.elements for ideal in listed}:
                    return _failed(tid, n, k, {"row": list(seq.seq), "side": side, "note": "ideal list differs from the subset scan"})
    return _passed(tid, n, k)


_SURVEY_ALWAYS = (
    "medial",
    "conditionally-commutative",
    "left-commutative",
    "left-regular",
    "right-regular",
    "regular",
    "intra-regular",
    "orthodox",
    "clifford-right",
)


def _run_semigroup_class_survey(inst):
    tid = "semigroup-class-survey"
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        for name in _SURVEY_ALWAYS:
            got, witness = check(table, name)
            if not got:
                return _failed(tid, n, k, {"row": list(seq.seq), "property": name,
                                           "witness": witness.as_dict() if witness else None})
        anti = check(table, "anticommutative")[0]
        if anti != (math.gcd(1 + k, n) == 1):
            return _failed(tid, n, k, {"row": list(seq.seq), "property": "anticommutative", "gcd": math.gcd(1 + k, n)})
        if math.gcd(k, n) == 1 and not check(table, "clifford-left")[0]:
            return _failed(tid, n, k, {"row": list(seq.seq), "property": "clifford-left"})
    return _passed(tid, n, k)


def _run_paramedial_cyclic(inst):
    tid = "paramedial-cyclic"
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        if not check(table, "paramedial")[0]:
            continue
        iso = iso_to_cyclic(table)
        if iso is None or not iso.verified:
            return _failed(tid, n, k, {"row": list(seq.seq), "note": "paramedial semigroup is not a cyclic group"})
    return _passed(tid, n, k)


# --- constant column semigroups ---------------------------------------------

def _constant_column_masks(rows: np.ndarray, k: int):
    n = rows.shape[1]
    idx = np.arange(n)
    crit = (rows == rows[:, (idx + k) % n]).all(axis=1)
    crit &= (np.take_along_axis(rows, rows.astype(np.int64), axis=1) == rows).all(axis=1)
    return crit


def _run_constant_column_criterion(inst):
    tid = "constant-column-criterion"
    n, k = inst
    rows = batch.row_array(n, False)
    tables = batch.product_tables(rows, k)
    assoc = batch.space_verdicts("associative", n, k, False)
    rowsame = (tables == tables[:, :1, :]).all(axis=(1, 2))
    crit = _constant_column_masks(rows, k)
    bad = np.flatnonzero((assoc & rowsame) != crit)
    if bad.size:
        return _failed(tid, n, k, _row_witness(rows, int(bad[0]), "criterion against associativity with constant columns"))
    produced = {seq.seq for seq in constant_column_semigroups(n, k)}
    swept = {tuple(int(v) + 1 for v in rows[b]) for b in np.flatnonzero(crit)}
    if produced != swept:
        return _failed(tid, n, k, {"produced": len(produced), "swept": len(swept)})
    d = math.gcd(k, n)
    for row in sorted(swept):
        if len(set(row)) > d:
            return _failed(tid, n, k, {"row": list(row), "note": f"more than {d} distinct values"})
    return _passed(tid, n, k, {"rows": len(swept)})


def _run_constant_column_forcing(inst):
    tid = "constant-column-forcing"
    n, k = inst
    rows = batch.row_array(n, False)
    tables = batch.product_tables(rows, k)
    assoc = batch.space_verdicts("associative", n, k, False)
    rowsame = (tables == tables[:, :1, :]).all(axis=(1, 2))
    shape1 = (rows[:, 0] == n - 1) & (rows[:, 1] == n - 1)
    shape2 = rows[:, 0] == 0
    tail = np.zeros(len(rows), dtype=bool)
    for j in range(2, n):
        tail |= rows[:, j - 1] == j
    shape2 &= tail
    bad = np.flatnonzero((shape1 | shape2) & assoc & ~rowsame)
    if bad.size:
        return _failed(tid, n, k, _row_witness(rows, int(bad[0]), "bent first row with a non-constant semigroup"))
    return _passed(tid, n, k)


def _anchor_conditions(row: list[int], j: int, k: int) -> bool:
    """The anchor conditions on row j of a table, given as a 1-based list."""
    n = len(row)
    for s in range(1, n + 1):
        base = row[mod_rep(j - 1 + s, n) - 1]
        if row[mod_rep(j - 1 + s - k, n) - 1] != base:
            return False
        if row[mod_rep(j - 1 + s + k, n) - 1] != base:
            return False
        if row[mod_rep(j - 1 + base, n) - 1] != base:
            return False
    return True


def _run_idempotent_anchor_semigroup(inst):
    tid = "idempotent-anchor-semigroup"
    n, k = inst
    rows = batch.row_array(n, False)
    assoc = batch.space_verdicts("associative", n, k, False)
    for b, table in enumerate((batch.product_tables(rows, k) + 1).tolist()):
        for j in range(1, n + 1):
            row = table[j - 1]
            if row[j - 1] != j or row[mod_rep(j - 1, n) - 1] != j:
                continue
            if _anchor_conditions(row, j, k) != bool(assoc[b]):
                return _failed(tid, n, k, _row_witness(rows, b, f"anchor {j} conditions against associativity"))
    return _passed(tid, n, k)


def _run_idempotent_one_semigroup(inst):
    tid = "idempotent-one-semigroup"
    n, k = inst
    rows = batch.row_array(n, False)
    assoc = batch.space_verdicts("associative", n, k, False)
    idx = np.arange(n)
    cond = (rows == rows[:, (idx - k) % n]).all(axis=1)
    cond &= (rows == rows[:, (idx + k) % n]).all(axis=1)
    cond &= (np.take_along_axis(rows, rows.astype(np.int64), axis=1) == rows).all(axis=1)
    anchored = (rows[:, 0] == 0) & (rows[:, n - 1] == 0)
    bad = np.flatnonzero(anchored & (cond != assoc))
    if bad.size:
        return _failed(tid, n, k, _row_witness(rows, int(bad[0]), "four-way condition against associativity"))
    return _passed(tid, n, k)


# --- scaled residues and unions ---------------------------------------------

def _instances_scaled_residues(max_n: int) -> list[tuple]:
    return [(n, t) for n in range(2, max_n + 1) for t in range(1, 7)]


def _run_scaled_residues(inst):
    tid = "scaled-residues"
    n, t = inst
    for x in range(1, 3 * n + 1):
        if mod_rep(t * x, t * n) != t * mod_rep(x, n):
            return _failed(tid, n, t, {"x": x, "note": "scaling of [tx]"})
        if mod_rep(t * (x - 1), t * n) != t * mod_rep(mod_rep(x, n) - 1, n):
            return _failed(tid, n, t, {"x": x, "note": "scaling of [t(x-1)]"})
    root = int(math.isqrt(n))
    if root * root + root == n and root % t == 0:
        big = root + (t - 1) * n
        if mod_rep(big + big * big, t * n) != t * n:
            return _failed(tid, n, t, {"k": root, "note": "shifted step misses the semigroup divisibility"})
    return _passed(tid, n, t)


def _check_union(tid: str, union, n: int, k: int, step: int):
    table = union.table
    big_n = table.n
    if not is_translatable(table, step) or detect(table) != frozenset({step}):
        return _failed(tid, n, k, {"copies": union.spec.t, "note": "wrong set of steps"})
    if table != table_from_sequence(left_unitary_groupoid(big_n, step)):
        return _failed(tid, n, k, {"copies": union.spec.t, "note": "union differs from the left unitary table"})
    if not check(table, "associative")[0]:
        return _failed(tid, n, k, {"copies": union.spec.t, "note": "union is not associative"})
    lu_small = left_unitary_groupoid(n, k)
    for copy, comp in enumerate(union.copies(), start=1):
        cols = [c - 1 for c in comp]
        members = np.zeros(big_n, dtype=bool)
        members[cols] = True
        if not members[table.grid[:, cols]].all():
            return _failed(tid, n, k, {"copy": copy, "note": "copy is not a left ideal"})
        local = {x: pos for pos, x in enumerate(comp, start=1)}
        first = comp[0]
        row = tuple(local[table.entry(first, b)] for b in comp)
        seq = KSequence(n, k, row)
        if not semigroup_criterion(seq):
            return _failed(tid, n, k, {"copy": copy, "note": "copy misses the semigroup criterion"})
        if not iso_left_unitary(seq, lu_small).verified:
            return _failed(tid, n, k, {"copy": copy, "note": "copy not isomorphic to the small table"})
    return None


def _instances_union_same_step(max_n: int) -> list[tuple]:
    out = []
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for t in range(1, 9):
                if t * n > max_n or k % t:
                    continue
                if (k + k * k) % (t * n) == 0:
                    out.append((n, k, t))
    return out


def _run_union_same_step(inst):
    tid = "union-same-step"
    n, k, t = inst
    union = union_same_step(UnionSpec(n, k, t))
    bad = _check_union(tid, union, n, k, k)
    if bad:
        return bad
    return _passed(tid, n, k, {"copies": t, "order": t * n})


def _instances_union_shifted_step(max_n: int) -> list[tuple]:
    out = []
    for k in range(1, max_n):
        n = k + k * k
        if n > max_n:
            break
        for t in range(1, k + 1):
            if k % t == 0 and t * n <= max_n:
                out.append((n, k, t))
    return out


def _run_union_shifted_step(inst):
    tid = "union-shifted-step"
    n, k, t = inst
    union = union_shifted_step(UnionSpec(n, k, t))
    bad = _check_union(tid, union, n, k, k + (t - 1) * n)
    if bad:
        return bad
    return _passed(tid, n, k, {"copies": t, "order": t * n, "step": k + (t - 1) * n})


def _instances_pair_union(max_n: int) -> list[tuple]:
    return [(k * k + k, k) for k in range(2, max_n) if 2 * (k * k + k) <= max_n]


def _run_pair_union(inst):
    tid = "pair-union"
    n, k = inst
    if k % 2:
        try:
            pair_union(k)
        except ConstructionError:
            return _passed(tid, n, k, {"note": "odd step rejected"})
        return _failed(tid, n, k, {"note": "odd step accepted"})
    union = pair_union(k)
    table = union.table
    q = k // 2
    odds = tuple(range(1, 2 * n + 1, 2))
    evens = tuple(range(2, 2 * n + 1, 2))
    if {table.entry(a, b) for a in odds for b in evens} != set(evens):
        return _failed(tid, n, k, {"note": "odd times even does not cover the even copy"})
    if {table.entry(a, b) for a in evens for b in odds} != set(odds):
        return _failed(tid, n, k, {"note": "even times odd does not cover the odd copy"})
    small = table_from_sequence(left_unitary_groupoid(n, k))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if table.entry(2 * i - 1, 2 * j - 1) != 2 * small.entry(i, j) - 1:
                return _failed(tid, n, k, {"i": i, "j": j, "note": "odd copy changed its products"})
            if table.entry(2 * i - 1, 2 * j) != 2 * mod_rep(k - k * i + j, n):
                return _failed(tid, n, k, {"i": i, "j": j, "note": "odd times even misses its formula"})
            if table.entry(2 * i, 2 * j - 1) != 2 * mod_rep(k * (1 + q) - k * i + j, n) - 1:
                return _failed(tid, n, k, {"i": i, "j": j, "note": "even times odd misses its formula"})
            if table.entry(2 * i, 2 * j) != 2 * mod_rep(k * (1 + q) - k * i + j, n):
                return _failed(tid, n, k, {"i": i, "j": j, "note": "even times even misses its formula"})
    row = tuple(table.entry(2, 2 * j) // 2 for j in range(1, n + 1))
    if not iso_left_unitary(KSequence(n, k, row), left_unitary_groupoid(n, k)).verified:
        return _failed(tid, n, k, {"note": "even copy not isomorphic to the base table"})
    return _passed(tid, n, k, {"order": 2 * n})


def _campaigns() -> dict[str, Campaign]:
    table = [
        ("left-cancellative-propagation",
         "one left cancellable element spreads to the whole table",
         6, _all_pairs, _run_left_cancellative_propagation),
        ("unique-step",
         "a left cancellative table keeps exactly one step per ordering",
         7, _all_pairs, _run_unique_step),
        ("detection-equivalence",
         "first-row formula, row shift, and column shift describe the same tables",
         6, _all_pairs, _run_detection_equivalence),
        ("modular-conditions",
         "closed forms on the first row match cell-by-cell property checks",
         6, _all_pairs, _run_modular_conditions),
        ("idempotent-elastic-sum",
         "elasticity of idempotent tables reads as a two-term sum rule",
         12, _idempotent_pairs, _run_idempotent_elastic_sum),
        ("idempotent-distributive-symmetry",
         "idempotent tables are left distributive exactly when right distributive",
         12, _idempotent_pairs, _run_idempotent_distributive_symmetry),
        ("alterable-solvable-quasigroup",
         "alterable right-solvable right-distributive tables are idempotent quasigroups",
         6, _instances_alterable_solvable, _run_alterable_solvable_quasigroup),
        ("idempotent-existence",
         "idempotent tables exist exactly when the diagonal positions avoid collisions",
         12, _instances_idempotent_existence, _run_idempotent_existence),
        ("idempotent-isomorphism",
         "same order and step idempotent tables are isomorphic",
         12, _idempotent_pairs, _run_idempotent_isomorphism),
        ("idempotent-quasigroup",
         "idempotent tables are quasigroups exactly when gcd(k, n) = 1",
         15, _idempotent_pairs, _run_idempotent_quasigroup),
        ("right-cancellable-gcd",
         "a right cancellable element forces gcd(k, n) = 1",
         7, _all_pairs, _run_right_cancellable_gcd),
        ("alterable-cancellative-step",
         "alterable cancellative tables pin [k*k] = n-1",
         7, _all_pairs, _run_alterable_cancellative_step),
        ("alterable-square",
         "alterability of cancellative tables is the square condition",
         8, _all_pairs, _run_alterable_square),
        ("left-unitary-isomorphism",
         "tables owning a left neutral all reorder to the canonical one",
         7, _all_pairs, _run_left_unitary_isomorphism),
        ("left-unitary-medial",
         "left unitary tables are medial and never right distributive",
         12, _all_pairs, _run_left_unitary_medial),
        ("unitary-step",
         "a two-sided neutral forces the top step",
         7, _all_pairs, _run_unitary_step),
        ("group-step-cyclic",
         "groups appear only at the top step and are cyclic",
         7, _all_pairs, _run_group_step_cyclic),
        ("left-unitary-step-conditions",
         "eleven properties of left unitary tables reduce to conditions on k",
         12, _all_pairs, _run_left_unitary_step_conditions),
        ("left-unitary-modular-links",
         "modularity, paramediality, and elasticity interlock on left unitary tables",
         12, _all_pairs, _run_left_unitary_modular_links),
        ("embedding",
         "every table embeds into a larger one with the same step",
         6, _all_pairs, _run_embedding),
        ("dual-step",
         "the transpose is translatable exactly for inverse steps",
         9, _all_pairs, _run_dual_step),
        ("dual-links",
         "dual steps encode squares, scaled steps, and alterability",
         9, _all_pairs, _run_dual_links),
        ("associativity-sequence-form",
         "associativity rewrites as a nested first-row identity",
         6, _all_pairs, _run_associativity_sequence_form),
        ("semigroup-criterion",
         "associativity of cancellative tables is a first-row recurrence",
         7, _all_pairs, _run_semigroup_criterion),
        ("left-neutral-element",
         "cancellative semigroups are the ones owning a left neutral",
         6, _all_pairs, _run_left_neutral_element),
        ("left-unitary-semigroup-criterion",
         "left unitary tables are associative exactly when n divides k+k*k",
         24, _all_pairs, _run_left_unitary_semigroup_criterion),
        ("block-product-formula",
         "the block product formula reproduces the left unitary semigroup",
         72, _instances_block_product, _run_block_product_formula),
        ("left-unitary-reordering",
         "every cancellative semigroup reorders to the left unitary presentation",
         12, _criterion_pairs, _run_left_unitary_reordering),
        ("cancellative-semigroup-isomorphism",
         "cancellative semigroups of equal order and step are isomorphic",
         12, _criterion_pairs, _run_cancellative_semigroup_isomorphism),
        ("ascending-sequence-cyclic",
         "ascending first rows at the top step give cyclic groups",
         12, _instances_top_step, _run_ascending_sequence_cyclic),
        ("top-step-cyclic",
         "cancellative semigroups at the top step are the cyclic group",
         9, _instances_top_step, _run_top_step_cyclic),
        ("no-idempotent-semigroup",
         "no translatable semigroup is idempotent",
         6, _all_pairs, _run_no_idempotent_semigroup),
        ("idempotent-set-formula",
         "idempotents form a right zero band of left neutrals with a closed form",
         24, _criterion_pairs, _run_idempotent_set_formula),
        ("idempotent-set-left-unitary",
         "idempotents of the left unitary semigroup follow the stride formula",
         24, _criterion_pairs, _run_idempotent_set_left_unitary),
        ("right-cancellative-semigroup",
         "right cancellative semigroups live at the top step and are cyclic",
         7, _all_pairs, _run_right_cancellative_semigroup),
        ("anchor-value-cyclic",
         "anchor entries 1 and n-1 force the cyclic group",
         24, _criterion_pairs, _run_anchor_value_cyclic),
        ("cyclic-decomposition",
         "cancellative semigroups split into gcd(n, k) cyclic groups",
         24, _criterion_pairs, _run_cyclic_decomposition),
        ("ideal-partition",
         "decomposition components are isomorphic left ideals",
         12, _criterion_pairs, _run_ideal_partition),
        ("block-order-decomposition",
         "order k+k*k semigroups split into k copies of the cyclic group",
         42, _instances_block_product, _run_block_order_decomposition),
        ("semiprime-ideals",
         "every one-sided ideal of a cancellative semigroup is semiprime",
         12, _criterion_pairs, _run_semiprime_ideals),
        ("semigroup-class-survey",
         "cancellative semigroups land in the classical regularity classes",
         18, _criterion_pairs, _run_semigroup_class_survey),
        ("paramedial-cyclic",
         "paramedial cancellative semigroups are cyclic groups",
         18, _criterion_pairs, _run_paramedial_cyclic),
        ("constant-column-criterion",
         "column-constant semigroups are cut out by a two-part recurrence",
         6, _all_pairs, _run_constant_column_criterion),
        ("constant-column-forcing",
         "two first-row shapes force column-constant multiplication",
         6, _all_pairs, _run_constant_column_forcing),
        ("idempotent-anchor-semigroup",
         "an anchored idempotent reduces associativity to one row",
         5, _all_pairs, _run_idempotent_anchor_semigroup),
        ("idempotent-one-semigroup",
         "idempotent 1 with 1 = 1*n reduces associativity to four equalities",
         6, _all_pairs, _run_idempotent_one_semigroup),
        ("scaled-residues",
         "residues scale cleanly from modulus n to modulus tn",
         12, _instances_scaled_residues, _run_scaled_residues),
        ("union-same-step",
         "disjoint copies merge into one semigroup with the same step",
         64, _instances_union_same_step, _run_union_same_step),
        ("union-shifted-step",
         "disjoint copies merge into one semigroup with a lifted step",
         600, _instances_union_shifted_step, _run_union_shifted_step),
        ("pair-union",
         "two copies interleave on odd and even labels",
         160, _instances_pair_union, _run_pair_union),
    ]
    registry = {}
    for theorem_id, summary, bound, instances, run in table:
        registry[theorem_id] = Campaign(theorem_id, summary, bound, instances, run)
    return registry


THEOREMS = _campaigns()
