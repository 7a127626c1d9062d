"""One exhaustive verification campaign per supported structural claim.

Every campaign replays a statement about k-translatable groupoids at desk
scale: the fast side (a closed form on the first row, a constructed table,
or a counting formula) is compared against an independent definitional
sweep, usually over every candidate first row.  A campaign never trusts
the closed form it is checking; the oracle side only reads table cells.

Each campaign is declared once, by the _campaign decorator directly above
its runner: its id, summary, default bound and instance window.  The
decorator adds it to THEOREMS, in the order the runners are defined.
Campaign granularity is one result per (n, k) instance.  A runner takes
one instance and returns only its outcome, a (status, witness) pair; it
never names itself.  Campaign.result labels that outcome with the id it
was declared under and the instance's first two members as (n, k), so
every result is labelled in one place.  Failures carry a small JSON-safe
witness naming the first offending row and cell; _first_bad_row names the
first row of a row space where a verdict is wrong.  Campaign.result is
also the one place where a VerificationError from the library's own
cross-checks (decompose, the iso_* builders, the constructions) becomes
a fail with witness {"error": message}, so a runner calls those for their
checks alone and a wrong claim inside them fails its instance, not the
whole command.

A runner that sweeps a row space takes its whole-space verdicts from
batch: a mask from space_verdicts and the steps of every table or its dual
from step_verdicts, both memoised for the whole verify run, and a test of its
own from _blocks, one block of rows at a time, or from sweep_verdicts,
memoised, when two campaigns share it.  No runner builds the tables of a
whole row space: detection-equivalence takes its three descriptions of
each table from _blocks, and alterable-solvable-quasigroup goes through
the tables with permutation rows a block of row tuples at a time.  The
dual runners and unique-step name a witness row through batch.row_at.

A structural test shared with structure (right-zero band, left ideal, left
neutral in front, products of a map, cyclic group) is one function there,
called by name, so one wrong version patched in reaches every campaign on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import batch, translation
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
    VerificationError,
    mod_rep,
    reorder,
)
from .properties import (
    LCOND_NAMES,
    _distinct,
    LEFT_UNITARY_NAMES,
    check,
    lcond_check,
    lcond_verdicts,
    left_neutral_elements,
    left_unitary_characterize,
    report,
    semigroup_criterion,
    semigroup_verdicts,
)
from .structure import (
    _first_band_failure,
    _first_broken_product,
    _is_left_ideal,
    _leads_with_left_neutral,
    _unitary_reordering,
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
    _sieve,
    all_rotated_presentations,
    detect,
    dual,
    dual_step,
    is_translatable,
    table_from_sequence,
)


Outcome = tuple[str, dict | None]   # (status, witness) of one instance


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
    run: Callable[[tuple], Outcome]

    def result(self, inst: tuple) -> InstanceResult:
        """Run one instance and label its outcome.  A union's third member
        t is not part of the label, and scaled-residues' t stands as k.
        A library cross-check that raises VerificationError fails this
        instance with the error's message; every other error propagates."""
        try:
            status, witness = self.run(inst)
        except VerificationError as err:
            status, witness = _failed({"error": str(err)})
        return InstanceResult(self.theorem_id, inst[0], inst[1], status, witness)


def _passed(witness=None) -> Outcome:
    return "pass", witness


def _failed(witness) -> Outcome:
    return "fail", witness


def _expected_fail(witness) -> Outcome:
    return "expected-fail", witness


def _all_pairs(max_n: int, min_n: int = 2) -> list[tuple]:
    return [(n, k) for n in range(min_n, max_n + 1) for k in range(1, n)]


def _criterion_pairs(max_n: int) -> list[tuple]:
    return [(n, k) for n, k in _all_pairs(max_n) if (k * k + k) % n == 0]


def _idempotent_pairs(max_n: int) -> list[tuple]:
    return [(n, k) for n, k in _all_pairs(max_n) if math.gcd(k - 1, n) == 1]


THEOREMS: dict[str, Campaign] = {}


def _campaign(theorem_id: str, summary: str, default_max_n: int, instances=_all_pairs):
    """Register the decorated runner as a campaign.  THEOREMS keeps the order
    in which the runners are defined, the order `verify --theorem list` prints."""

    def register(run):
        THEOREMS[theorem_id] = Campaign(theorem_id, summary, default_max_n, instances, run)
        return run

    return register


def _np_seq(n: int, k: int, row) -> KSequence:
    return KSequence(n, k, tuple(int(v) + 1 for v in row))


def _first_bad_row(rows, bad: np.ndarray, note) -> Outcome | None:
    """The failure naming row b of rows (a (B, n) stack, or an (n, permutation_only) space
    read by batch.row_at) for the first b where bad is set, or None; note is the note or a function of b."""
    hit = np.flatnonzero(bad)
    if not hit.size:
        return None
    b = int(hit[0])
    row = batch.row_at(*rows, b) if isinstance(rows, tuple) else rows[b]
    return _failed({"row": [int(v) + 1 for v in row], "note": note(b) if callable(note) else note})


def _first_not_cyclic(seqs, note) -> Outcome | None:
    """The failure naming the first of seqs whose table is not the cyclic group."""
    for seq in seqs:
        if iso_to_cyclic(table_from_sequence(seq)) is None:
            return _failed({"row": list(seq.seq), "note": note})
    return None


def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


# --- propagation of cancellativity ------------------------------------------

@_campaign("left-cancellative-propagation", "one left cancellable element spreads to the whole table", 6)
def _run_left_cancellative_propagation(inst):
    n, k = inst
    row_is_perm = batch._blocks(n, k, False, lambda tables: _distinct(tables, 2).T)   # [row, table]
    bad = row_is_perm.any(axis=0) & ~row_is_perm.all(axis=0)
    note = "one cancellable element without full cancellativity"
    return _first_bad_row(batch.row_array(n, False), bad, note) or _passed()


@_campaign("unique-step", "a left cancellative table keeps exactly one step per ordering", 7)
def _run_unique_step(inst):
    n, k = inst
    steps = batch.step_verdicts(n, k, False)
    if not steps[k].all():
        return _failed({"note": "generated table lost its own step"})
    rows = (n, True)
    for other in range(1, n):
        failure = _first_bad_row(rows, steps[other], f"also translatable with step {other}") if other != k else None
        if failure:
            return failure
    return _passed()


def _descriptions(tables: np.ndarray, k: int) -> np.ndarray:
    """[0] first-row formula, [1] row shift, [2] column shift: does each
    table of the stack read as step-k translatable that way?  The column
    shift, row i + 1 equal to row i moved right by k, is read one row at a
    time, so no rolled copy of the whole stack is made."""
    n = tables.shape[1]
    by_columns = np.ones(len(tables), dtype=bool)
    for i in range(n):
        by_columns &= (np.roll(tables[:, i], k, axis=1) == tables[:, (i + 1) % n]).all(axis=1)
    return np.stack([
        (tables == batch.product_tables(tables[:, 0, :], k)).all(axis=(1, 2)),
        batch.translatable_mask(tables, k),
        by_columns,
    ])


def _all_grids(n: int) -> np.ndarray:
    """Every (n, n) grid of 0-based values below n, in lexicographic order of
    its cells read row by row (np.indices varies its last axis fastest); a
    view with the grid axis innermost, as batch.product_tables lays out tables."""
    return np.indices((n,) * (n * n), dtype=np.int8).reshape(n * n, -1).T.reshape(-1, n, n)


@_campaign("detection-equivalence", "first-row formula, row shift, and column shift describe the same tables", 6)
def _run_detection_equivalence(inst):
    n, k = inst
    if n > 3:
        by_formula, by_shift, by_columns = batch._blocks(n, k, False, lambda tables: _descriptions(tables, k))
        if not (by_formula.all() and by_shift.all() and by_columns.all()):
            return _failed({"note": "a generated table failed one of the three descriptions"})
        return _passed()
    grids = _all_grids(n)
    by_formula, by_shift, by_columns = _descriptions(grids, k)
    disagree = np.flatnonzero((by_formula != by_shift) | (by_shift != by_columns))
    if disagree.size:
        b = int(disagree[0])
        return _failed({
            "table": [[int(v) + 1 for v in r] for r in grids[b]],
            "note": "first-row formula, row shift, and column shift disagree",
        })
    return _passed()


@_campaign("modular-conditions", "closed forms on the first row match cell-by-cell property checks", 6)
def _run_modular_conditions(inst):
    n, k = inst
    rows = batch.row_array(n, True)
    masks = np.stack([batch.space_verdicts(name, n, k, True) for name in LCOND_NAMES], axis=1)
    wrong = np.stack([lcond_verdicts(rows, k, name) for name in LCOND_NAMES], axis=1) != masks
    # Row 0 again, through lcond_check: this adds no check, as lcond_check is
    # the one-row case of lcond_verdicts.  It stays while bench/tracing.py
    # predicts a properties.closed_form/lcond_check span on verify-rowspace.
    first = _np_seq(n, k, rows[0])
    wrong[0] |= np.array([lcond_check(first, name) for name in LCOND_NAMES]) != masks[0]
    if wrong.any():
        b, c = np.unravel_index(int(wrong.argmax()), wrong.shape)
        return _failed({
            "row": [int(v) + 1 for v in rows[b]],
            "property": LCOND_NAMES[c],
            "closed-form": not masks[b, c],
            "table": bool(masks[b, c]),
        })
    return _passed()


# --- idempotent groupoids ----------------------------------------------------

@_campaign("idempotent-elastic-sum", "elasticity of idempotent tables reads as a two-term sum rule",
           12, _idempotent_pairs)
def _run_idempotent_elastic_sum(inst):
    n, k = inst
    table = table_from_sequence(idempotent_groupoid(n, k))
    grid, elements = table.grid, np.arange(n)
    # [i*j + j*i] = [i + j], written on 0-based elements and products
    fast = not ((elements[:, None] + elements - grid - grid.T) % n).any()
    slow = check(table, "elastic")[0]
    if fast != slow:
        return _failed({"sum-rule": fast, "elastic": slow})
    return _passed()


@_campaign("idempotent-distributive-symmetry",
           "idempotent tables are left distributive exactly when right distributive",
           12, _idempotent_pairs)
def _run_idempotent_distributive_symmetry(inst):
    n, k = inst
    table = table_from_sequence(idempotent_groupoid(n, k))
    left = check(table, "left-distributive")[0]
    right = check(table, "right-distributive")[0]
    if left != right:
        return _failed({"left-distributive": left, "right-distributive": right})
    return _passed()


def _instances_alterable_solvable(max_n: int) -> list[tuple]:
    free = [(n, None) for n in range(2, min(max_n, 4) + 1)]
    return free + _all_pairs(max_n)


@_campaign("alterable-solvable-quasigroup",
           "alterable right-solvable right-distributive tables are idempotent quasigroups",
           6, _instances_alterable_solvable)
def _run_alterable_solvable_quasigroup(inst):
    n, k = inst
    rows = batch.row_array(n, True)
    if k is None:
        # every table with permutation rows, not only translatable ones, in
        # the lexicographic order of their row tuples, a block of tuples at
        # a time (n <= 4, so every index is below 24 and fits int8)
        picks = np.indices((len(rows),) * n, dtype=np.int8).reshape(n, -1).T
        blocks = (rows[picked] for picked in batch._row_blocks(picks))
        stacks = (tables[batch.alterable_mask(tables)] for tables in blocks)
    else:
        # right solvability forces a permutation first row here
        stacks = [batch.product_tables(rows[batch.space_verdicts("alterable", n, k, True)], k)]
    # Each mask runs only on the tables kept so far, if any; they stay in
    # order, so the first table left is the first bad one of the space.
    for tables in stacks:
        if len(tables):
            tables = tables[batch.right_distributive_mask(tables)]
        if len(tables):
            tables = tables[~(batch.idempotent_mask(tables) & batch.quasigroup_mask(tables))]
        if len(tables):
            return _failed({
                "table": [[int(v) + 1 for v in r] for r in tables[0]],
                "note": "alterable right-solvable right-distributive but not an idempotent quasigroup",
            })
    return _passed()


def _instances_idempotent_existence(max_n: int) -> list[tuple]:
    return [(n, k) for n in range(2, max_n + 1) for k in range(2, n)]


@_campaign("idempotent-existence", "idempotent tables exist exactly when the diagonal positions avoid collisions",
           12, _instances_idempotent_existence)
def _run_idempotent_existence(inst):
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
            return _failed({"row": list(seq.seq), "note": "construction lost a promised property"})
        return _passed()
    try:
        seq = idempotent_groupoid(n, k)
    except ConstructionError as err:
        witness = {"obstruction": err.obstruction}
        if n <= 7:
            rows = batch.row_array(n, False)
            witness["exhausted-rows"] = int(rows.shape[0])
            hits = batch.space_verdicts("idempotent", n, k, False)
            return _first_bad_row(rows, hits, "an idempotent table exists despite the collision") or _expected_fail(witness)
        return _expected_fail(witness)
    return _failed({"row": list(seq.seq), "note": "construction succeeded where positions must collide"})


@_campaign("idempotent-isomorphism", "same order and step idempotent tables are isomorphic", 12, _idempotent_pairs)
def _run_idempotent_isomorphism(inst):
    n, k = inst
    seq = idempotent_groupoid(n, k)
    for _, rotated in all_rotated_presentations(seq):
        iso_idempotent(seq, rotated)
    if n <= 7:
        count = int(batch.space_verdicts("idempotent", n, k, True).sum())
        if count != 1:
            return _failed({"count": count, "note": "idempotent table not unique"})
    return _passed()


@_campaign("idempotent-quasigroup", "idempotent tables are quasigroups exactly when gcd(k, n) = 1",
           15, _idempotent_pairs)
def _run_idempotent_quasigroup(inst):
    n, k = inst
    table = table_from_sequence(idempotent_groupoid(n, k))
    got, witness = check(table, "quasigroup")
    expect = math.gcd(k, n) == 1
    if got != expect:
        return _failed({
            "gcd": math.gcd(k, n),
            "quasigroup": got,
            "witness": witness.as_dict() if witness else None,
        })
    return _passed()


@_campaign("right-cancellable-gcd", "a right cancellable element forces gcd(k, n) = 1", 7)
def _run_right_cancellable_gcd(inst):
    n, k = inst
    if math.gcd(k, n) == 1:
        table = table_from_sequence(left_unitary_groupoid(n, k))
        if not check(table, "right-cancellative")[0]:
            return _failed({"note": "no right cancellable element found where one must exist"})
        return _passed()
    perm = n > 6
    hits = batch._blocks(n, k, perm, lambda tables: _distinct(tables, 1).any(axis=1))
    note = "right cancellable element with gcd(k, n) > 1"
    return _first_bad_row(batch.row_array(n, perm), hits, note) or _passed()


# --- alterability and steps --------------------------------------------------

@_campaign("alterable-cancellative-step", "alterable cancellative tables pin [k*k] = n-1", 7)
def _run_alterable_cancellative_step(inst):
    n, k = inst
    if mod_rep(k * k, n) == n - 1:
        return _passed()
    # One sweep over the permutation rows, the left cancellative tables,
    # covers the right cancellative ones too: column j reads the first row
    # at positions (j - k*i) mod n, n distinct values only if those cover
    # 0..n-1, so a right cancellative table has a permutation first row.
    alter = batch.space_verdicts("alterable", n, k, True)
    note = "cancellative alterable table with [k*k] != n-1"
    return _first_bad_row(batch.row_array(n, True), alter, note) or _passed()


@_campaign("alterable-square", "alterability of cancellative tables is the square condition", 8)
def _run_alterable_square(inst):
    n, k = inst
    alter = batch.space_verdicts("alterable", n, k, True)
    closed = mod_rep(k * k, n) == n - 1
    note = f"alterable={not closed} against closed form"
    return _first_bad_row(batch.row_array(n, True), alter != closed, note) or _passed()


@_campaign("left-unitary-isomorphism", "tables owning a left neutral all reorder to the canonical one", 7)
def _run_left_unitary_isomorphism(inst):
    n, k = inst
    canonical = table_from_sequence(left_unitary_groupoid(n, k))
    rows = batch.row_array(n, True)
    holders = np.flatnonzero(batch.space_verdicts("left-unitary", n, k, True))
    if holders.size != n // math.gcd(k, n):
        return _failed({"count": int(holders.size), "note": "unexpected number of tables owning a left neutral"})
    for b in holders:
        seq = _np_seq(n, k, rows[b])
        table = table_from_sequence(seq)
        e = left_neutral_elements(table)[0]
        phi = (np.arange(n) + e - 1) % n    # x -> [x + e - 1], 0-based
        bad = _first_broken_product(canonical.grid, phi, table.grid)
        if bad:
            return _failed({
                "row": list(seq.seq), "x": bad[0], "y": bad[1],
                "note": "shift map to the canonical table breaks a product",
            })
    return _passed()


@_campaign("left-unitary-medial", "left unitary tables are medial and never right distributive", 12)
def _run_left_unitary_medial(inst):
    n, k = inst
    table = table_from_sequence(left_unitary_groupoid(n, k))
    medial, med_wit = check(table, "medial")
    rdist = check(table, "right-distributive")[0]
    if not medial:
        return _failed({"witness": med_wit.as_dict() if med_wit else None})
    if rdist:
        return _failed({"note": "left unitary table is right distributive"})
    return _passed()


@_campaign("unitary-step", "a two-sided neutral forces the top step", 7)
def _run_unitary_step(inst):
    n, k = inst
    rows = batch.row_array(n, True)
    has_unit = batch.space_verdicts("unitary", n, k, True)
    if k != n - 1:
        return _first_bad_row(rows, has_unit, "two-sided neutral away from step n-1") or _passed()
    if not has_unit.any():
        return _failed({"note": "no table with a two-sided neutral at the top step"})
    return _passed()


@_campaign("group-step-cyclic", "groups appear only at the top step and are cyclic", 7)
def _run_group_step_cyclic(inst):
    n, k = inst
    rows = batch.row_array(n, True)
    group_like = batch.space_verdicts("associative", n, k, True) & batch.space_verdicts("quasigroup", n, k, True)
    if k != n - 1:
        return _first_bad_row(rows, group_like, "associative quasigroup away from step n-1") or _passed()
    hits = np.flatnonzero(group_like)
    if not hits.size:
        return _failed({"note": "no group found at the top step"})
    return _first_not_cyclic((_np_seq(n, k, rows[b]) for b in hits), "group is not cyclic") or _passed()


@_campaign("left-unitary-step-conditions", "eleven properties of left unitary tables reduce to conditions on k", 12)
def _run_left_unitary_step_conditions(inst):
    n, k = inst
    table = table_from_sequence(left_unitary_groupoid(n, k))
    chars = left_unitary_characterize(n, k)
    for name in LEFT_UNITARY_NAMES:
        got = check(table, name)[0]
        if got != chars[name]:
            return _failed({"property": name, "closed-form": chars[name], "table": got})
    return _passed()


@_campaign("left-unitary-modular-links", "modularity, paramediality, and elasticity interlock on left unitary tables",
           12)
def _run_left_unitary_modular_links(inst):
    n, k = inst
    table = table_from_sequence(left_unitary_groupoid(n, k))
    lmod = check(table, "left-modular")[0]
    rmod = check(table, "right-modular")[0]
    para = check(table, "paramedial")[0]
    elas = check(table, "elastic")[0]
    if lmod != para:
        return _failed({"left-modular": lmod, "paramedial": para})
    if rmod and not (lmod and elas and para):
        return _failed({"right-modular": rmod, "left-modular": lmod, "elastic": elas, "paramedial": para})
    if check(table, "strongly-elastic")[0]:
        return _failed({"note": "left unitary table is strongly elastic"})
    return _passed()


def _embedding_sources(n: int, k: int) -> list[tuple[str, KSequence]]:
    sources = [("left-unitary", left_unitary_groupoid(n, k))]
    if math.gcd(k - 1, n) == 1:
        sources.append(("idempotent", idempotent_groupoid(n, k)))
    for pos, seq in enumerate(cancellative_semigroups(n, k)):
        sources.append((f"criterion-{pos}", seq))
    for pos, seq in enumerate(constant_column_semigroups(n, k)[:2]):
        sources.append((f"constant-column-{pos}", seq))
    return sources


@_campaign("embedding", "every table embeds into a larger one with the same step", 6)
def _run_embedding(inst):
    n, k = inst
    for label, seq in _embedding_sources(n, k):
        small = table_from_sequence(seq)
        for t in range(1, 4):
            big, phi = embed(seq, t)
            image = np.array([phi[i] for i in range(1, n + 1)]) - 1
            bad = _first_broken_product(small.grid, image, big.grid)   # phi(i*j) != phi(i)*phi(j)
            if bad:
                return _failed({
                    "source": label, "copies": t, "i": bad[0], "j": bad[1],
                    "note": "image product disagrees with embedded product",
                })
            if not is_translatable(big, k):
                return _failed({"source": label, "copies": t, "note": "embedded table lost the step"})
            if seq.is_permutation() and not check(big, "left-cancellative")[0]:
                return _failed({"source": label, "copies": t, "note": "left cancellativity lost"})
            if seq.seq == _identity(n) and (big.grid[0] != np.arange(big.n)).any():
                return _failed({"source": label, "copies": t, "note": "left neutrality lost"})
    return _passed()


# --- dual tables -------------------------------------------------------------

@_campaign("dual-step", "the transpose is translatable exactly for inverse steps", 9)
def _run_dual_step(inst):
    n, k = inst
    rows = (n, True)
    dual_masks = batch.step_verdicts(n, k, True)
    found = None
    for kstar in range(1, n):
        closed = mod_rep(k * kstar, n) == 1
        if closed:
            found = kstar
        note = f"dual missed promised step {kstar}" if closed else f"dual gained unplanned step {kstar}"
        failure = _first_bad_row(rows, dual_masks[kstar] != closed, note)
        if failure:
            return failure
    if dual_step(n, k).kstar != found:
        return _failed({"reported": dual_step(n, k).kstar, "observed": found})
    return _passed()


def _perm_alterable_mask(blocks, n: int, k: int) -> np.ndarray:
    """Alterability over permutation row blocks via matching product positions.

    For a permutation first row two entries agree exactly when they sit at
    the same position, so only quadruples whose left sides share a position
    need their right sides compared.  Those comparisons read only distinct
    unordered position pairs, one pair a slab of _sieve; a pair of one
    position always agrees, and on a permutation row the first pair of two
    positions already fails.  The pairs are found once for all blocks.
    """
    i, j, w = np.indices((n, n, n))
    z = (j - k * i + k * w) % n
    y1 = (w - k * j) % n
    y2 = (i - k * z) % n
    lo, hi = np.minimum(y1, y2), np.maximum(y1, y2)
    pairs = np.unique((lo * n + hi)[lo != hi]).tolist()

    def agree(chunk, pair):
        return chunk[:, pair // n] == chunk[:, pair % n]

    return np.concatenate([_sieve(rows, agree, pairs, translation.ROW_CHUNK * n * n) for rows in blocks])


@_campaign("dual-links", "dual steps encode squares, scaled steps, and alterability", 9)
def _run_dual_links(inst):
    n, k = inst
    rows = (n, True)
    dual_masks = batch.step_verdicts(n, k, True)

    closed_same = mod_rep(k * k, n) == 1
    failure = _first_bad_row(rows, dual_masks[k] != closed_same, "dual with the same step against [k*k] = 1")
    if failure:
        return failure

    lu = table_from_sequence(left_unitary_groupoid(n, k))
    if is_translatable(dual(lu), k) != check(lu, "paramedial")[0]:
        return _failed({"note": "left unitary dual step disagrees with paramediality"})

    for t in range(1, n + 1):
        kstar = mod_rep(n - t * k, n)
        if kstar == n:
            continue
        closed = mod_rep(t * k * k, n) == n - 1
        failure = _first_bad_row(rows, dual_masks[kstar] != closed, f"dual step n-{t}k against [t*k*k] = n-1")
        if failure:
            return failure

    alter = _perm_alterable_mask(batch._first_value_blocks(n, 1), n, k)
    if n <= 6 and not (alter == batch.space_verdicts("alterable", n, k, True)).all():
        return _failed({"note": "position-based alterability mask disagrees with the cell sweep"})
    return _first_bad_row(rows, alter != dual_masks[n - k], "alterable against dual step n-k") or _passed()


# --- associativity -----------------------------------------------------------

def _eas_masks(rows: np.ndarray, n: int, k: int, perm: np.ndarray):
    """Literal sequence forms of associativity, evaluated per row.

    The full form eas covers every row; the cancelled form ee1 covers only
    rows[perm], the permutation rows, where it is read.  eas is sieved
    first on the line x = y = 1, then over x, each slab spanning every
    (y, z); ee1 over x alone.
    """
    z = np.arange(1, n + 1).reshape(1, n)
    every_y = np.arange(1, n + 1).reshape(n, 1)

    def inner(chunk, slab):
        x, y = slab
        values = chunk.astype(np.intp) + 1
        inner_xy = values[:, (k - k * x + y - 1) % n]
        inner_yz = values[:, (k - k * y + z - 1) % n]
        return values, inner_xy, inner_yz

    def eas_slab(chunk, slab):
        values, inner_xy, inner_yz = inner(chunk, slab)
        flat = values.reshape(-1)
        base = (np.arange(values.shape[0]) * n).reshape(-1, 1, 1)
        lhs = flat[base + (k - k * inner_xy + z - 1) % n]
        rhs = flat[base + (k - k * slab[0] + inner_yz - 1) % n]
        return (lhs == rhs).all(axis=(1, 2))

    def ee1_slab(chunk, slab):
        _, inner_xy, inner_yz = inner(chunk, slab)
        left = (z - k * inner_xy - 1) % n
        right = (inner_yz - k * slab[0] - 1) % n
        return (left == right).all(axis=(1, 2))

    slabs = [(x, every_y) for x in range(1, n + 1)]
    eas = _sieve(rows, eas_slab, [(1, np.array([[1]])), *slabs])
    return eas, _sieve(rows[perm], ee1_slab, slabs)


@_campaign("associativity-sequence-form", "associativity rewrites as a nested first-row identity", 6)
def _run_associativity_sequence_form(inst):
    n, k = inst
    rows = batch.row_array(n, False)
    assoc = batch.space_verdicts("associative", n, k, False)
    perm = np.flatnonzero(_distinct(rows, 1))
    eas, ee1 = _eas_masks(rows, n, k, perm)
    return (
        _first_bad_row(rows, eas != assoc, "sequence form against cell associativity")
        or _first_bad_row(rows[perm], ee1 != assoc[perm], "cancelled sequence form against cell associativity")
        or _passed()
    )


@_campaign("semigroup-criterion", "associativity of cancellative tables is a first-row recurrence", 7)
def _run_semigroup_criterion(inst):
    n, k = inst
    rows = batch.row_array(n, True)
    assoc = batch.space_verdicts("associative", n, k, True)
    crit = semigroup_verdicts(rows, k)
    return _first_bad_row(
        rows, crit != assoc, lambda b: f"criterion={bool(crit[b])} associative={bool(assoc[b])}"
    ) or _passed()


@_campaign("left-neutral-element", "cancellative semigroups are the ones owning a left neutral", 6)
def _run_left_neutral_element(inst):
    n, k = inst
    assoc = batch.space_verdicts("associative", n, k, False)
    cancel = batch.space_verdicts("left-cancellative", n, k, False)
    neutral = batch.space_verdicts("left-unitary", n, k, False)
    return _first_bad_row(
        batch.row_array(n, False), assoc & (cancel != neutral),
        lambda b: f"cancellative={bool(cancel[b])} neutral={bool(neutral[b])}",
    ) or _passed()


@_campaign("left-unitary-semigroup-criterion", "left unitary tables are associative exactly when n divides k+k*k", 24)
def _run_left_unitary_semigroup_criterion(inst):
    n, k = inst
    table = table_from_sequence(left_unitary_groupoid(n, k))
    got = check(table, "associative")[0]
    closed = (k + k * k) % n == 0
    if got != closed or left_unitary_characterize(n, k)["associative"] != closed:
        return _failed({"closed-form": closed, "table": got})
    return _passed()


def _instances_block_product(max_n: int) -> list[tuple]:
    return [(k * k + k, k) for k in range(1, max_n) if k * k + k <= max_n]


@_campaign("block-product-formula", "the block product formula reproduces the left unitary semigroup",
           72, _instances_block_product)
def _run_block_product_formula(inst):
    n, k = inst
    table = block_product_table(k)
    if table != table_from_sequence(left_unitary_groupoid(n, k)):
        return _failed({"note": "block formula differs from the generated table"})
    if not check(table, "associative")[0] or not check(table, "left-cancellative")[0]:
        return _failed({"note": "block product is not a left cancellative semigroup"})
    if k >= 2 and (check(table, "commutative")[0] or check(table, "quasigroup")[0]):
        return _failed({"note": "block product unexpectedly commutative or cancellable"})
    # counts[c, v]: how many x solve x*c = v, that is how often v fills column c
    counts = np.bincount((table.grid + n * np.arange(n)).ravel(), minlength=n * n).reshape(n, n)
    present = counts > 0
    bad = (present & (counts != k)).any(axis=1) | (present.sum(axis=1) != n // k)
    if bad.any():
        col = int(bad.argmax()) + 1
        return _failed({"column": col, "note": f"solvable equations do not have exactly {k} solutions"})
    return _passed()


# --- cancellative semigroups -------------------------------------------------

@_campaign("left-unitary-reordering", "every cancellative semigroup reorders to the left unitary presentation",
           12, _criterion_pairs)
def _run_left_unitary_reordering(inst):
    n, k = inst
    canonical = table_from_sequence(left_unitary_groupoid(n, k))
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        ordering = _unitary_reordering(seq)
        shuffled = reorder(table, ordering)
        if not _leads_with_left_neutral(table.grid, ordering):
            return _failed({"row": list(seq.seq), "note": "promised front element is not left neutral"})
        if not is_translatable(shuffled, k):
            return _failed({"row": list(seq.seq), "note": "reordering lost the step"})
        relabeled = CayleyTable(n, np.array(ordering.inverse().perm)[shuffled.grid])
        if relabeled != canonical:
            return _failed({"row": list(seq.seq), "note": "relabeled table is not the canonical one"})
    return _passed()


@_campaign("cancellative-semigroup-isomorphism", "cancellative semigroups of equal order and step are isomorphic",
           12, _criterion_pairs)
def _run_cancellative_semigroup_isomorphism(inst):
    n, k = inst
    rows = cancellative_semigroups(n, k)
    for a in range(len(rows)):
        for b in range(a, len(rows)):
            iso_left_unitary(rows[a], rows[b])
    return _passed({"rows": len(rows)})


def _instances_top_step(max_n: int) -> list[tuple]:
    return [(n, n - 1) for n in range(2, max_n + 1)]


@_campaign("ascending-sequence-cyclic", "ascending first rows at the top step give cyclic groups",
           12, _instances_top_step)
def _run_ascending_sequence_cyclic(inst):
    n, k = inst
    seqs = (KSequence(n, k, tuple(mod_rep(i + c, n) for i in range(1, n + 1))) for c in range(n))
    return _first_not_cyclic(seqs, "ascending row is not a cyclic group") or _passed()


@_campaign("top-step-cyclic", "cancellative semigroups at the top step are the cyclic group", 9, _instances_top_step)
def _run_top_step_cyclic(inst):
    n, k = inst
    found = cancellative_semigroups(n, k)
    if len(found) != n:
        return _failed({"count": len(found)})
    return _first_not_cyclic(found, "top step semigroup is not the cyclic group") or _passed()


@_campaign("no-idempotent-semigroup", "no translatable semigroup is idempotent", 6)
def _run_no_idempotent_semigroup(inst):
    n, k = inst
    both = batch.space_verdicts("idempotent", n, k, False) & batch.space_verdicts("associative", n, k, False)
    return _first_bad_row(batch.row_array(n, False), both, "idempotent semigroup found") or _passed()


@_campaign("idempotent-set-formula", "idempotents form a right zero band of left neutrals with a closed form",
           24, _criterion_pairs)
def _run_idempotent_set_formula(inst):
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        observed = idempotent_set(table)
        if observed != idempotent_set_formula(seq):
            return _failed({"row": list(seq.seq), "observed": sorted(observed)})
        if observed != frozenset(left_neutral_elements(table)):
            return _failed({"row": list(seq.seq), "note": "idempotents differ from left neutrals"})
        broken = _first_band_failure(table.grid, sorted(observed))
        if broken:
            return _failed({"row": list(seq.seq), "e": broken[0], "f": broken[1], "note": "not a right zero band"})
    return _passed()


@_campaign("idempotent-set-left-unitary", "idempotents of the left unitary semigroup follow the stride formula",
           24, _criterion_pairs)
def _run_idempotent_set_left_unitary(inst):
    n, k = inst
    table = table_from_sequence(left_unitary_groupoid(n, k))
    observed = idempotent_set(table)
    formula = left_unitary_idempotents(n, k)
    if observed != formula or len(observed) != math.gcd(n, k):
        return _failed({"observed": sorted(observed), "formula": sorted(formula)})
    return _passed()


@_campaign("right-cancellative-semigroup", "right cancellative semigroups live at the top step and are cyclic", 7)
def _run_right_cancellative_semigroup(inst):
    n, k = inst
    rows = batch.row_array(n, True)
    strong = batch.space_verdicts("associative", n, k, True) & batch.space_verdicts("right-cancellative", n, k, True)
    if k != n - 1:
        return _first_bad_row(rows, strong, "right cancellative semigroup away from step n-1") or _passed()
    seqs = (_np_seq(n, k, rows[b]) for b in np.flatnonzero(strong))
    return _first_not_cyclic(seqs, "not the cyclic group") or _passed()


@_campaign("anchor-value-cyclic", "anchor entries 1 and n-1 force the cyclic group", 24, _criterion_pairs)
def _run_anchor_value_cyclic(inst):
    n, k = inst
    hits = 0
    for seq in cancellative_semigroups(n, k):
        if seq.seq[k - 1] not in (1, n - 1):
            continue
        hits += 1
        if iso_to_cyclic(table_from_sequence(seq)) is None:
            return _failed({"row": list(seq.seq), "anchor": seq.seq[k - 1]})
    return _passed({"rows": hits})


# --- decomposition -----------------------------------------------------------

@_campaign("cyclic-decomposition", "cancellative semigroups split into gcd(n, k) cyclic groups", 24, _criterion_pairs)
def _run_cyclic_decomposition(inst):
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        decompose(table_from_sequence(seq), seq)
    return _passed()


@_campaign("ideal-partition", "decomposition components are isomorphic left ideals", 12, _criterion_pairs)
def _run_ideal_partition(inst):
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        dec = decompose(table, seq)
        listed = {ideal.elements for ideal in ideals(table, "left")}
        for comp in dec.components:
            if not _is_left_ideal(table.grid, comp):
                return _failed({"row": list(seq.seq), "component": list(comp), "note": "not a left ideal"})
            if comp not in listed:
                return _failed({"row": list(seq.seq), "component": list(comp), "note": "component missing from the ideal list"})
            members = np.array(comp) - 1   # sorted: a member's place is its searchsorted index
            own = CayleyTable(len(comp), np.searchsorted(members, table.grid[np.ix_(members, members)]) + 1)
            if iso_to_cyclic(own) is None:
                return _failed({"row": list(seq.seq), "component": list(comp), "note": "component not cyclic"})
    return _passed()


@_campaign("block-order-decomposition", "order k+k*k semigroups split into k copies of the cyclic group",
           42, _instances_block_product)
def _run_block_order_decomposition(inst):
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        dec = decompose(table_from_sequence(seq), seq)
        if dec.m != k + 1 or dec.t != k or len(dec.components) != k:
            return _failed({"row": list(seq.seq), "m": dec.m, "t": dec.t})
    return _passed()


def _closed_subsets(grid: np.ndarray, side: str) -> set[int]:
    """Every nonempty S with Q*S in S (side "left") or S*Q in S ("right"),
    as a bitmask with bit x for the 0-based x.  All 2**n - 1 subsets are
    tested at once: S is closed when, for each s in S, the products q*s
    (column s) or s*q (row s) all lie in S."""
    n = len(grid)
    lines = grid.T if side == "left" else grid
    reach = np.bitwise_or.reduce(np.left_shift(1, lines, dtype=np.int64), axis=1)   # [s]: products as a mask
    subsets = np.arange(1, 1 << n)
    need = np.zeros_like(subsets)
    for s in range(n):
        need |= np.where(subsets >> s & 1, reach[s], 0)
    return set(subsets[(need & ~subsets) == 0].tolist())


@_campaign("semiprime-ideals", "every one-sided ideal of a cancellative semigroup is semiprime", 12, _criterion_pairs)
def _run_semiprime_ideals(inst):
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        diagonal = (np.diagonal(table.grid) + 1).tolist()
        for side in ("left", "right"):
            listed = ideals(table, side)
            for ideal in listed:
                members = set(ideal.elements)
                square_in = all(square not in members or x in members for x, square in enumerate(diagonal, start=1))
                if not ideal.semiprime or not square_in:
                    return _failed({"row": list(seq.seq), "side": side, "ideal": list(ideal.elements)})
            if n <= 10:
                listed_masks = {sum(1 << (x - 1) for x in ideal.elements) for ideal in listed}
                if _closed_subsets(table.grid, side) != listed_masks:
                    return _failed({"row": list(seq.seq), "side": side, "note": "ideal list differs from the subset scan"})
    return _passed()


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


@_campaign("semigroup-class-survey", "cancellative semigroups land in the classical regularity classes",
           18, _criterion_pairs)
def _run_semigroup_class_survey(inst):
    n, k = inst
    names = [*_SURVEY_ALWAYS, "anticommutative"] + (["clifford-left"] if math.gcd(k, n) == 1 else [])
    for seq in cancellative_semigroups(n, k):
        verdicts = report(table_from_sequence(seq), names)
        for name in _SURVEY_ALWAYS:
            got, witness = verdicts[name]
            if not got:
                return _failed({"row": list(seq.seq), "property": name,
                                "witness": witness.as_dict() if witness else None})
        if verdicts["anticommutative"][0] != (math.gcd(1 + k, n) == 1):
            return _failed({"row": list(seq.seq), "property": "anticommutative", "gcd": math.gcd(1 + k, n)})
        if "clifford-left" in verdicts and not verdicts["clifford-left"][0]:
            return _failed({"row": list(seq.seq), "property": "clifford-left"})
    return _passed()


@_campaign("paramedial-cyclic", "paramedial cancellative semigroups are cyclic groups", 18, _criterion_pairs)
def _run_paramedial_cyclic(inst):
    n, k = inst
    for seq in cancellative_semigroups(n, k):
        table = table_from_sequence(seq)
        if not check(table, "paramedial")[0]:
            continue
        if iso_to_cyclic(table) is None:
            return _failed({"row": list(seq.seq), "note": "paramedial semigroup is not a cyclic group"})
    return _passed()


# --- constant column semigroups ---------------------------------------------

def _constant_column_masks(rows: np.ndarray, k: int):
    """Per 0-based first row a: a[j] = a[j + k] and a[a[j]] = a[j] for every j, mod n."""
    n = rows.shape[1]
    crit = (rows == rows[:, (np.arange(n) + k) % n]).all(axis=1)
    for j in range(n):
        # one column of indices at a time: numpy casts an index array to intp whole
        crit &= np.take_along_axis(rows, rows[:, j:j + 1], axis=1)[:, 0] == rows[:, j]
    return crit


def _constant_columns(n: int, k: int) -> np.ndarray:
    """Over every step-k table of the full row space: does every row equal
    the first, so that each column is constant?  Swept once per command
    for both constant-column campaigns."""
    return batch.sweep_verdicts(
        "constant-columns", n, k, False, lambda tables: (tables == tables[:, :1, :]).all(axis=(1, 2))
    )


@_campaign("constant-column-criterion", "column-constant semigroups are cut out by a two-part recurrence", 6)
def _run_constant_column_criterion(inst):
    n, k = inst
    rows = batch.row_array(n, False)
    assoc = batch.space_verdicts("associative", n, k, False)
    crit = _constant_column_masks(rows, k)
    note = "criterion against associativity with constant columns"
    failure = _first_bad_row(rows, (assoc & _constant_columns(n, k)) != crit, note)
    if failure:
        return failure
    produced = {seq.seq for seq in constant_column_semigroups(n, k)}
    swept = {tuple(int(v) + 1 for v in rows[b]) for b in np.flatnonzero(crit)}
    if produced != swept:
        return _failed({"produced": len(produced), "swept": len(swept)})
    d = math.gcd(k, n)
    for row in sorted(swept):
        if len(set(row)) > d:
            return _failed({"row": list(row), "note": f"more than {d} distinct values"})
    return _passed({"rows": len(swept)})


@_campaign("constant-column-forcing", "two first-row shapes force column-constant multiplication", 6)
def _run_constant_column_forcing(inst):
    n, k = inst
    rows = batch.row_array(n, False)
    assoc = batch.space_verdicts("associative", n, k, False)
    shape1 = (rows[:, 0] == n - 1) & (rows[:, 1] == n - 1)
    shape2 = rows[:, 0] == 0
    tail = np.zeros(len(rows), dtype=bool)
    for j in range(2, n):
        tail |= rows[:, j - 1] == j
    shape2 &= tail
    bad = (shape1 | shape2) & assoc & ~_constant_columns(n, k)
    return _first_bad_row(rows, bad, "bent first row with a non-constant semigroup") or _passed()


def _anchor_rows(tables: np.ndarray, k: int) -> np.ndarray:
    """On 0-based tables, positions taken mod n: [0, j, b], is j anchored in
    table b, j*j = j*(j-1) = j?  [1, j, b], does row j of table b meet the
    anchor conditions: each entry v equals the entries k places either
    side of it and the entry at position j + v?"""
    b, n, _ = tables.shape
    at = np.arange(n)
    out = np.empty((2, n, b), dtype=bool)
    for j in range(n):
        row = tables[:, j, :].astype(np.intp)
        out[0, j] = (row[:, j] == j) & (row[:, (j - 1) % n] == j)
        out[1, j] = (
            (row[:, (at - k) % n] == row)
            & (row[:, (at + k) % n] == row)
            & (np.take_along_axis(row, (j + row) % n, axis=1) == row)
        ).all(axis=1)
    return out


@_campaign("idempotent-anchor-semigroup", "an anchored idempotent reduces associativity to one row", 5)
def _run_idempotent_anchor_semigroup(inst):
    n, k = inst
    anchored, holds = batch._blocks(n, k, False, lambda tables: _anchor_rows(tables, k))
    bad = anchored & (holds != batch.space_verdicts("associative", n, k, False))   # [j, b]
    return _first_bad_row(
        batch.row_array(n, False), bad.any(axis=0),
        lambda b: f"anchor {int(bad[:, b].argmax()) + 1} conditions against associativity",
    ) or _passed()


@_campaign("idempotent-one-semigroup", "idempotent 1 with 1 = 1*n reduces associativity to four equalities", 6)
def _run_idempotent_one_semigroup(inst):
    n, k = inst
    rows = batch.row_array(n, False)
    assoc = batch.space_verdicts("associative", n, k, False)
    cond = _constant_column_masks(rows, k) & (rows == rows[:, (np.arange(n) - k) % n]).all(axis=1)
    anchored = (rows[:, 0] == 0) & (rows[:, n - 1] == 0)
    return _first_bad_row(rows, anchored & (cond != assoc), "four-way condition against associativity") or _passed()


# --- scaled residues and unions ---------------------------------------------

def _instances_scaled_residues(max_n: int) -> list[tuple]:
    return [(n, t) for n in range(2, max_n + 1) for t in range(1, 7)]


@_campaign("scaled-residues", "residues scale cleanly from modulus n to modulus tn", 12, _instances_scaled_residues)
def _run_scaled_residues(inst):
    n, t = inst
    for x in range(1, 3 * n + 1):
        if mod_rep(t * x, t * n) != t * mod_rep(x, n):
            return _failed({"x": x, "note": "scaling of [tx]"})
        if mod_rep(t * (x - 1), t * n) != t * mod_rep(mod_rep(x, n) - 1, n):
            return _failed({"x": x, "note": "scaling of [t(x-1)]"})
    root = int(math.isqrt(n))
    if root * root + root == n and root % t == 0:
        big = root + (t - 1) * n
        if mod_rep(big + big * big, t * n) != t * n:
            return _failed({"k": root, "note": "shifted step misses the semigroup divisibility"})
    return _passed()


def _check_union(union, n: int, k: int, step: int) -> Outcome | None:
    """The failure of a union's checks, or None when they all pass."""
    table = union.table
    if detect(table) != frozenset({step}):
        return _failed({"copies": union.spec.t, "note": "wrong set of steps"})
    if table != table_from_sequence(left_unitary_groupoid(table.n, step)):
        return _failed({"copies": union.spec.t, "note": "union differs from the left unitary table"})
    if not check(table, "associative")[0]:
        return _failed({"copies": union.spec.t, "note": "union is not associative"})
    lu_small = left_unitary_groupoid(n, k)
    for copy, comp in enumerate(union.copies(), start=1):
        if not _is_left_ideal(table.grid, comp):
            return _failed({"copy": copy, "note": "copy is not a left ideal"})
        cols = np.array(comp) - 1
        first = np.searchsorted(cols, table.grid[cols[0], cols]) + 1   # the copy's first row, local indices
        seq = KSequence(n, k, tuple(first.tolist()))
        if not semigroup_criterion(seq):
            return _failed({"copy": copy, "note": "copy misses the semigroup criterion"})
        iso_left_unitary(seq, lu_small)
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


@_campaign("union-same-step", "disjoint copies merge into one semigroup with the same step",
           64, _instances_union_same_step)
def _run_union_same_step(inst):
    n, k, t = inst
    union = union_same_step(UnionSpec(n, k, t))
    return _check_union(union, n, k, k) or _passed({"copies": t, "order": t * n})


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


@_campaign("union-shifted-step", "disjoint copies merge into one semigroup with a lifted step",
           600, _instances_union_shifted_step)
def _run_union_shifted_step(inst):
    n, k, t = inst
    union = union_shifted_step(UnionSpec(n, k, t))
    step = k + (t - 1) * n
    return _check_union(union, n, k, step) or _passed({"copies": t, "order": t * n, "step": step})


def _instances_pair_union(max_n: int) -> list[tuple]:
    return [(k * k + k, k) for k in range(2, max_n) if 2 * (k * k + k) <= max_n]


@_campaign("pair-union", "two copies interleave on odd and even labels", 160, _instances_pair_union)
def _run_pair_union(inst):
    n, k = inst
    if k % 2:
        try:
            pair_union(k)
        except ConstructionError:
            return _passed({"note": "odd step rejected"})
        return _failed({"note": "odd step accepted"})
    union = pair_union(k)
    cells = union.table.grid + 1          # 1-based products; odd labels are copy 1, even copy 2
    q = k // 2
    odds, evens = np.arange(1, 2 * n + 1, 2), np.arange(2, 2 * n + 1, 2)
    if not np.array_equal(np.unique(cells[::2, 1::2]), evens):
        return _failed({"note": "odd times even does not cover the even copy"})
    if not np.array_equal(np.unique(cells[1::2, ::2]), odds):
        return _failed({"note": "even times odd does not cover the odd copy"})
    small = table_from_sequence(left_unitary_groupoid(n, k))
    i, j = np.arange(1, n + 1)[:, None], np.arange(1, n + 1)
    # Each rule on the products of the labels 2i - 1 or 2i and 2j - 1 or 2j, as [i, j] misses
    rules = (
        ("odd copy changed its products", cells[::2, ::2] != 2 * (small.grid + 1) - 1),
        ("odd times even misses its formula", cells[::2, 1::2] != 2 * mod_rep(k - k * i + j, n)),
        ("even times odd misses its formula", cells[1::2, ::2] != 2 * mod_rep(k * (1 + q) - k * i + j, n) - 1),
        ("even times even misses its formula", cells[1::2, 1::2] != 2 * mod_rep(k * (1 + q) - k * i + j, n)),
    )
    missed = np.stack([bad for _, bad in rules])   # [rule, i, j]
    if missed.any():
        x, y = np.unravel_index(missed.any(axis=0).argmax(), (n, n))
        note = rules[int(missed[:, x, y].argmax())][0]
        return _failed({"i": int(x) + 1, "j": int(y) + 1, "note": note})
    row = tuple((cells[1, 1::2] // 2).tolist())
    iso_left_unitary(KSequence(n, k, row), left_unitary_groupoid(n, k))
    return _passed({"order": 2 * n})
