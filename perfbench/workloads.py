"""Seeded request and edit sequences of the benchmark's three workloads.

A sequence depends only on the seed, the run length and, for edits, the
rows of the generated instance.  The base queries and the curator pool are
``repro.workloads.gtopdb``'s own; the program under test receives only the
generated query texts and rows.

Each workload is a list of whole *cycles* with fixed round-robin slots.  The
seed picks variants, constants and edits, never the mix, so two commits
replay identical requests in an exact mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads import gtopdb

#: The instance every workload cites: ``gtopdb.generate(families=..., **INSTANCE)``.
INSTANCE = {"targets_per_family": 3, "seed": 17}

#: Curator names an edit may credit: the generator's own pool.
CURATORS = gtopdb._CURATOR_NAMES
ACTIONS = ("agonist", "antagonist", "inhibitor")


@dataclass(frozen=True)
class CQ:
    """A conjunctive query: variables are ``str``, constants are ``int``."""

    name: str
    head: tuple[str, ...]
    body: tuple[tuple[str, tuple], ...]

    def text(self) -> str:
        atoms = ", ".join(
            f"{predicate}({', '.join(str(term) for term in terms)})"
            for predicate, terms in self.body
        )
        return f"{self.name}({', '.join(self.head)}) :- {atoms}"


@dataclass(frozen=True)
class Read:
    """One cite request; *base* names the query its answer must equal."""

    query: CQ
    base: str


@dataclass(frozen=True)
class Edit:
    """One curator edit: delete then insert ``(relation, row)`` pairs."""

    deletes: tuple[tuple[str, tuple], ...]
    inserts: tuple[tuple[str, tuple], ...]


def _cq(name: str, head: str, *atoms: str) -> CQ:
    def terms(text: str) -> tuple:
        return tuple(int(t) if t.isdigit() else t for t in text.split(", "))

    body = []
    for atom in atoms:
        predicate, rest = atom.split("(", 1)
        body.append((predicate, terms(rest.rstrip(")"))))
    return CQ(name, tuple(head.split(", ")), tuple(body))


def _from_gtopdb(query) -> CQ:
    """*query*, a variable-only ``ConjunctiveQuery``, as a :class:`CQ`."""

    def terms(atom) -> tuple[str, ...]:
        return tuple(term.name for term in atom.terms)

    return CQ(
        query.name, terms(query.head), tuple((atom.predicate, terms(atom)) for atom in query.body)
    )


#: The paper query and the GtoPdb example queries Q4, Q5 and Q6.
_EXAMPLES = gtopdb.example_queries()
BASES = {
    "paper": _from_gtopdb(gtopdb.paper_query()),
    "Q4": _from_gtopdb(_EXAMPLES[3]),
    "Q5": _from_gtopdb(_EXAMPLES[4]),
    "Q6": _from_gtopdb(_EXAMPLES[5]),
}


# -- variants -------------------------------------------------------------------------
def renamed(query: CQ, rng: random.Random) -> CQ:
    """*query* with every variable alpha-renamed to a fresh seeded name."""
    variables = sorted(
        {t for _, terms in query.body for t in terms if isinstance(t, str)}
    )
    fresh = rng.sample(range(100, 1000), len(variables))
    mapping = {v: f"{v[0]}v{n}" for v, n in zip(variables, fresh)}

    def sub(term):
        return mapping.get(term, term) if isinstance(term, str) else term

    return CQ(
        query.name,
        tuple(sub(v) for v in query.head),
        tuple((p, tuple(sub(t) for t in terms)) for p, terms in query.body),
    )


def reordered(query: CQ, rng: random.Random) -> CQ:
    """*query* with its body atoms in a different seeded order."""
    order = list(range(len(query.body)))
    while order == sorted(order):
        rng.shuffle(order)
    return CQ(query.name, query.head, tuple(query.body[i] for i in order))


def variant(query: CQ, rng: random.Random) -> CQ:
    """The original, renamed, reordered or renamed-and-reordered form."""
    kind = rng.randrange(4)
    if kind & 1:
        query = renamed(query, rng)
    if kind & 2:
        query = reordered(query, rng)
    return query


# -- warm_cite ------------------------------------------------------------------------
#: Slot order of one warm_cite cycle: four paper-query-family slots, then Q6.
WARM_SLOTS = ("paper", "Q4", "paper", "Q4", "Q6")


def warm_cite(seed: int, cycles: int) -> list[list[Read]]:
    rng = random.Random(f"warm_cite/{seed}")
    return [
        [Read(variant(BASES[base], rng), base) for base in WARM_SLOTS]
        for _ in range(cycles)
    ]


def warm_up_warm_cite() -> list[CQ]:
    """Set-up list: every variant kind of each slot's base, so plans are hot."""
    rng = random.Random("warm_cite/setup")
    out = []
    for base in ("paper", "Q4", "Q6"):
        query = BASES[base]
        out += [query, renamed(query, rng), reordered(query, rng)]
    return out


# -- cold_shapes ----------------------------------------------------------------------
#: The five point-citation templates: name, body with ``{c}`` for the inline
#: constant, which key the constant draws from, and the heads a request may
#: project.  Heads multiply the constant pools (the instance has only 200
#: ligands), so runs draw (constant, head) pairs without replacement.
COLD_TEMPLATES = (
    ("family_intro", ("Family({c}, FName, Desc)", "FamilyIntro({c}, Text)"), "FID",
     ("FName, Text", "FName", "Text", "Desc, Text", "FName, Desc, Text")),
    ("target_family", ("Target(TID, {c}, TName, Type)", "Family({c}, FName, Desc)"), "FID",
     ("TName, FName", "TName", "TID, TName", "TName, Type", "TName, Type, FName")),
    ("target_ligands",
     ("Target({c}, FID, TName, TType)", "Interaction({c}, LID, Action, Affinity)",
      "Ligand(LID, LName, LType)"), "TID",
     ("TName, LName, Action", "LName", "LName, Action", "TName, LName", "LName, Affinity")),
    ("target_intro",
     ("Target({c}, FID, TName, Type)", "Family(FID, FName, Desc)", "FamilyIntro(FID, Text)"),
     "TID",
     ("TName, FName, Text", "FName, Text", "TName, Text", "Text", "TName, FName")),
    ("ligand_targets",
     ("Ligand({c}, LName, LType)", "Interaction(TID, {c}, Action, Affinity)",
      "Target(TID, FID, TName, TType)"), "LID",
     ("LName, TName", "TName, Action", "LName, TName, Action", "TName, Affinity",
      "LName, Action, Affinity", "TName", "TID, Action", "LName, TName, Affinity",
      "TName, TType", "TID, TName, Action")),
)


def cold_query(template: str, constant: int, head: str) -> CQ:
    _name, atoms, _key, _heads = next(t for t in COLD_TEMPLATES if t[0] == template)
    return _cq("Q", head, *(atom.format(c=constant) for atom in atoms))


def cold_shapes(seed: int, cycles: int, families: int, ligands: int = 200) -> list[list[Read]]:
    """Point citations, each template drawing (constant, head) without replacement."""
    keys = {
        "FID": families,
        "TID": families * INSTANCE["targets_per_family"],
        "LID": ligands,
    }
    rng = random.Random(f"cold_shapes/{seed}")
    columns = []
    for name, _atoms, key, heads in COLD_TEMPLATES:
        pool = [(c, head) for c in range(1, keys[key] + 1) for head in heads]
        if cycles > len(pool):
            raise ValueError(f"{name}: {cycles} cycles exceed its {len(pool)} requests")
        columns.append(
            [Read(cold_query(name, c, head), name) for c, head in rng.sample(pool, cycles)]
        )
    return [list(cycle) for cycle in zip(*columns)]


# -- write_mix ------------------------------------------------------------------------
#: Reads of one write_mix cycle, after its edit.
WRITE_READS = ("paper", "Q5", "Q6")


def write_mix(seed: int, cycles: int) -> list[list[Read]]:
    return [[Read(BASES[base], base) for base in WRITE_READS] for _ in range(cycles)]


def edits(
    seed: int,
    count: int,
    targets: dict[int, list[int]],
    contributors: dict[int, set[str]],
    interactions: dict[int, dict[int, tuple]],
    ligands: int = 200,
    salt: str = "write_mix",
) -> list[Edit]:
    """*count* seeded curator edits, each revising every target of one family.

    An edit deletes each target's ``Contributor`` and ``Interaction`` rows
    and inserts as many revised rows whose keys are not present, so every
    relation keeps its size.  *contributors* and *interactions* are the
    instance's rows by target; they are copied, not changed.
    """
    rng = random.Random(f"{salt}/{seed}")
    contributors = {tid: set(names) for tid, names in contributors.items()}
    interactions = {tid: dict(rows) for tid, rows in interactions.items()}
    families = sorted(targets)
    out = []
    for _ in range(count):
        family = rng.choice(families)
        deletes: list[tuple[str, tuple]] = []
        inserts: list[tuple[str, tuple]] = []
        for tid in targets[family]:
            old = sorted(contributors[tid])
            new = rng.sample([n for n in CURATORS if n not in contributors[tid]], len(old))
            deletes += [("Contributor", (tid, name)) for name in old]
            inserts += [("Contributor", (tid, name)) for name in new]
            contributors[tid] = set(new)
            old_rows = [interactions[tid][lid] for lid in sorted(interactions[tid])]
            free = [lid for lid in range(1, ligands + 1) if lid not in interactions[tid]]
            new_rows = [
                (tid, lid, rng.choice(ACTIONS), round(rng.uniform(4.0, 10.0), 2))
                for lid in sorted(rng.sample(free, len(old_rows)))
            ]
            deletes += [("Interaction", row) for row in old_rows]
            inserts += [("Interaction", row) for row in new_rows]
            interactions[tid] = {row[1]: row for row in new_rows}
        out.append(Edit(tuple(deletes), tuple(inserts)))
    return out


def edit_state(database) -> tuple[dict, dict, dict]:
    """Targets by family and contributor/interaction rows by target."""
    targets: dict[int, list[int]] = {}
    for tid, fid, *_ in sorted(database.relation("Target")):
        targets.setdefault(fid, []).append(tid)
    contributors: dict[int, set[str]] = {}
    for tid, name in database.relation("Contributor"):
        contributors.setdefault(tid, set()).add(name)
    interactions: dict[int, dict[int, tuple]] = {}
    for row in database.relation("Interaction"):
        interactions.setdefault(row[0], {})[row[1]] = row
    for tids in targets.values():
        for tid in tids:
            contributors.setdefault(tid, set())
            interactions.setdefault(tid, {})
    return targets, contributors, interactions
