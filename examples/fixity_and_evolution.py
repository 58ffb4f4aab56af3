"""Scenario: fixity and citation evolution for an evolving curated database.

The database is versioned.  A reader mints a persistent citation for a query
result; the database then evolves (new families are added, an introduction is
rewritten).  Later the citation is resolved again: the reader gets back the
data exactly as cited, verified against the recorded content hash, while a
fresh citation reflects the new release.  A second part keeps the citations
of a standing query up to date incrementally as updates stream into the
database: the maintainer follows the database's change log and brings its
result forward whenever it is read.

Run with:  python examples/fixity_and_evolution.py
"""

from repro import CitationEngine, CitationPolicy, IncrementalCitationMaintainer
from repro.versioning import CitationResolver, VersionedDatabase
from repro.workloads import gtopdb

QUERY = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"


def fixity_walkthrough() -> None:
    print("=== Fixity: persistent, resolvable citations ===\n")
    versioned = VersionedDatabase(gtopdb.schema(), snapshot_interval=5)
    source = gtopdb.paper_instance()
    for relation in source.relations():
        versioned.insert_many(relation.schema.name, relation.rows)
    release_1 = versioned.commit("release 1")
    print("committed", release_1)

    resolver = CitationResolver(versioned, gtopdb.citation_views())
    persistent = resolver.cite_current(QUERY)
    print("\nPersistent citation minted at release 1:")
    print(persistent.to_json())

    # The database evolves.
    versioned.insert("Family", (20, "Orexin", "O1"))
    versioned.insert("FamilyIntro", (20, "orexin receptors intro"))
    versioned.delete("FamilyIntro", (11, "1st"))
    versioned.insert("FamilyIntro", (11, "1st (revised)"))
    release_2 = versioned.commit("release 2")
    print("\ncommitted", release_2)
    print("current data drifted from the cited version:", resolver.has_drifted(persistent))

    resolved = resolver.resolve(persistent)
    print("\nResolving the old citation returns the data as cited:")
    print("  answers:", sorted(resolved.result.rows))

    fresh = resolver.cite_current(QUERY)
    print("\nA fresh citation against release 2 sees the new family:")
    print("  answers:", sorted(resolver.resolve(fresh).result.rows))
    print()


def evolution_walkthrough() -> None:
    print("=== Citation evolution: incremental maintenance ===\n")
    database = gtopdb.generate(families=60, seed=30)
    engine = CitationEngine(
        database, gtopdb.citation_views(), policy=CitationPolicy.union_everywhere()
    )
    maintainer = IncrementalCitationMaintainer(engine, QUERY)
    print("initial answers:", len(maintainer.result))
    print("initial citation size:", maintainer.citation().size())

    updates = [
        ("Ligand", (9001, "Novel ligand", "peptide")),          # irrelevant to the query
        ("Family", (901, "Chemerin", "chemerin receptors")),     # new family ...
        ("FamilyIntro", (901, "chemerin intro")),                # ... now answers the query
        ("Committee", (901, "New Curator")),                     # snippet-only update
    ]
    for relation, row in updates:
        database.insert(relation, row)
        print(f"after insert into {relation!r}: answers={len(maintainer.result)}, "
              f"recomputed rows so far={maintainer.statistics.rows_recomputed}")

    maintainer.check_consistency()
    print("\nmaintenance statistics:", maintainer.statistics)
    print("consistency against recomputation from scratch: OK")


if __name__ == "__main__":
    fixity_walkthrough()
    evolution_walkthrough()
