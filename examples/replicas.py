"""Durable persistence and read-only replicas, end to end.

Walks the v3 persistence surface:

1. build a sharded corpus and commit it as a packed v3 index
   (``save_index(engine.index, path)``);
2. warm-restart an engine from disk (``CredenceEngine.load`` — O(1)
   attach, no posting rebuild) and show the ranking is byte-identical
   to the live engine's;
3. attach two independent ``ReplicaIndex`` views (stand-ins for two
   serving processes) over the same files;
4. have the writer commit a new generation while the replicas stay
   attached, then ``refresh()`` them onto it;
5. show the content-fingerprint ``index.version`` moving with the
   commit — which is what invalidates every version-keyed cache.

Run with::

    python examples/replicas.py
"""

import tempfile
from pathlib import Path

from repro import (
    CredenceEngine,
    Document,
    EngineConfig,
    ReplicaIndex,
    save_index,
)
from repro.datasets.covid import DEMO_QUERY, covid_corpus

K = 5


def show(label: str, engine: CredenceEngine) -> list[str]:
    ranking = engine.rank(DEMO_QUERY, K)
    print(f"\n{label}")
    for position, entry in enumerate(ranking.to_dicts(), start=1):
        print(f"  {position}. {entry['doc_id']:<28} {entry['score']:.3f}")
    return ranking.doc_ids


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="credence-replicas-"))
    path = workdir / "corpus.idx"

    # -- 1. commit a packed v3 index --------------------------------------
    live = CredenceEngine(
        covid_corpus(), EngineConfig(ranker="bm25", seed=5, shards=4)
    )
    save_index(live.index, path)
    files = sorted(p.name for p in workdir.iterdir())
    print(f"committed generation 1 to {path.name}: {files}")
    reference = show("live engine (in memory)", live)

    # -- 2. warm restart from disk ----------------------------------------
    restarted = CredenceEngine.load(path, config=EngineConfig(ranker="bm25", seed=5))
    info = restarted.index_info()["storage"]
    print(
        f"\nwarm restart: attached {info['format']} generation "
        f"{info['generation']} ({info['bytes_on_disk']} bytes on disk)"
    )
    assert show("restarted engine (packed attach)", restarted) == reference

    # -- 3. two replicas over the same files ------------------------------
    replicas = [ReplicaIndex(path) for _ in range(2)]
    engines = [
        CredenceEngine.from_index(r, config=EngineConfig(ranker="bm25", seed=5))
        for r in replicas
    ]
    assert replicas[0].version == replicas[1].version
    print(
        f"\ntwo replicas attached @ generation {replicas[0].generation}, "
        f"identical fingerprint {replicas[0].version}"
    )

    # -- 4. the writer commits; replicas follow ---------------------------
    old_version = replicas[0].version
    live.add_documents(
        [
            Document(
                "press-clarification",
                "Health officials issued a clarification: the 5G conspiracy "
                "claims about the virus outbreak are false.",
            )
        ]
    )
    save_index(live.index, path)
    print("\nwriter committed generation 2 (replicas still on 1)")
    for number, replica in enumerate(replicas, start=1):
        swapped = replica.refresh()
        print(
            f"  replica {number}: refresh -> "
            f"{'attached generation ' + str(replica.generation) if swapped else 'no change'}"
        )

    # -- 5. fingerprints moved with the commit ----------------------------
    assert replicas[0].version == replicas[1].version != old_version
    print(
        f"\nfingerprint moved {old_version} -> {replicas[0].version}: "
        "version-keyed caches invalidate by construction"
    )
    ranks = [engine.rank(DEMO_QUERY, K).doc_ids for engine in engines]
    assert ranks[0] == ranks[1]
    show("replica 1 after refresh (serves the new document set)", engines[0])

    for replica in replicas:
        replica.close()


if __name__ == "__main__":
    main()
