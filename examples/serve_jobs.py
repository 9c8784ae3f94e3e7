"""Async explanation jobs: submit, poll progress, cancel, and read metrics.

Walks the explanation-service surface end to end over real HTTP:

1. start the CREDENCE service with a 4-worker explanation pool;
2. submit a batch job (``POST /jobs``) and get a receipt immediately;
3. poll ``GET /jobs/{id}`` for per-item progress until it finishes
   (one deliberately bad item shows failure isolation);
4. repeat a synchronous request to show the version-keyed result store
   answering from cache;
5. cancel a second job (``DELETE /jobs/{id}``);
6. read ``GET /metrics`` — jobs, cache hit rate, latency percentiles.

Run with::

    python examples/serve_jobs.py
"""

import json
import time

from repro import DEMO_QUERY, FAKE_NEWS_DOC_ID, demo_engine
from repro.api import HttpClient, serve


def wait_for(client: HttpClient, job_id: str) -> dict:
    while True:
        payload = client.get(f"/jobs/{job_id}").payload
        print(
            f"  {payload['job_id']}: {payload['status']} "
            f"({payload['items_done']}/{payload['items_total']} items)"
        )
        if payload["status"] not in ("pending", "running"):
            return payload
        time.sleep(0.05)


def main() -> None:
    engine = demo_engine(ranker="bm25")
    server = serve(engine, port=0, workers=4)
    client = HttpClient(server.url)
    print(f"CREDENCE service on {server.url} (4 explanation workers)")

    # -- 1. submit an async batch job -------------------------------------
    print("\nPOST /jobs (3 items; one bad doc id)")
    receipt = client.post(
        "/jobs",
        {
            "requests": [
                {"query": DEMO_QUERY, "doc_id": FAKE_NEWS_DOC_ID},
                {
                    "query": DEMO_QUERY,
                    "doc_id": FAKE_NEWS_DOC_ID,
                    "strategy": "query/augmentation",
                    "n": 2,
                    "threshold": 2,
                },
                {"query": DEMO_QUERY, "doc_id": "not-a-document"},
            ]
        },
    ).payload
    print(f"  receipt: {receipt['job_id']} is {receipt['status']}")

    # -- 2. poll until done ------------------------------------------------
    final = wait_for(client, receipt["job_id"])
    print(f"  item states: {final['items']}")
    print(f"  bad item error: {final['responses'][2]['error']}")

    # -- 3. the result store: repeats are cache hits ----------------------
    print("\nPOST /explanations twice (second answer comes from the store)")
    body = {"query": DEMO_QUERY, "doc_id": FAKE_NEWS_DOC_ID}
    first = client.post("/explanations", body)
    second = client.post("/explanations", body)
    assert first.payload["explanations"] == second.payload["explanations"]

    # -- 4. cancellation ---------------------------------------------------
    print("\nDELETE /jobs/{id} (cancel)")
    ranking = client.post("/rank", {"query": DEMO_QUERY, "k": 10}).payload
    job_id = client.post(
        "/jobs",
        {
            "requests": [
                {"query": DEMO_QUERY, "doc_id": entry["doc_id"], "n": 2}
                for entry in ranking["ranking"]
            ]
        },
    ).payload["job_id"]
    cancelled = client.delete(f"/jobs/{job_id}").payload
    final = wait_for(client, job_id)
    if final["status"] == "cancelled":
        print(f"  {job_id} cancelled; skipped items: "
              f"{final['items'].count('skipped')}")
    else:
        print(f"  {job_id} finished before the cancel landed "
              f"(cancel of a terminal job is a no-op)")

    # -- 5. metrics --------------------------------------------------------
    print("\nGET /metrics")
    print(json.dumps(client.get("/metrics").payload, indent=2))

    client.close()
    server.stop()
    engine.service().shutdown(cancel_pending=True)


if __name__ == "__main__":
    main()
